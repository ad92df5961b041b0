"""The streamed estimators against the path-storing code they replaced.

The reference copies below are the estimator kernels as they were before
the engine streamed: they build whole ``(R, N, steps + 1)`` Brownian paths,
or one stored path per deviation candidate in the mean field, run the
row-major Euler loop over them and reduce afterwards.  The streamed
``_nplayer_chunk``, ``_mf_chunk`` and ``verify_consistency`` must
reproduce them bit for bit at every chunk size, including one
replication, where numpy would otherwise sum the players pairwise; so
must the path collector ``simulate_representative`` and the moment-flow
Picard iteration ``mckean_vlasov_fixed_point``, against one that stores
each iterate's paths.  ``poc_curve``, which streams one ensemble
for every N through ``_poc_chunk``, must reproduce the per-N reference run
as one chunk, whatever its own chunks.  ``tracemalloc`` tests bound the peak
memory of the streamed estimators and of the consistency null band, and
check that the gaps that take one step across [0, T] stay inside their
chunk budget.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

import ccemfg.equilibrium as eq
from ccemfg import _pathgen_py
from ccemfg.analytic import DeviceProbs
from ccemfg.correlation import (build_example_device, null_band,
                                sample_scenario, verify_consistency)
from ccemfg.engine import (SimulationError, TimeGrid, initial_states,
                           mckean_vlasov_fixed_point, noise_keys,
                           simulate_representative)
from ccemfg.equilibrium import (_assemble_gap, cce_gap_nplayer,
                                default_deviation_grid, mean_field_gap_mc,
                                poc_curve, recommended_actions)
from ccemfg.flows import device_flow
from ccemfg.metrics import QUANTILE_POINTS, quantile_ranks
from ccemfg.model import (GaussianInitial, MeasureView, build_bang_bang_model,
                          drift_reads_measure)
from reference_paths import brownian_paths

MODEL = build_bang_bang_model(-1.0, 1.0, 1.0, 2.0)
# the same game with its running cost wrapped, which hides from
# exact_terminal that the running cost is zero: the gap estimators then step
# it along the grid.  The drift stays the action, so drift_reads_measure
# still lets the N-player gap re-simulate the deviator alone (a partial
# pickles, so worker pools can run it)
EULER = dataclasses.replace(MODEL,
                            running_cost=functools.partial(MODEL.running_cost))
DEVICES = [(1, 0, 0, 0), (0.5, 0.3, 0.2, 0), (0.5, 0, 0, 0.5)]
CHUNK_REPS = [1, 2, 3, 7]
PLAYERS = [2, 10, 40]
STEPS = [1, 2, 3, 20]


# --- reference copies of the path-storing kernels --------------------------

def _ref_euler(model, grid, x0, w, action_fn, measure_fn):
    steps = grid.steps
    dt = grid.dt
    times = grid.times
    x = np.empty(x0.shape + (steps + 1,))
    x[..., 0] = x0
    for i in range(steps):
        xi = x[..., i]
        mv = measure_fn(i, xi)
        a = action_fn(times[i], xi, mv)
        if not model.actions.contains(a):
            raise ValueError(f"action outside the admissible box at step {i}")
        drift = model.drift(times[i], xi, mv, a)
        x[..., i + 1] = xi + np.asarray(drift) * dt + (w[..., i + 1] - w[..., i])
        if not np.all(np.isfinite(x[..., i + 1])):
            raise SimulationError(i)
    return x


def _ref_representative_noise(model, grid, seed, rep_ids):
    w = brownian_paths(noise_keys(seed, rep_ids, [0]),
                       grid.steps, grid.horizon)[:, 0, :]
    return initial_states(model, seed, rep_ids, [0])[:, 0], w


def _ref_flow_views(flow, grid):
    return [flow.view(t) for t in grid.times[:-1]]


def _ref_constant(action):
    """The constant ``action`` at every state of the step."""
    return lambda t, x, mv: np.broadcast_to(np.float64(action), np.shape(x))


def _ref_step_against_flow(model, grid, x0, w, strategy, views):
    return _ref_euler(model, grid, x0, w, _ref_constant(strategy),
                      lambda i, x: views[i])


def _ref_ordered_measure(i, x):
    """The empirical measure of (R, N) states with the players added in
    order, as the streamed ensemble adds them."""
    s1, s2 = x[..., :1].copy(), x[..., :1] ** 2
    for j in range(1, x.shape[-1]):
        s1 += x[..., j:j + 1]
        s2 += x[..., j:j + 1] ** 2
    return MeasureView(mean=s1 / x.shape[-1], second_moment=s2 / x.shape[-1])


def _ref_player_cost(model, grid, xp, ap, means, m2s):
    times = grid.times
    run = np.zeros(xp.shape[0])
    for i in range(grid.steps):
        mv = MeasureView(mean=means[:, i], second_moment=m2s[:, i])
        a_i = ap[:, i] if ap.ndim == 2 else ap
        run = run + np.asarray(model.running_cost(times[i], xp[:, i], mv, a_i))
    mv_T = MeasureView(mean=means[:, -1], second_moment=m2s[:, -1])
    return run * grid.dt + np.asarray(model.terminal_cost(xp[:, -1], mv_T))


def _ref_nplayer_chunk(args, fast=None):
    """Costs from stored paths: each candidate is a whole deviated
    ensemble or, when ``fast`` (by default when the drift ignores the
    measure), player 0 re-simulated alone."""
    (model, device, grid, N, seed, candidates, off, count) = args
    rep_ids = off + np.arange(count)
    actions, cls = recommended_actions(device, seed, rep_ids, N)

    w = brownian_paths(noise_keys(seed, rep_ids, np.arange(N)),
                       grid.steps, grid.horizon)
    x0 = initial_states(model, seed, rep_ids, np.arange(N))

    def const_fn(t, x, mv, _a=actions):
        return _a

    x = _ref_euler(model, grid, x0, w, const_fn, _ref_ordered_measure)
    sums = x.sum(axis=1)                  # (R, steps+1)
    sq_sums = np.sum(x**2, axis=1)

    j_rec = _ref_player_cost(model, grid, x[:, 0, :], actions[:, 0],
                             sums / N, sq_sums / N)

    G = candidates.shape[0]
    j_dev = np.empty((count, G))
    if fast is None:
        fast = not drift_reads_measure(model)
    if fast:
        j_dev[:] = _ref_deviations_fast(model, grid, N, candidates,
                                        x[:, 0, :], w[:, 0, :], x0[:, 0],
                                        sums, sq_sums)
    else:
        for g, m in enumerate(candidates):
            dev_actions = actions.copy()
            dev_actions[:, 0] = m

            def dev_fn(t, xx, mv, _a=dev_actions):
                return _a

            xd = _ref_euler(model, grid, x0, w, dev_fn, _ref_ordered_measure)
            s1 = xd.sum(axis=1)
            s2 = np.sum(xd**2, axis=1)
            j_dev[:, g] = _ref_player_cost(model, grid, xd[:, 0, :],
                                           np.full(count, m), s1 / N, s2 / N)
    return j_rec, j_dev, cls


def _ref_deviations_fast(model, grid, N, candidates, x0_rec, w0, x0_init,
                         sums, sq_sums):
    count = x0_rec.shape[0]
    times = grid.times
    dt = grid.dt
    out = np.empty((count, candidates.shape[0]))
    for g, m in enumerate(candidates):
        a = np.full(count, m)
        xd = np.empty_like(x0_rec)
        xd[:, 0] = x0_init
        run = np.zeros(count)
        for i in range(grid.steps):
            mean_i = (sums[:, i] - x0_rec[:, i] + xd[:, i]) / N
            m2_i = (sq_sums[:, i] - x0_rec[:, i]**2 + xd[:, i]**2) / N
            mv = MeasureView(mean=mean_i, second_moment=m2_i)
            run = run + np.asarray(model.running_cost(times[i], xd[:, i], mv, a))
            drift = np.asarray(model.drift(times[i], xd[:, i], mv, a))
            xd[:, i + 1] = xd[:, i] + drift * dt + (w0[:, i + 1] - w0[:, i])
        mean_T = (sums[:, -1] - x0_rec[:, -1] + xd[:, -1]) / N
        m2_T = (sq_sums[:, -1] - x0_rec[:, -1]**2 + xd[:, -1]**2) / N
        mv_T = MeasureView(mean=mean_T, second_moment=m2_T)
        out[:, g] = run * dt + np.asarray(model.terminal_cost(xd[:, -1], mv_T))
    return out


def _ref_poc_for_n(args):
    (model, device, grid, N, reps, seed, tables) = args
    labels = list(tables)

    n_pts = tables[labels[0]].shape[1]
    chunk = max(1, eq.CHUNK_ELEMS // eq._rep_numbers(
        grid.steps, 2 * N + n_pts, N, curves=grid.steps + 1))
    d2_sum = np.zeros(grid.steps + 1)
    class_sum = {lab: np.zeros(grid.steps + 1) for lab in labels}
    class_cnt = {lab: 0 for lab in labels}
    total = 0
    for off in range(0, reps, chunk):
        cnt = min(chunk, reps - off)
        rep_ids = off + np.arange(cnt)
        actions, cls = recommended_actions(device, seed, rep_ids, N)
        w = brownian_paths(
            noise_keys(seed, rep_ids, np.arange(N)), grid.steps, grid.horizon)
        x0 = initial_states(model, seed, rep_ids, np.arange(N))
        x = _ref_euler(model, grid, x0, w,
                       lambda t, s, mv, _a=actions: _a, _ref_ordered_measure)
        xs = np.sort(x, axis=1)                        # (R, N, T)
        q_idx = np.minimum(((np.arange(n_pts) + 0.5) / n_pts * N).astype(np.int64),
                           N - 1)
        eq_ = xs[:, q_idx, :]                          # (R, 512, T)
        for ci, lab in enumerate(labels):
            mask = cls == ci
            if not np.any(mask):
                continue
            diff2 = (eq_[mask] - tables[lab].T[None]) ** 2
            d2 = diff2.mean(axis=1)                    # (Rc, T)
            class_sum[lab] += d2.sum(axis=0)
            class_cnt[lab] += int(mask.sum())
            d2_sum += d2.sum(axis=0)
        total += cnt
    per_time = d2_sum / total
    per_class = {lab: (class_sum[lab] / class_cnt[lab]
                       if class_cnt[lab] else np.full(grid.steps + 1, np.nan))
                 for lab in labels}
    return per_time, per_class


def _ref_mf_chunk(args):
    (model, device, grid, seed, candidates, off, count) = args
    rep_ids = off + np.arange(count)
    scen = sample_scenario(device, seed, rep_ids)
    x0, w = _ref_representative_noise(model, grid, seed, rep_ids)

    j_rec = np.empty(count)
    j_dev = np.empty((count, candidates.shape[0]))
    for idx, scenario in enumerate(device.scenarios):
        mask = scen == idx
        if not np.any(mask):
            continue
        x0_s, w_s = x0[mask], w[mask]
        views = _ref_flow_views(scenario.flow, grid)
        vT = scenario.flow.view(grid.times[-1])
        means = np.array([v.mean for v in views] + [vT.mean])
        m2s = np.array([v.second_moment for v in views] + [vT.second_moment])
        means = np.broadcast_to(means, (x0_s.size, means.shape[0]))
        m2s = np.broadcast_to(m2s, means.shape)

        def flow_fn(i, x, _v=views):
            return _v[i]

        x = _ref_euler(model, grid, x0_s, w_s,
                       _ref_constant(scenario.strategy), flow_fn)
        j_rec[mask] = _ref_player_cost(model, grid, x,
                                       np.full(x0_s.size, scenario.strategy),
                                       means, m2s)

        for g, m in enumerate(candidates):
            xd = _ref_euler(model, grid, x0_s, w_s,
                            lambda t, xx, mv, _m=float(m): np.full_like(xx, _m),
                            flow_fn)
            j_dev[mask, g] = _ref_player_cost(model, grid, xd,
                                              np.full(x0_s.size, m), means, m2s)
    return j_rec, j_dev, scen


def _ref_verify_consistency(model, device, grid, reps, seed):
    """label -> (w2, count, table), pooling stored per-scenario paths."""
    draws = sample_scenario(device, seed, np.arange(reps))
    times = grid.times
    paths_by_scenario = {}
    for idx, scenario in enumerate(device.scenarios):
        rep_ids = np.nonzero(draws == idx)[0]
        if rep_ids.size == 0:
            continue
        x0, w = _ref_representative_noise(model, grid, seed, rep_ids)
        paths_by_scenario[idx] = _ref_step_against_flow(
            model, grid, x0, w, scenario.strategy,
            _ref_flow_views(scenario.flow, grid))
    out = {}
    for label, entry in device.flow_classes().items():
        pooled = [paths_by_scenario[i] for i in entry["scenarios"]
                  if i in paths_by_scenario]
        if not pooled:
            continue
        pool = np.concatenate(pooled, axis=0)
        table = entry["flow"].quantile_table(times)
        sorted_pool = np.sort(pool, axis=0)           # (R, T)
        eq_ = sorted_pool[quantile_ranks(pool.shape[0])].T   # (T, 512)
        w2 = np.sqrt(np.mean((eq_ - table) ** 2, axis=1))
        out[label] = (w2, pool.shape[0], table)
    return out


def _ref_mckean_vlasov(model, grid, strategy, particles, max_iters, tol,
                       seed):
    """(mean, var, distances): each iterate's (P, steps + 1) paths stored,
    sorted per time, and compared with the previous iterate's."""
    x0, w = _ref_representative_noise(model, grid, seed, np.arange(particles))
    x = np.repeat(x0[:, None], grid.steps + 1, 1)
    distances = []
    for _ in range(max_iters):
        views = [MeasureView(mean=float(x[:, i].mean()),
                             second_moment=float(np.mean(x[:, i] ** 2)))
                 for i in range(grid.steps)]
        x_new = _ref_step_against_flow(model, grid, x0, w, strategy, views)
        gap = float(np.max(np.sqrt(np.mean(
            (np.sort(x_new, axis=0) - np.sort(x, axis=0)) ** 2, axis=0))))
        distances.append(gap)
        x = x_new
        if gap < tol:
            break
    return (np.array([x[:, i].mean() for i in range(grid.steps + 1)]),
            np.array([x[:, i].var() for i in range(grid.steps + 1)]),
            distances)


# --- bit-identity ------------------------------------------------------------

@pytest.mark.parametrize("measure", [False, True],
                         ids=["fast", "measure-dependent"])
@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("p", DEVICES)
def test_nplayer_chunk_matches_path_storing_reference(p, steps, measure):
    # an opaque copy of the action drift counts as reading the measure
    model = (dataclasses.replace(MODEL, drift=functools.partial(MODEL.drift))
             if measure else MODEL)
    device = build_example_device(DeviceProbs(*p), -1.0, 1.0)
    grid = TimeGrid(2.0, steps)
    candidates = default_deviation_grid(model)
    for N in PLAYERS:
        for R in CHUNK_REPS:
            args = (model, device, grid, N, 3, candidates, 5, R)
            j_rec, j_dev, cls = eq._nplayer_chunk(args)
            r_rec, r_dev, r_cls = _ref_nplayer_chunk(args)
            assert np.array_equal(j_rec, r_rec), (N, R)
            assert np.array_equal(j_dev, r_dev), (N, R)
            assert np.array_equal(cls, r_cls)
            got = _assemble_gap(model, j_rec, j_dev, candidates)
            ref = _assemble_gap(model, r_rec, r_dev, candidates)
            assert np.array_equal(got.improvement_means, ref.improvement_means)
            assert np.array_equal(got.improvement_ses, ref.improvement_ses,
                                  equal_nan=True)


def _measure_feedback_model():
    """A drift that reads the measure and a Gaussian start, so the views,
    the states and their order all differ between replications."""
    return dataclasses.replace(
        MODEL, initial_law=GaussianInitial(0.0, 1.0),
        drift=lambda t, x, m, a: a + 0.7 * m.mean - 0.3 * m.second_moment)


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("p", DEVICES)
def test_poc_matches_path_storing_reference(p, steps, monkeypatch):
    """Every N of one ``poc_curve`` call, in chunks of R replications,
    against the reference run per N as one chunk.  Under the bang-bang
    drift the N are prefixes of one ensemble; a drift that reads the
    measure streams each N on its own."""
    device = build_example_device(DeviceProbs(*p), -1.0, 1.0)
    grid = TimeGrid(2.0, steps)
    tables = {lab: entry["flow"].quantile_table(grid.times)
              for lab, entry in device.flow_classes().items()}
    reps, seed = 15, 3
    # every class must be drawn, or the streamed code rightly refuses
    cls = recommended_actions(device, seed, np.arange(reps), 2)[1]
    assert set(cls.tolist()) == set(range(len(tables)))
    models = (MODEL, _measure_feedback_model())
    # the references run before CHUNK_ELEMS is patched: as one chunk
    all_refs = [[_ref_poc_for_n((model, device, grid, N, reps, seed, tables))
                 for N in PLAYERS] for model in models]
    for model, refs in zip(models, all_refs):
        for R in CHUNK_REPS:       # 15 replications in chunks of R
            monkeypatch.setattr(eq, "CHUNK_ELEMS", R * eq._rep_numbers(
                steps, 2 * PLAYERS[-1] + QUANTILE_POINTS, PLAYERS[-1],
                curves=len(PLAYERS) * (steps + 1)))
            res = poc_curve(model, device, PLAYERS, reps=reps, seed=seed,
                            grid=grid, workers=1)
            for k, (N, (r_time, r_class)) in enumerate(zip(PLAYERS, refs)):
                assert np.array_equal(res.per_time[N], r_time), (N, R)
                assert res.overall[k] == np.max(r_time)
                for lab in tables:
                    assert res.per_class[lab][k] == np.max(r_class[lab])

        # the per-replication curves of the chunks, added per class in
        # replication order, are the reference's class curves: in chunks of
        # four, and of one replication, where each step's squared differences
        # are one column that sum_rows adds in order
        table = np.stack(list(tables.values()), axis=-1)
        groups = ([[N] for N in PLAYERS] if drift_reads_measure(model)
                  else [PLAYERS])
        for size in (1, 4):
            d2 = np.concatenate([np.concatenate([
                eq._poc_chunk((model, device, grid, g, seed, table, off,
                               min(size, reps - off)))[0]
                for off in range(0, reps, size)], axis=1)
                for g in groups])                 # (len(PLAYERS), reps, T)
            for k, (_, r_class) in enumerate(refs):
                for ci, lab in enumerate(tables):
                    acc = np.zeros(steps + 1)
                    for row in d2[k, cls == ci]:
                        acc = acc + row
                    assert np.array_equal(acc / np.sum(cls == ci),
                                          r_class[lab]), (size, k, lab)


def test_poc_curve_does_not_depend_on_workers_or_chunks(monkeypatch):
    device = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0), -1.0, 1.0)

    def run(workers):
        return poc_curve(MODEL, device, [5, 12, 30], reps=23, seed=2,
                         grid=TimeGrid(2.0, 10), workers=workers)

    base = run(1)
    results = [run(2), run(3)]
    for per_chunk in (1, 4):
        monkeypatch.setattr(eq, "CHUNK_ELEMS", per_chunk * eq._rep_numbers(
            10, 2 * 30 + QUANTILE_POINTS, 30, curves=3 * 11))
        results += [run(1), run(2)]
    for res in results:
        assert res.Ns == base.Ns
        assert np.array_equal(res.overall, base.overall)
        for N in base.Ns:
            assert np.array_equal(res.per_time[N], base.per_time[N])
        for lab in base.per_class:
            assert np.array_equal(res.per_class[lab], base.per_class[lab])


def _interaction_model():
    """Drift a + 2 (mean(mu_t) - x), made the way a new game is made: by
    replacing the shipped drift and nothing else.  The estimators must
    read from the rules that it reads the measure."""
    return dataclasses.replace(
        MODEL, drift=lambda t, x, m, a: a + 2.0 * (m.mean - x))


@pytest.mark.parametrize("p", DEVICES)
def test_nplayer_chunk_under_a_measure_reading_drift(p):
    model = _interaction_model()
    device = build_example_device(DeviceProbs(*p), -1.0, 1.0)
    grid = TimeGrid(2.0, 5)
    candidates = default_deviation_grid(model, 5)
    for N, R in ((2, 1), (3, 7), (10, 4)):
        args = (model, device, grid, N, 0, candidates, 3, R)
        j_rec, j_dev, cls = eq._nplayer_chunk(args)
        r_rec, r_dev, r_cls = _ref_nplayer_chunk(args, fast=False)
        assert np.array_equal(j_rec, r_rec), (N, R)
        assert np.array_equal(j_dev, r_dev), (N, R)
        assert np.array_equal(cls, r_cls)


def test_poc_under_a_measure_reading_drift():
    model = _interaction_model()
    device = build_example_device(DeviceProbs(1, 0, 0, 0), -1.0, 1.0)
    grid, Ns = TimeGrid(2.0, 20), (2, 10, 50)
    res = poc_curve(model, device, Ns, reps=40, seed=0, grid=grid, workers=1)
    for k, N in enumerate(Ns):
        one = poc_curve(model, device, [N], reps=40, seed=0, grid=grid,
                        workers=1)
        assert np.array_equal(res.per_time[N], one.per_time[N]), N
        assert res.overall[k] == one.overall[0]
        for lab, vals in one.per_class.items():
            assert res.per_class[lab][k] == vals[0]


def _mean_reverting_model(theta):
    """Drift a + theta * (mean(mu_t) - x): from the second Picard iterate
    on, successive iterates differ by one shift, which shrinks slowly."""
    return dataclasses.replace(
        MODEL, drift=lambda t, x, m, a: a + theta * (m.mean - x))


@pytest.mark.parametrize("variant", ["bang-bang", "running-cost-feedback"])
@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("p", DEVICES)
def test_mf_chunk_matches_path_storing_reference(p, steps, variant):
    model = MODEL
    device = build_example_device(DeviceProbs(*p), -1.0, 1.0)
    if variant != "bang-bang":
        model = dataclasses.replace(
            MODEL, running_cost=lambda t, x, m, a: 0.5 * a**2 - x * m.mean)
    grid = TimeGrid(2.0, steps)
    candidates = default_deviation_grid(model)
    for R in CHUNK_REPS:
        args = (model, device, grid, 3, candidates, 5, R)
        j_rec, j_dev, scen = eq._mf_chunk(args)
        r_rec, r_dev, r_scen = _ref_mf_chunk(args)
        assert np.array_equal(j_rec, r_rec), R
        assert np.array_equal(j_dev, r_dev), R
        assert np.array_equal(scen, r_scen)


@pytest.mark.parametrize("variant", ["bang-bang", "measure-feedback"])
@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("p", DEVICES)
def test_consistency_matches_path_storing_reference(p, steps, variant):
    model = MODEL
    device = build_example_device(DeviceProbs(*p), -1.0, 1.0)
    if variant != "bang-bang":
        model = _measure_feedback_model()
    grid = TimeGrid(2.0, steps)
    for reps in (1, 7, 150):
        drawn = set(sample_scenario(device, 4, np.arange(reps)).tolist())
        if any(not drawn.intersection(entry["scenarios"])
               for entry in device.flow_classes().values()):
            with pytest.raises(ValueError, match="no samples"):
                verify_consistency(model, device, grid, reps=reps, seed=4)
            continue
        rep = verify_consistency(model, device, grid, reps=reps, seed=4)
        ref = _ref_verify_consistency(model, device, grid, reps, 4)
        assert [c.label for c in rep.classes] == list(ref)
        for cl in rep.classes:
            w2, count, table = ref[cl.label]
            assert np.array_equal(cl.w2, w2), (reps, cl.label)
            assert cl.count == count
            assert np.array_equal(cl.table, table)


@pytest.mark.parametrize("variant",
                         ["bang-bang", "measure-feedback", "mean-reverting"])
@pytest.mark.parametrize("steps", STEPS)
def test_representative_collectors_match_stored_euler(steps, variant):
    model, strategy, max_iters, tol = MODEL, 1.0, 3, 1e-12
    if variant == "measure-feedback":
        model, strategy = _measure_feedback_model(), 0.5
    elif variant == "mean-reverting":
        model, max_iters, tol = _mean_reverting_model(0.5), 40, 1e-10
    grid = TimeGrid(2.0, steps)
    flow = device_flow(0.3, -1.0, 1.0)
    for reps, offset in ((1, 0), (9, 4)):
        x = simulate_representative(model, grid, flow, strategy, reps, seed=6,
                                    rep_offset=offset)
        x0, w = _ref_representative_noise(model, grid, 6,
                                          offset + np.arange(reps))
        ref = _ref_step_against_flow(model, grid, x0, w, strategy,
                                     _ref_flow_views(flow, grid))
        assert np.array_equal(x, ref), (reps, offset)

    res = mckean_vlasov_fixed_point(model, grid, strategy, particles=150,
                                    max_iters=max_iters, tol=tol, seed=6)
    mean, var, distances = _ref_mckean_vlasov(model, grid, strategy, 150,
                                              max_iters, tol, 6)
    assert np.array_equal(res.times, grid.times)
    assert np.array_equal(res.mean, mean)
    assert np.array_equal(res.var, var)
    assert res.distances == distances
    if variant == "mean-reverting":
        assert res.converged, res.distances


# (max_iters, the iterate the iteration converges at, or None): passes
# that end at max_iters after 1, 2, 3 or 4 iterates (an odd one and an
# even one without convergence), and convergence at the first iterate, at
# an odd one and at an even one, which stops inside a pass or at its end
PASS_STOPS = [(1, None), (2, None), (3, None), (4, None), (5, None),
              (10, 1), (10, 5), (10, 6)]


@pytest.mark.parametrize("max_iters, stop_at", PASS_STOPS)
def test_mckean_vlasov_pass_boundaries(max_iters, stop_at):
    model, grid = _mean_reverting_model(0.5), TimeGrid(2.0, 20)
    tol = 1e-300
    if stop_at is not None:
        # the first tolerance above the step to iterate stop_at
        steps = _ref_mckean_vlasov(model, grid, 1.0, 150, max_iters, tol,
                                   6)[2]
        tol = np.nextafter(steps[stop_at - 1], np.inf)
        assert min(steps[:stop_at - 1], default=np.inf) >= tol
    res = mckean_vlasov_fixed_point(model, grid, 1.0, particles=150,
                                    max_iters=max_iters, tol=tol, seed=6)
    mean, var, distances = _ref_mckean_vlasov(model, grid, 1.0, 150,
                                              max_iters, tol, 6)
    assert np.array_equal(res.mean, mean)
    assert np.array_equal(res.var, var)
    assert res.distances == distances
    assert res.iterations == len(distances) == (stop_at or max_iters)
    assert res.converged == (stop_at is not None)


def test_mckean_vlasov_walks_noise_once_per_two_iterates(monkeypatch):
    """One walk of the noise advances two new Picard iterates: a run of k
    iterations consumes ceil(k / 2) walks of steps + 1 rows."""
    consumed = []
    walk = _pathgen_py.brownian_rows

    def counted(keys, steps, horizon):
        for row in walk(keys, steps, horizon):
            consumed.append(row.size)
            yield row

    monkeypatch.setattr(_pathgen_py, "brownian_rows", counted)
    grid, particles = TimeGrid(2.0, 20), 200

    def walks(model, max_iters, tol):
        consumed.clear()
        res = mckean_vlasov_fixed_point(model, grid, 1.0, particles,
                                        max_iters, tol, seed=4)
        assert set(consumed) == {particles}
        assert len(consumed) % (grid.steps + 1) == 0
        return res, len(consumed) // (grid.steps + 1)

    # the shipped model stops at iterate 2, whose step is exactly 0
    res, n = walks(MODEL, 10, 1e-12)
    assert (res.iterations, res.converged, n) == (2, True, 1)
    model = _mean_reverting_model(2.0)
    seen = set()
    for max_iters, tol in ((1, 1e-12), (4, 1e-12), (7, 1e-12), (40, 1e-3),
                           (40, 1e-6), (40, 1e-9), (40, 1e-12)):
        res, n = walks(model, max_iters, tol)
        assert n == -(-res.iterations // 2), (max_iters, tol)
        seen.add((res.converged, res.iterations % 2))
    # converged and not, at odd and even iteration counts
    assert seen == {(c, k) for c in (True, False) for k in (0, 1)}, seen


# --- memory ------------------------------------------------------------------

PEAK_BOUND = 32 * 2**20


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_gap_peak_memory():
    device = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0), -1.0, 1.0)
    peak = _traced_peak(lambda: cce_gap_nplayer(
        EULER, device, N=200, reps=200, seed=0, grid=TimeGrid(2.0, 200),
        workers=1))
    assert peak < PEAK_BOUND, f"peak {peak / 2**20:.1f} MiB"


def test_streamed_poc_peak_memory():
    device = build_example_device(DeviceProbs(1, 0, 0, 0), -1.0, 1.0)
    peak = _traced_peak(lambda: poc_curve(MODEL, device, [400], reps=100,
                                          seed=0, workers=1))
    assert peak < PEAK_BOUND, f"peak {peak / 2**20:.1f} MiB"


def test_streamed_mfgap_peak_memory():
    device = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0), -1.0, 1.0)
    peak = _traced_peak(lambda: mean_field_gap_mc(
        EULER, device, reps=4000, seed=0, grid=TimeGrid(2.0, 200), workers=1))
    assert peak < PEAK_BOUND, f"peak {peak / 2**20:.1f} MiB"


def test_streamed_consistency_peak_memory():
    device = build_example_device(DeviceProbs(0.5, 0, 0, 0.5), -1.0, 1.0)
    peak = _traced_peak(lambda: verify_consistency(
        MODEL, device, TimeGrid(2.0, 200), reps=40_000, seed=0))
    assert peak < PEAK_BOUND, f"peak {peak / 2**20:.1f} MiB"


def test_mckean_vlasov_peak_memory():
    peak = _traced_peak(lambda: mckean_vlasov_fixed_point(
        MODEL, TimeGrid(2.0, 200), 1.0, particles=10_000, max_iters=10,
        tol=0.02, seed=0))
    assert peak < PEAK_BOUND, f"peak {peak / 2**20:.1f} MiB"


def test_exact_terminal_nplayer_chunk_peak_memory():
    # the benchmark's chunk: the ensemble's (N, R) actions, initial states,
    # W(T), its increment and the stepped states at the Euler step, built in
    # place and player-major, about 5.7 arrays (9.3 when its draws, keys and
    # states were copied and transposed; 6.7 when W(0) was a zeros array)
    device = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0), -1.0, 1.0)
    N, R = 200, 500
    args = (MODEL, device, TimeGrid(2.0, 1), N, 0,
            default_deviation_grid(MODEL), 0, R)
    eq._nplayer_chunk(args)
    peak = _traced_peak(lambda: eq._nplayer_chunk(args))
    assert peak <= 6 * N * R * 8, f"{peak / (N * R * 8):.2f} arrays"


@pytest.mark.parametrize("p", [(1, 0, 0, 0), (0.5, 0.3, 0.2, 0)])
def test_poc_chunk_peak_memory(p):
    # one worker's chunk of the benchmark's poc: the walk, the state, the
    # Euler step's two arrays, the sort's and the gathers' arrays, all made
    # once, about 24.2 (max(Ns), R) arrays with one class drawn or two
    # (28.2 when each step made new ones)
    device = build_example_device(DeviceProbs(*p), -1.0, 1.0)
    grid, Ns, R = TimeGrid(2.0, 200), [50, 100, 200, 400], 50
    table = np.stack([entry["flow"].quantile_table(grid.times)
                      for entry in device.flow_classes().values()], axis=-1)
    args = (MODEL, device, grid, Ns, 0, table, 0, R)
    eq._poc_chunk(args)
    peak = _traced_peak(lambda: eq._poc_chunk(args))
    assert peak <= 25 * Ns[-1] * R * 8, f"{peak / (Ns[-1] * R * 8):.2f} arrays"


def test_null_band_peak_memory():
    flow = device_flow(0.5, -1.0, 1.0)
    times = TimeGrid(2.0, 200).times
    peak = _traced_peak(lambda: null_band(flow, times, 10_000, seed=0))
    assert peak < PEAK_BOUND, f"peak {peak / 2**20:.1f} MiB"


def test_null_band_peak_memory_at_count_40000():
    flow = device_flow(0.5, -1.0, 1.0)
    times = TimeGrid(2.0, 200).times
    peak = _traced_peak(lambda: null_band(flow, times, 40_000))
    assert peak < PEAK_BOUND, f"peak {peak / 2**20:.1f} MiB"


def _chunk_peaks(monkeypatch, budget, run):
    """(traced peak, replications, numbers counted per replication) of each
    chunk that ``run`` maps, with ``CHUNK_ELEMS = budget``."""
    plan, chunks, counts = eq._jobs, [], []

    def counted_jobs(reps, pieces, *shapes, **named):
        jobs = plan(reps, pieces, *shapes, **named)
        counts.extend(eq._rep_numbers(*shapes, **named) for _ in jobs)
        return jobs

    def traced_map(fn, jobs, workers):
        out = []
        for job in jobs:
            chunks.append((_traced_peak(lambda: out.append(fn(job))), job[-1]))
        return out

    monkeypatch.setattr(eq, "CHUNK_ELEMS", budget)
    monkeypatch.setattr(eq, "_jobs", counted_jobs)
    monkeypatch.setattr(eq, "_map_jobs", traced_map)
    run()
    assert len(counts) == len(chunks)
    return [chunk + (count,) for chunk, count in zip(chunks, counts)]


def _assert_inside_the_budget(chunks, budget):
    """With a budget of CHUNK_ELEMS numbers, each chunk peaks below that
    many float64 values, plus 128 KiB for numpy's ufunc buffers and the
    chunk's few small arrays.  The count of the chunk's replications
    (``eq._rep_numbers``) is tight: the peak is below it plus the same
    slack, and at least a third of it."""
    peaks = [peak for peak, _, _ in chunks]
    assert max(peaks) < 8 * budget + 2**17, f"peaks {peaks}"
    for peak, reps, count in chunks:
        assert peak <= 8 * count * reps + 2**17, (peak, reps, count)
        assert 8 * count * reps <= 3 * peak, (peak, reps, count)


def test_exact_terminal_gaps_stay_inside_the_chunk_budget(monkeypatch):
    """The gaps that take one step across [0, T]."""
    budget = 1_000_000
    device = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0), -1.0, 1.0)

    def run():
        cce_gap_nplayer(MODEL, device, N=20_000, reps=30, seed=0)
        cce_gap_nplayer(MODEL, device, N=2, reps=5_000, seed=0,
                        deviations=201)
        mean_field_gap_mc(MODEL, device, reps=5_000, seed=0, deviations=201)

    chunks = _chunk_peaks(monkeypatch, budget, run)
    assert len(chunks) == 10 + 11 + 11
    _assert_inside_the_budget(chunks, budget)


def test_euler_gaps_stay_inside_the_chunk_budget(monkeypatch):
    """The gaps stepped along the grid: where the (G, R) deviation state
    outweighs the N players, N = 2 with 401 candidates; the deviator beside
    an ensemble of N = 100; and, under a drift that reads the measure, the
    (1 + G, N, R) state of whole deviated ensembles."""
    budget = 1_000_000
    device = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0), -1.0, 1.0)
    grid = TimeGrid(2.0, 200)
    measured = dataclasses.replace(MODEL,
                                   drift=functools.partial(MODEL.drift))

    def run():
        cce_gap_nplayer(EULER, device, N=2, reps=700, seed=0,
                        deviations=401, grid=grid)
        cce_gap_nplayer(EULER, device, N=100, reps=400, seed=0, grid=grid)
        mean_field_gap_mc(EULER, device, reps=2_000, seed=0, deviations=201,
                          grid=grid)
        cce_gap_nplayer(measured, device, N=100, reps=200, seed=0,
                        grid=TimeGrid(2.0, 10))

    chunks = _chunk_peaks(monkeypatch, budget, run)
    assert len(chunks) == 3 + 2 + 5 + 3
    _assert_inside_the_budget(chunks, budget)


def test_poc_stays_inside_the_chunk_budget(monkeypatch):
    """One ensemble of the largest N, sorted at every grid point for each
    N, with one curve per N."""
    budget = 1_000_000
    device = build_example_device(DeviceProbs(1, 0, 0, 0), -1.0, 1.0)
    chunks = _chunk_peaks(monkeypatch, budget, lambda: poc_curve(
        MODEL, device, [50, 100, 200, 400], reps=150, seed=0, workers=1))
    assert len(chunks) == 3
    _assert_inside_the_budget(chunks, budget)


def test_grid_chunks_cap_the_rows_of_their_walked_players():
    """Along a grid a chunk holds at most ROW_ELEMS entries per row of its
    walked players; one step across [0, T] is sized by memory alone, and a
    player too wide for either bound still gets one replication a chunk."""
    shapes = (200 + 1 + 21, 200 + 1, 21)    # the deviator beside N = 200
    cap = eq.ROW_ELEMS // (200 + 1)
    assert eq._jobs(2000, 1, 200, *shapes) == [
        (off, min(cap, 2000 - off)) for off in range(0, 2000, cap)]
    assert eq._jobs(2000, 1, 1, *shapes) == [(0, 2000)]
    assert eq._jobs(3, 1, 200, 10**6, 10**6) == [(0, 1), (1, 1), (2, 1)]
