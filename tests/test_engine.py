import dataclasses
import functools

import numpy as np
import pytest

from ccemfg import _pathgen_py, rng
from ccemfg.engine import (SimulationError, TimeGrid, empirical_measure,
                           ensemble_noise, euler_step, initial_states,
                           mckean_vlasov_fixed_point, noise_keys,
                           simulate_ensemble, simulate_representative, stream)
from ccemfg.flows import GaussianMixtureFlow, device_flow
from ccemfg.model import (ActionBox, GaussianInitial, MeasureView, PointMass,
                          build_bang_bang_model)
from reference_paths import brownian_paths

MODEL = build_bang_bang_model(-1.0, 1.0, 1.0, 2.0)


def test_time_grid():
    g = TimeGrid(2.0, 200)
    assert g.dt == 0.01 and g.times.shape == (201,)
    assert g.times[0] == 0.0 and g.times[-1] == 2.0
    with pytest.raises(ValueError):
        TimeGrid(2.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 10)


@pytest.mark.parametrize("horizon, steps", [
    (np.inf, 10), (np.nan, 10), (2.0, 2.5), (2.0, 2.0), (2.0, "10")])
def test_time_grid_rejects_a_bad_horizon_or_step_count(horizon, steps):
    # an infinite horizon and a fractional step count were accepted; the
    # latter failed later, as a TypeError inside range
    with pytest.raises(ValueError):
        TimeGrid(horizon, steps)


def test_time_grid_keeps_a_numpy_step_count_as_an_int():
    g = TimeGrid(2.0, np.int64(20))
    assert type(g.steps) is int and g == TimeGrid(2.0, 20)


def test_all_b_terminal_mean():
    g = TimeGrid(2.0, 50)
    x = simulate_ensemble(MODEL, g, 1.0, N=10**4, reps=1, seed=0)
    mean_T = x[0, :, -1].mean()
    assert abs(mean_T - 2.0) < 3 * np.sqrt(2.0 / 10**4)
    assert abs(x[0, :, -1].var() - 2.0) < 0.15


def _ref_ensemble(model, grid, actions, N, R, seed, offset):
    """Row-major Euler paths (R, N, steps+1) from stored Brownian paths,
    against the empirical measure with the players added in order."""
    rep_ids, players = offset + np.arange(R), np.arange(N)
    w = brownian_paths(noise_keys(seed, rep_ids, players).T,
                       grid.steps, grid.horizon)
    x = np.empty((R, N, grid.steps + 1))
    x[..., 0] = initial_states(model, seed, rep_ids, players).T
    for i, t in enumerate(grid.times[:-1]):
        xi = x[..., i]
        mv = MeasureView(
            mean=np.add.accumulate(xi, axis=-1)[..., -1:] / N,
            second_moment=np.add.accumulate(xi * xi, axis=-1)[..., -1:] / N)
        drift = np.asarray(model.drift(t, xi, mv, actions))
        x[..., i + 1] = xi + drift * grid.dt + (w[..., i + 1] - w[..., i])
    return x


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("N", [2, 10, 40])
def test_stored_and_streamed_ensembles_see_the_same_measure(N, R):
    """The collected stream adds the players in order, so a drift that
    reads the empirical measure steps it to the same bits as stored paths
    against an in-order measure."""
    model = dataclasses.replace(
        MODEL, initial_law=GaussianInitial(0.0, 1.0),
        drift=lambda t, x, m, a: a + 0.7 * m.mean - 0.3 * m.second_moment)
    grid = TimeGrid(2.0, 20)
    seed, offset = 5, 2
    actions = np.where(np.arange(R * N).reshape(R, N) % 2, -1.0, 1.0)
    x = simulate_ensemble(model, grid, actions, N, R, seed, rep_offset=offset)
    ref = _ref_ensemble(model, grid, actions, N, R, seed, offset)
    assert np.array_equal(x, ref)


def test_initial_states_draw_only_for_a_law_that_reads_them(monkeypatch):
    from ccemfg import rng
    from ccemfg.model import PointMass

    calls = []
    uniforms = rng.uniforms
    monkeypatch.setattr(rng, "uniforms",
                        lambda *args: calls.append(1) or uniforms(*args))
    rep_ids, players = np.arange(3, 9), np.arange(5)
    point = dataclasses.replace(MODEL, initial_law=PointMass(0.5))
    x = initial_states(point, 7, rep_ids, players).T
    assert x.shape == (6, 5) and np.all(x == 0.5)
    assert calls == []
    # a Gaussian start maps draw 0 of each (replication, player) stream
    law = GaussianInitial(1.0, 2.0)
    x = initial_states(dataclasses.replace(MODEL, initial_law=law), 7,
                       rep_ids, players).T
    keys = rng.stream_keys(7, rng.TAG_INIT, rep_ids[:, None], players[None, :])
    assert np.array_equal(x, law.from_uniform(uniforms(keys, 0)))
    assert len(calls) == 1


def test_zero_drift_terminal_mean():
    zero = dataclasses.replace(MODEL,
                               drift=lambda t, x, m, a: np.zeros(np.shape(x)))
    g = TimeGrid(2.0, 50)
    x = simulate_ensemble(zero, g, 0.0, N=4000, reps=1, seed=1)
    assert abs(x[0, :, -1].mean()) < 3 * np.sqrt(2.0 / 4000)


def test_single_player_matches_representative_bitwise():
    g = TimeGrid(2.0, 40)
    ens = simulate_ensemble(MODEL, g, 1.0, N=1, reps=16, seed=3)[:, 0, :]
    flow = device_flow(1.0, -1.0, 1.0)
    rep = simulate_representative(MODEL, g, flow, 1.0, reps=16, seed=3)
    assert np.array_equal(ens, rep)


def test_determinism_and_chunk_invariance():
    g = TimeGrid(2.0, 30)
    full = simulate_ensemble(MODEL, g, 0.5, N=7, reps=10, seed=9)
    again = simulate_ensemble(MODEL, g, 0.5, N=7, reps=10, seed=9)
    assert np.array_equal(full, again)
    first = simulate_ensemble(MODEL, g, 0.5, N=7, reps=6, seed=9)
    second = simulate_ensemble(MODEL, g, 0.5, N=7, reps=4, seed=9, rep_offset=6)
    assert np.array_equal(full, np.concatenate([first, second], axis=0))


def test_halve_dt_keeps_terminal_state():
    coarse = simulate_ensemble(MODEL, TimeGrid(2.0, 50), 1.0, N=5, reps=8, seed=4)
    fine = simulate_ensemble(MODEL, TimeGrid(2.0, 100), 1.0, N=5, reps=8, seed=4)
    # constant drift integrates exactly and the Brownian terminal value is
    # dt-independent by construction
    assert np.max(np.abs(coarse[..., -1] - fine[..., -1])) < 1e-10


def test_pathwise_moment_bound():
    g = TimeGrid(2.0, 50)
    x = simulate_ensemble(MODEL, g, 1.0, N=50, reps=20, seed=5)
    w = x - 1.0 * g.times            # recover the driving noise
    bound = 0.0 + 2.0 * 1.0 + np.max(np.abs(w), axis=-1)
    assert np.all(np.max(np.abs(x), axis=-1) <= bound + 1e-12)
    # second-moment stability across N
    sup2_small = np.mean(np.max(simulate_ensemble(MODEL, g, 1.0, 10, 20, 6)**2,
                                axis=-1))
    sup2_big = np.mean(np.max(simulate_ensemble(MODEL, g, 1.0, 1000, 2, 6)**2,
                              axis=-1))
    assert np.isfinite(sup2_small) and np.isfinite(sup2_big)
    assert sup2_big < 10 * sup2_small


def test_action_outside_box_rejected():
    g = TimeGrid(2.0, 10)
    with pytest.raises(ValueError, match="admissible"):
        simulate_ensemble(MODEL, g, 1.5, N=3, reps=2, seed=0)


def test_stream_checks_constant_actions_once(monkeypatch):
    """An array of actions is constant over the run: one walk checks it
    once, and an action outside the box still fails at step 0."""
    calls = []
    contains = ActionBox.contains

    def counting(self, a, tol=1e-12):
        calls.append(np.shape(a))
        return contains(self, a, tol)

    monkeypatch.setattr(ActionBox, "contains", counting)
    g = TimeGrid(2.0, 10)

    def walk(actions):
        x0, rows = ensemble_noise(MODEL, g, 0, np.arange(2), 3)
        return list(stream(MODEL, g, x0, rows, actions, empirical_measure(3)))

    assert len(walk(np.full((3, 2), 0.5))) == 11 and calls == [(3, 2)]
    with pytest.raises(ValueError, match="admissible box at step 0"):
        walk(np.full((3, 2), 1.5))


# (R, N, steps): R and N * R mostly not multiples of 8, the vector width
# that numpy's AVX-512 float64 loops step by; the last case draws about 2.5M
# normals, so the inverse CDF's tail branches see many lengths as well
SHARED_NOISE_SHAPES = [(1, 2, 1), (5, 3, 7), (13, 11, 64), (8, 50, 200),
                       (37, 7, 20), (1001, 39, 64)]


@pytest.mark.bit_identity
@pytest.mark.parametrize("R, N, steps", SHARED_NOISE_SHAPES)
def test_player_0_walk_is_row_0_of_the_ensemble_walk(R, N, steps):
    """The N-player gap steps player 0's (1 + G, R) state on player 0's own
    walk, the one-player ensemble, in place of row 0 of the ensemble's
    walk, so the two must agree bit for bit at every row length, initial
    states included."""
    model = dataclasses.replace(MODEL, initial_law=GaussianInitial(0.0, 1.0))
    g = TimeGrid(2.0, steps)
    ids = 3 + np.arange(R)
    x0, rows = ensemble_noise(model, g, 5, ids, N)
    own_x0, own_rows = ensemble_noise(model, g, 5, ids, 1)
    assert np.array_equal(own_x0, x0[:1])
    count = 0
    for row, own in zip(rows, own_rows, strict=True):
        assert row.shape == (N, R) and own.shape == (1, R)
        assert np.array_equal(own, row[:1]), count
        count += 1
    assert count == steps + 1


def _ref_ensemble_noise(model, grid, seed, rep_ids, N):
    """ensemble_noise built replication-major: (R, N) keys and initial
    states, transposed and copied."""
    rep_ids, players = np.asarray(rep_ids)[:, None], np.arange(N)[None, :]
    keys = rng.stream_keys(seed, rng.TAG_NOISE, rep_ids, players)
    init = rng.stream_keys(seed, rng.TAG_INIT, rep_ids, players)
    x0 = model.initial_law.sample(lambda: rng.uniforms(init, 0), keys.shape)
    return (keys, np.ascontiguousarray(x0.T),
            _pathgen_py.brownian_rows(np.ascontiguousarray(keys.T),
                                      grid.steps, grid.horizon))


@pytest.mark.bit_identity
@pytest.mark.parametrize("law", [PointMass(0.5), GaussianInitial(0.3, 1.2)])
def test_ensemble_noise_matches_the_replication_major_build(law):
    model = dataclasses.replace(MODEL, initial_law=law)
    g = TimeGrid(2.0, 7)
    ids, N = 11 + np.arange(30), 9
    keys, ref_x0, ref_rows = _ref_ensemble_noise(model, g, 4, ids, N)
    assert np.array_equal(noise_keys(4, ids, np.arange(N)).T, keys)
    assert np.array_equal(initial_states(model, 4, ids, np.arange(N)),
                          ref_x0)
    x0, rows = ensemble_noise(model, g, 4, ids, N)
    assert x0.flags.c_contiguous and np.array_equal(x0, ref_x0)
    for row, ref in zip(rows, ref_rows, strict=True):
        assert np.array_equal(row, ref)


@pytest.mark.parametrize("law", [PointMass(0.5), GaussianInitial(0.3, 1.2)])
def test_draws_come_back_player_major_and_uncopied(law, monkeypatch):
    import ccemfg.engine as engine

    model = dataclasses.replace(MODEL, initial_law=law)
    ids, N = 11 + np.arange(30), 9
    for draws in (noise_keys(4, ids, np.arange(N)),
                  initial_states(model, 4, ids, np.arange(N))):
        assert draws.shape == (N, ids.size) and draws.flags.c_contiguous
    built = []
    monkeypatch.setattr(engine, "initial_states", lambda *args: built.append(
        initial_states(*args)) or built[-1])
    x0, _ = ensemble_noise(model, TimeGrid(2.0, 7), 4, ids, N)
    assert len(built) == 1 and x0 is built[0]


_DRIFTS = {"action": MODEL.drift,
           "measure": lambda t, x, m, a: a + 0.7 * m.mean - 0.3 * m.second_moment,
           "state": lambda t, x, m, a: x}


@pytest.mark.bit_identity
@pytest.mark.parametrize("drift", list(_DRIFTS))
def test_euler_step_in_place_equals_the_copying_step(drift):
    """``x += drift * dt; x += dw`` in the states' own buffer adds the terms
    of the copying step, ``drift * dt + x``, then ``+ dw``: the sums
    commute, so the bits agree.  The "state" drift is ``x`` itself, which
    the step overwrites."""
    model = dataclasses.replace(MODEL, drift=_DRIFTS[drift])
    gen = np.random.default_rng(8)
    x = 3.0 * gen.standard_normal((13, 37))
    a = gen.uniform(-1.0, 1.0, x.shape)
    dw = 0.4 * gen.standard_normal(x.shape)
    mv = empirical_measure(13)(0, x)
    want = euler_step(model, 4, 0.3, 2.0 / 7, x, mv, a, dw)
    y, scratch = x.copy(), np.empty_like(x)
    got = euler_step(model, 4, 0.3, 2.0 / 7, y, mv, a, dw, y, scratch)
    assert got is y and np.array_equal(got, want)
    y = x.copy()
    y[2, 5] = np.inf
    with pytest.raises(SimulationError, match="step 4"):
        euler_step(model, 4, 0.3, 2.0 / 7, y, mv, a, dw, y, scratch)


def test_nonfinite_state_aborts_with_step():
    g = TimeGrid(2.0, 10)

    def exploding(t, x, m, a):
        return np.where(t > 0.5, np.inf, 0.0) * np.ones(np.shape(x))

    bad = dataclasses.replace(MODEL, drift=exploding)
    with pytest.raises(SimulationError) as err:
        simulate_ensemble(bad, g, 0.0, N=3, reps=2, seed=0)
    assert err.value.step == 3          # first grid time past 0.5 is t=0.6


_FLOW = device_flow(1.0, -1.0, 1.0)
_REJECTED_RUNS = {
    "ensemble-horizon": ("grid.horizon", lambda: simulate_ensemble(
        MODEL, TimeGrid(3.0, 10), 1.0, N=3, reps=2, seed=0)),
    "ensemble-reps": ("reps", lambda: simulate_ensemble(
        MODEL, TimeGrid(2.0, 10), 1.0, N=3, reps=0, seed=0)),
    "ensemble-N": ("N must", lambda: simulate_ensemble(
        MODEL, TimeGrid(2.0, 10), 1.0, N=0, reps=2, seed=0)),
    "representative-horizon": ("grid.horizon", lambda: simulate_representative(
        MODEL, TimeGrid(3.0, 10), _FLOW, 1.0, reps=2, seed=0)),
    "representative-reps": ("reps", lambda: simulate_representative(
        MODEL, TimeGrid(2.0, 10), _FLOW, 1.0, reps=0, seed=0)),
}


@pytest.mark.parametrize("case", list(_REJECTED_RUNS))
def test_stored_path_entry_points_check_their_run(case):
    match, run = _REJECTED_RUNS[case]
    with pytest.raises(ValueError, match=match):
        run()


def test_representative_terminal_law():
    g = TimeGrid(2.0, 50)
    flow = device_flow(1.0, -1.0, 1.0)
    x = simulate_representative(MODEL, g, flow, 1.0, reps=4000, seed=7)
    term = x[:, -1]
    assert abs(term.mean() - 2.0) < 3 * np.sqrt(2.0 / 4000)
    assert abs(term.var() - 2.0) < 0.2
    # measure-free drift: the supplied flow is irrelevant
    other = simulate_representative(MODEL, g, device_flow(0.0, -1.0, 1.0),
                                    1.0, reps=4000, seed=7)
    assert np.array_equal(x, other)


def test_representative_brownian_increments():
    zero = dataclasses.replace(MODEL,
                               drift=lambda t, x, m, a: np.zeros(np.shape(x)))
    g = TimeGrid(2.0, 40)
    x = simulate_representative(zero, g, device_flow(1.0, -1, 1), 0.0,
                                reps=500, seed=8)
    inc = np.diff(x, axis=1)
    assert abs(inc.var() - g.dt) < 0.1 * g.dt


def test_mckean_vlasov_constant_strategies():
    g = TimeGrid(2.0, 100)
    res = mckean_vlasov_fixed_point(MODEL, g, 1.0, particles=10**4,
                                    max_iters=10, tol=0.02, seed=0)
    assert res.converged and res.iterations <= 10
    assert np.array_equal(res.times, g.times)
    errs = np.abs(res.mean - g.times)[::10]
    assert max(errs) < 0.05
    assert abs(res.var[-1] - 2.0) / 2.0 < 0.1

    res_a = mckean_vlasov_fixed_point(MODEL, g, -1.0, particles=4000,
                                      max_iters=10, tol=0.02, seed=0)
    assert res_a.converged
    assert abs(res_a.mean[-1] + 2.0) < 0.1


@pytest.mark.parametrize("max_iters, tol", [(1, 1e-3), (2, 1e-3), (3, 1e-3),
                                            (3, 1e3)])
def test_mckean_vlasov_measure_free_drift_skips_the_second_iterate(max_iters,
                                                                    tol):
    """The shipped drift steps iterate 1 alone and records iterate 2 as
    iterate 1 with a W2 step of 0.0; an opaque copy of the same drift runs
    the full Picard stack.  The results agree bit for bit, and a ``tol``
    that iterate 1 meets stops both at one iterate."""
    opaque = dataclasses.replace(MODEL, drift=functools.partial(MODEL.drift))
    g = TimeGrid(2.0, 20)
    got, want = (mckean_vlasov_fixed_point(m, g, 1.0, particles=300,
                                           max_iters=max_iters, tol=tol,
                                           seed=4)
                 for m in (MODEL, opaque))
    for name in ("times", "mean", "var"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.distances == want.distances
    assert (got.converged, got.iterations) == (want.converged,
                                               want.iterations)
    if tol < 1.0 and max_iters > 1:
        assert got.distances[1] == 0.0 and got.iterations == 2
    assert got.iterations == min(max_iters, 1 if tol > 1.0 else 2)


def test_mckean_vlasov_zero_drift():
    zero = dataclasses.replace(MODEL,
                               drift=lambda t, x, m, a: np.zeros(np.shape(x)),
                               horizon=1.0)
    g = TimeGrid(1.0, 50)
    res = mckean_vlasov_fixed_point(zero, g, 0.0, particles=4000,
                                    max_iters=10, tol=0.05, seed=1)
    assert res.converged
    assert abs(res.mean[-1]) < 0.1
    assert abs(res.var[-1] - 1.0) < 0.15


def test_mckean_vlasov_flags_nonconvergence():
    # measure-coupled drift: successive Picard flows keep moving, so a tiny
    # tolerance cannot be reached in two sweeps (the measure-free shipped
    # model would converge exactly on the second)
    coupled = dataclasses.replace(
        MODEL, drift=lambda t, x, m, a: -2.0 * np.broadcast_to(
            np.asarray(m.mean), np.shape(x)))
    g = TimeGrid(2.0, 20)
    res = mckean_vlasov_fixed_point(coupled, g, 1.0, particles=200,
                                    max_iters=2, tol=1e-12, seed=2)
    assert not res.converged and res.iterations == 2
    with pytest.raises(ValueError):
        mckean_vlasov_fixed_point(MODEL, g, 1.0, particles=10,
                                  max_iters=2, tol=0.1, seed=2)


def test_mckean_vlasov_rejects_zero_iterations():
    with pytest.raises(ValueError, match="max_iters"):
        mckean_vlasov_fixed_point(MODEL, TimeGrid(2.0, 10), 1.0,
                                  particles=200, max_iters=0, tol=0.1,
                                  seed=0)


def test_mckean_vlasov_rejects_grid_horizon_mismatch():
    with pytest.raises(ValueError, match="grid.horizon"):
        mckean_vlasov_fixed_point(MODEL, TimeGrid(3.0, 10), 1.0,
                                  particles=200, max_iters=2, tol=0.1,
                                  seed=0)
