import concurrent.futures
import dataclasses
import functools

import numpy as np
import pytest

from ccemfg.analytic import (DeviceProbs, consistency_weights,
                             finite_n_gap_oracle)
from ccemfg.correlation import (CorrelationDevice, Scenario,
                                build_example_device, null_band,
                                null_expectation, verify_consistency)
from ccemfg.engine import (SimulationError, TimeGrid,
                           mckean_vlasov_fixed_point)
from ccemfg.flows import device_flow
from ccemfg.equilibrium import (cce_gap_nplayer, mean_field_gap_mc, poc_curve,
                                recommended_actions)
from ccemfg.model import GaussianInitial, PointMass, build_bang_bang_model

MODEL = build_bang_bang_model(-1.0, 1.0, 1.0, 2.0)
# the same game with its running cost wrapped, which hides from
# exact_terminal that the running cost is zero: the gap estimators then step
# it along the grid.  The drift stays the action, so drift_reads_measure
# still lets the N-player gap re-simulate the deviator alone (a partial
# pickles, so worker pools can run it)
EULER = dataclasses.replace(MODEL,
                            running_cost=functools.partial(MODEL.running_cost))
WHITE = DeviceProbs(1, 0, 0, 0)
BLACK = DeviceProbs(0.5, 0.3, 0.2, 0.0)


def test_recommended_actions_distribution():
    dev = build_example_device(BLACK, -1.0, 1.0)
    actions, cls = recommended_actions(dev, 0, np.arange(20000), 10)
    assert set(np.unique(actions)) <= {-1.0, 1.0}
    # flow-class frequencies ~ column masses (0.7, 0.3)
    freq = np.bincount(cls, minlength=2) / cls.size
    assert abs(freq[0] - 0.7) < 0.01 and abs(freq[1] - 0.3) < 0.01
    # conditional share of +1 within class mu1 is a1 = 5/7
    share = np.mean(actions[cls == 0] == 1.0)
    assert abs(share - 5 / 7) < 0.01
    assert np.all(actions[cls == 1] == 1.0)          # a2 = 1
    # chunk invariance
    a2, c2 = recommended_actions(dev, 0, np.arange(100, 200), 10)
    assert np.array_equal(a2, actions[100:200])
    assert np.array_equal(c2, cls[100:200])


def _ref_recommended_actions(device, seed, rep_ids, N):
    """The per-class masked gather and ``searchsorted`` that
    ``recommended_actions`` replaced."""
    from ccemfg import rng
    from ccemfg.correlation import sample_scenario

    rep_ids = np.asarray(rep_ids)
    classes = device.flow_classes()
    labels = list(classes)
    scen_to_class = np.empty(len(device.scenarios), dtype=np.int64)
    for ci, lab in enumerate(labels):
        for si in classes[lab]["scenarios"]:
            scen_to_class[si] = ci
    cls = scen_to_class[sample_scenario(device, seed, rep_ids)]
    rec_keys = rng.stream_keys(seed, rng.TAG_RECOMMEND, rep_ids)
    u = rng.uniforms(rec_keys[:, None], np.arange(N)[None, :])
    actions = np.empty((rep_ids.size, N))
    for ci, lab in enumerate(labels):
        mask = cls == ci
        if not np.any(mask):
            continue
        scens = classes[lab]["scenarios"]
        probs = np.array([device.scenarios[s].probability for s in scens])
        probs = probs / probs.sum()
        values = np.array([float(device.scenarios[s].strategy)
                           for s in scens])
        cum = np.cumsum(probs)
        cum[-1] = 1.0 + 1e-15
        actions[mask] = values[np.searchsorted(cum, u[mask], side="right")]
    return actions, cls


def _four_scenarios_one_flow():
    flow = build_example_device(WHITE, -1.0, 1.0).scenarios[0].flow
    return CorrelationDevice(scenarios=tuple(
        Scenario(probability=p, strategy=a, flow=flow)
        for p, a in [(0.1, -1.0), (0.0, -0.5), (0.3, 0.25), (0.6, 1.0)]))


@pytest.mark.parametrize("device", [
    build_example_device(WHITE, -1.0, 1.0),                      # 1 scenario
    build_example_device(DeviceProbs(0.5, 0, 0, 0.5), -1.0, 1.0),  # 2
    build_example_device(BLACK, -1.0, 1.0),                      # 3
    build_example_device(DeviceProbs(0.4, 0.1, 0.2, 0.3), -1.0, 1.0),
    _four_scenarios_one_flow()], ids=["1", "2", "3", "4-in-2", "4-in-1"])
def test_recommended_actions_match_the_masked_searchsorted(device):
    for rep_ids, N in [(np.arange(1), 1), (np.arange(5, 9), 3),
                       (np.arange(2000), 40)]:
        got = recommended_actions(device, 7, rep_ids, N)
        ref = _ref_recommended_actions(device, 7, rep_ids, N)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])


def test_nplayer_gap_matches_oracle_loose():
    dev = build_example_device(BLACK, -1.0, 1.0)
    grid = TimeGrid(2.0, 100)
    rep = cce_gap_nplayer(MODEL, dev, N=50, reps=400, seed=0, grid=grid)
    oracle = finite_n_gap_oracle(BLACK, -1, 1, 1, 2, 50)
    assert abs(rep.raw_gap - oracle) < 4 * rep.raw_se
    assert rep.epsilon_hat == max(0.0, rep.raw_gap)
    assert rep.epsilon_ci[0] <= rep.raw_gap <= rep.epsilon_ci[1]
    assert rep.best_deviation == 1.0      # h < 0: deviating to b is optimal
    assert rep.j_rec.reps == 400


def test_white_device_gap_is_zero():
    dev = build_example_device(WHITE, -1.0, 1.0)
    rep = cce_gap_nplayer(MODEL, dev, N=20, reps=200, seed=1,
                          grid=TimeGrid(2.0, 50))
    # recommendation already plays the best response: every improvement is
    # exactly <= 0 up to roundoff
    assert rep.raw_gap < 1e-12
    assert rep.epsilon_hat <= 1e-12


def test_gap_deterministic_and_chunk_independent(monkeypatch):
    dev = build_example_device(BLACK, -1.0, 1.0)
    grid = TimeGrid(2.0, 25)
    rep1 = cce_gap_nplayer(EULER, dev, N=10, reps=64, seed=5, grid=grid)
    import ccemfg.equilibrium as eq

    monkeypatch.setattr(eq, "CHUNK_ELEMS", 10 * 26 * 7)   # force many chunks
    rep2 = cce_gap_nplayer(EULER, dev, N=10, reps=64, seed=5, grid=grid)
    assert np.array_equal(rep1.improvement_means, rep2.improvement_means)
    assert rep1.raw_gap == rep2.raw_gap


def test_gap_worker_pool_identical():
    dev = build_example_device(BLACK, -1.0, 1.0)
    grid = TimeGrid(2.0, 25)
    serial = cce_gap_nplayer(EULER, dev, N=10, reps=64, seed=5, grid=grid,
                             workers=1)
    pooled = cce_gap_nplayer(EULER, dev, N=10, reps=64, seed=5, grid=grid,
                             workers=2)
    assert np.array_equal(serial.improvement_means, pooled.improvement_means)


def test_pool_only_for_more_than_one_job(monkeypatch):
    """One job runs serially whatever the worker count, and a pool gets
    no more processes than there are jobs (on 8 usable CPUs, so that the
    CPU cap does not bind)."""
    import ccemfg.equilibrium as eq

    monkeypatch.setattr(eq, "usable_cpus", lambda: 8)
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    # _map_jobs imports the pool class from concurrent.futures when a pool
    # starts
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    dev = build_example_device(BLACK, -1.0, 1.0)
    cce_gap_nplayer(MODEL, dev, N=10, reps=64, seed=5, workers=2)
    mean_field_gap_mc(MODEL, dev, reps=64, seed=5, workers=2)
    assert pools == []
    poc_curve(MODEL, dev, [5, 12, 30], reps=23, seed=2,
              grid=TimeGrid(2.0, 10), workers=2)
    assert pools == [2]
    # one step across [0, T]; an ensemble of 10 beside player 0's 1 + 21
    # rows: chunks of 22 of the 64
    monkeypatch.setattr(eq, "CHUNK_ELEMS",
                        22 * eq._rep_numbers(1, 10 + 22, 11, 21))
    cce_gap_nplayer(MODEL, dev, N=10, reps=64, seed=5, workers=8)
    assert pools == [2, 3]


def test_workers_capped_at_usable_cpus(monkeypatch):
    """A worker count above the usable CPUs starts no more processes than
    there are CPUs, in the pool and in poc's chunking, with the same bits.
    The pool is a serial stand-in, so no process starts."""
    import ccemfg.equilibrium as eq

    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            pools.append((self.max_workers, len(jobs)))
            return map(fn, jobs)

    dev = build_example_device(BLACK, -1.0, 1.0)
    grid = TimeGrid(2.0, 10)
    ref_poc = poc_curve(MODEL, dev, [5, 12, 30], reps=23, seed=2, grid=grid,
                        workers=1)
    ref_gap = cce_gap_nplayer(MODEL, dev, N=10, reps=64, seed=5, workers=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(eq, "usable_cpus", lambda: 2)
    poc = poc_curve(MODEL, dev, [5, 12, 30], reps=23, seed=2, grid=grid,
                    workers=10_000)
    # as in test_pool_only_for_more_than_one_job: 3 chunks of the 64
    monkeypatch.setattr(eq, "CHUNK_ELEMS",
                        22 * eq._rep_numbers(1, 10 + 22, 11, 21))
    gap = cce_gap_nplayer(MODEL, dev, N=10, reps=64, seed=5, workers=10_000)
    # poc makes one chunk per usable CPU; the gap's 3 chunks share 2
    assert pools == [(2, 2), (2, 3)]
    assert np.array_equal(poc.overall, ref_poc.overall)
    for N in ref_poc.per_time:
        assert np.array_equal(poc.per_time[N], ref_poc.per_time[N])
    assert np.array_equal(gap.improvement_means, ref_gap.improvement_means)
    assert np.array_equal(gap.improvement_ses, ref_gap.improvement_ses)


def test_usable_cpus_prefers_the_affinity_set(monkeypatch):
    import os

    import ccemfg.equilibrium as eq

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    assert eq.usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert eq.usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert eq.usable_cpus() == 1


def test_fast_and_slow_deviation_paths_agree():
    dev = build_example_device(BLACK, -1.0, 1.0)
    grid = TimeGrid(2.0, 25)
    fast = cce_gap_nplayer(EULER, dev, N=10, reps=64, seed=2, grid=grid)
    # an opaque copy of the action drift counts as reading the measure
    slow_model = dataclasses.replace(EULER,
                                     drift=functools.partial(MODEL.drift))
    slow = cce_gap_nplayer(slow_model, dev, N=10, reps=64, seed=2, grid=grid)
    assert np.max(np.abs(fast.improvement_means
                         - slow.improvement_means)) < 1e-12
    assert abs(fast.raw_gap - slow.raw_gap) < 1e-12
    # the recommendation is row 0 of player 0's state on both paths
    assert fast.j_rec.mean == slow.j_rec.mean
    assert fast.j_rec.std_error == slow.j_rec.std_error


# --- exact terminal sampling ---------------------------------------------

DEVICES = {"white": WHITE, "black": BLACK}


def _assert_agree(got, ref, tol=1e-12):
    assert np.max(np.abs(got.improvement_means
                         - ref.improvement_means)) < tol
    assert abs(got.j_rec.mean - ref.j_rec.mean) < tol
    assert abs(got.j_rec.std_error - ref.j_rec.std_error) < tol
    assert abs(got.raw_se - ref.raw_se) < tol
    assert got.best_deviation == ref.best_deviation


@pytest.mark.parametrize("N", [2, 7, 50])
@pytest.mark.parametrize("name", sorted(DEVICES))
def test_exact_terminal_nplayer_gap_matches_euler(name, N):
    dev = build_example_device(DEVICES[name], -1.0, 1.0)
    exact = cce_gap_nplayer(MODEL, dev, N=N, reps=300, seed=8)
    euler = cce_gap_nplayer(EULER, dev, N=N, reps=300, seed=8)
    _assert_agree(exact, euler)


@pytest.mark.parametrize("name", sorted(DEVICES))
def test_exact_terminal_mean_field_gap_matches_euler(name):
    dev = build_example_device(DEVICES[name], -1.0, 1.0)
    exact = mean_field_gap_mc(MODEL, dev, reps=1000, seed=8)
    euler = mean_field_gap_mc(EULER, dev, reps=1000, seed=8)
    _assert_agree(exact, euler)


def test_exact_terminal_bit_identical_across_workers_chunks_and_steps(
        monkeypatch):
    import ccemfg.equilibrium as eq

    dev = build_example_device(BLACK, -1.0, 1.0)
    runs = {
        "gap": lambda workers, steps: cce_gap_nplayer(
            MODEL, dev, N=10, reps=64, seed=5, grid=TimeGrid(2.0, steps),
            workers=workers),
        "mfgap": lambda workers, steps: mean_field_gap_mc(
            MODEL, dev, reps=64, seed=5, grid=TimeGrid(2.0, steps),
            workers=workers)}
    for name, run in runs.items():
        ref = run(1, 200)
        for workers, steps in ((2, 200), (1, 1), (1, 7)):
            got = run(workers, steps)
            assert np.array_equal(got.improvement_means,
                                  ref.improvement_means), (name, workers)
            assert np.array_equal(got.improvement_ses, ref.improvement_ses)
        monkeypatch.setattr(eq, "CHUNK_ELEMS", 1000)   # 32 and 16 chunks
        for workers in (1, 2):
            got = run(workers, 200)
            assert np.array_equal(got.improvement_means,
                                  ref.improvement_means), (name, workers)
            assert np.array_equal(got.improvement_ses, ref.improvement_ses)
        monkeypatch.undo()


def test_exact_terminal_keeps_the_action_box_and_finite_checks():
    dev = build_example_device(BLACK, -1.0, 1.0)
    grid = TimeGrid(2.0, 20)
    outside = np.array([-1.0, 0.0, 1.5])
    with pytest.raises(ValueError, match="admissible box"):
        cce_gap_nplayer(MODEL, dev, N=5, deviations=outside, reps=4,
                        grid=grid)
    with pytest.raises(ValueError, match="admissible box"):
        mean_field_gap_mc(MODEL, dev, deviations=outside, reps=4, grid=grid)

    # the rules stay exact, so the one step across [0, T] meets the inf
    blowup = dataclasses.replace(MODEL, initial_law=PointMass(np.inf))
    with np.errstate(invalid="ignore"), pytest.raises(SimulationError):
        cce_gap_nplayer(blowup, dev, N=5, reps=4, grid=grid, workers=1)
    with pytest.raises(SimulationError):
        mean_field_gap_mc(blowup, dev, reps=4, grid=grid, workers=1)


def test_mean_field_gap_steps_a_hand_built_constant_once():
    """A device built by hand, its strategy an integer rather than a float,
    is a constant like any other: it takes one step across [0, T]."""
    dev = build_example_device(BLACK, -1.0, 1.0)
    grid = TimeGrid(2.0, 20)
    const = CorrelationDevice(scenarios=(
        Scenario(1.0, np.int64(1), dev.scenarios[0].flow),))
    a = mean_field_gap_mc(MODEL, const, reps=64, seed=1, grid=grid)
    b = mean_field_gap_mc(MODEL, const, reps=64, seed=1,
                          grid=TimeGrid(2.0, 3))
    c = mean_field_gap_mc(EULER, const, reps=64, seed=1, grid=grid)
    assert np.array_equal(a.improvement_means, b.improvement_means)
    assert np.max(np.abs(a.improvement_means - c.improvement_means)) < 1e-12


@pytest.mark.filterwarnings("error")
def test_a_zero_probability_flow_class_is_dropped():
    """A scenario of probability 0 is no part of the device: every
    estimator runs, without a warning, as on the device without it."""
    mu_plus = device_flow(1.0, -1.0, 1.0, label="mu+")
    mu_minus = device_flow(0.0, -1.0, 1.0, label="mu-")
    dev = CorrelationDevice((Scenario(1.0, 1.0, mu_plus),
                             Scenario(0.0, -1.0, mu_minus)))
    alone = CorrelationDevice((Scenario(1.0, 1.0, mu_plus),))
    assert dev == alone and list(dev.flow_classes()) == ["mu+"]
    grid = TimeGrid(2.0, 10)
    runs = [
        lambda d: cce_gap_nplayer(MODEL, d, N=5, reps=50, seed=2,
                                  grid=grid).improvement_means,
        lambda d: cce_gap_nplayer(EULER, d, N=5, reps=50, seed=2,
                                  grid=grid).improvement_means,
        lambda d: poc_curve(MODEL, d, [5, 10], reps=50, seed=2, grid=grid,
                            workers=1).overall,
        lambda d: mean_field_gap_mc(MODEL, d, reps=50, seed=2,
                                    grid=grid).improvement_means,
        lambda d: [cl.w2 for cl in verify_consistency(
            MODEL, d, grid, reps=50, seed=2).classes]]
    for run in runs:
        assert np.array_equal(run(dev), run(alone))


def test_sense_flip_negates_improvements():
    dev = build_example_device(BLACK, -1.0, 1.0)
    grid = TimeGrid(2.0, 25)
    rep_max = cce_gap_nplayer(MODEL, dev, N=10, reps=64, seed=3, grid=grid)
    flipped = dataclasses.replace(MODEL, sense="minimize")
    rep_min = cce_gap_nplayer(flipped, dev, N=10, reps=64, seed=3, grid=grid)
    assert np.array_equal(rep_max.improvement_means,
                          -rep_min.improvement_means)

    mf_max = mean_field_gap_mc(MODEL, dev, reps=256, seed=3, grid=grid)
    mf_min = mean_field_gap_mc(flipped, dev, reps=256, seed=3, grid=grid)
    assert np.array_equal(mf_max.improvement_means, -mf_min.improvement_means)


def test_crn_deviation_payoff_is_quadratic():
    dev = build_example_device(BLACK, -1.0, 1.0)
    rep = cce_gap_nplayer(MODEL, dev, N=20, reps=100, seed=4,
                          grid=TimeGrid(2.0, 50))
    m = rep.candidates
    coef = np.polyfit(m, rep.improvement_means, 2)
    resid = rep.improvement_means - np.polyval(coef, m)
    assert np.max(np.abs(resid)) < 1e-10


def test_nplayer_gap_candidates_match_the_exact_gain_on_an_asymmetric_game():
    """At a = -1, b = 2 the 1/N term of a deviation's gain,
    c T^2 [(beta^2 - E[u^2]) / N + (N - 1) / N (beta u_bar - E[m^2])],
    does not vanish at the endpoints: every candidate's mean improvement
    on the exact-terminal path matches it at N = 2, 3, 5 and 50."""
    a, b, c, T = -1.0, 2.0, 1.0, 2.0
    p = DeviceProbs(0.15, 0.0, 0.7, 0.15)
    model = build_bang_bang_model(a, b, c, T)
    dev = build_example_device(p, a, b)
    q_plus, q_minus = p.row_masses
    u_bar, e_u2 = q_plus * b + q_minus * a, q_plus * b * b + q_minus * a * a
    e_m2 = sum(cj * (w * b + (1.0 - w) * a) ** 2 for cj, w in
               zip(p.column_masses, consistency_weights(p)) if w is not None)
    for N in (2, 3, 5, 50):
        rep = cce_gap_nplayer(model, dev, N=N, reps=20000, seed=0)
        beta = rep.candidates
        gain = c * T * T * ((beta * beta - e_u2) / N
                            + (N - 1) / N * (beta * u_bar - e_m2))
        z = (rep.improvement_means - gain) / rep.improvement_ses
        assert np.max(np.abs(z)) <= 3.0, (N, z)


def test_mean_field_gap_black_device():
    dev = build_example_device(BLACK, -1.0, 1.0)
    rep = mean_field_gap_mc(MODEL, dev, reps=2000, seed=6,
                            grid=TimeGrid(2.0, 100))
    assert abs(rep.raw_gap - 24 / 35) < 3 * rep.raw_se
    assert rep.best_deviation == 1.0       # worst-case endpoint is b


@pytest.mark.parametrize("mu, s", [(0.0, 0.0), (1.0, 0.5), (-3.0, 1.0)])
def test_mean_field_gap_from_a_gaussian_start(mu, s):
    """x0 ~ N(mu, s^2) against the device's flows started at mu.  A flow
    of mean drift m has mean mu + m T at T, and the reward c x mean reads
    only means, so s drops out: with y = mu + T E[m], the gap is
    max(0, c T (max(a y, b y) - mu E[m] - T E[m^2])), the expectations over
    the lottery (consistency gives E[u m] = E[m^2] for the recommended u)."""
    a, b, c, T = -1.0, 1.0, 1.0, 2.0
    a1, a2 = consistency_weights(BLACK)
    flows = {1: device_flow(a1, a, b, "mu1", x0=mu),
             2: device_flow(a2, a, b, "mu2", x0=mu)}
    dev = CorrelationDevice(tuple(
        Scenario(prob, action, flows[col]) for action, col, prob in
        ((b, 1, BLACK.p11), (b, 2, BLACK.p12), (a, 1, BLACK.p21),
         (a, 2, BLACK.p22))))
    m = np.array([np.dot(sc.flow.weights, sc.flow.drift_rates)
                  for sc in dev.scenarios])
    e_m, e_m2 = dev.probabilities @ m, dev.probabilities @ m**2
    y = mu + T * e_m
    oracle = max(0.0, c * T * (max(a * y, b * y) - mu * e_m - T * e_m2))
    model = dataclasses.replace(MODEL, initial_law=GaussianInitial(mu, s))
    rep = mean_field_gap_mc(model, dev, reps=20_000, seed=3)
    assert abs(rep.raw_gap - oracle) <= 2 * rep.raw_se, (rep.raw_gap, oracle)
    if mu == -3.0:
        assert rep.best_deviation == a


def test_mean_field_gap_white_corner():
    dev = build_example_device(WHITE, -1.0, 1.0)
    rep = mean_field_gap_mc(MODEL, dev, reps=500, seed=7,
                            grid=TimeGrid(2.0, 50))
    assert abs(rep.raw_gap) < max(3 * rep.raw_se, 1e-10)


def test_gap_input_validation():
    dev = build_example_device(WHITE, -1.0, 1.0)
    with pytest.raises(ValueError):
        cce_gap_nplayer(MODEL, dev, N=1, reps=10)
    # both estimators need 3 candidates, given as a grid size or as actions
    grid = TimeGrid(2.0, 10)
    for deviations in (2, np.array([0.5]), np.array([-1.0, 1.0])):
        with pytest.raises(ValueError, match="3 candidates"):
            cce_gap_nplayer(MODEL, dev, N=10, deviations=deviations, reps=10,
                            grid=grid)
        with pytest.raises(ValueError, match="3 candidates"):
            mean_field_gap_mc(MODEL, dev, deviations=deviations, reps=10,
                              grid=grid)


def test_poc_curve_decay_and_classes():
    dev = build_example_device(DeviceProbs(0.5, 0, 0, 0.5), -1.0, 1.0)
    grid = TimeGrid(2.0, 50)
    res = poc_curve(MODEL, dev, [25, 100], reps=100, seed=0, grid=grid)
    assert res.overall[1] < res.overall[0]
    for label in ("mu1", "mu2"):
        assert res.per_class[label][1] < res.per_class[label][0]
    assert res.per_time[25].shape == (51,)
    with pytest.raises(ValueError):
        poc_curve(MODEL, dev, [100, 25], reps=10, seed=0, grid=grid)


@pytest.mark.parametrize("Ns", [[], [0], [0, 5], [5, 5], [10, 5],
                                [5, 10, 10]])
def test_poc_curve_rejects_bad_player_counts(Ns):
    dev = build_example_device(DeviceProbs(1, 0, 0, 0), -1.0, 1.0)
    with pytest.raises(ValueError, match="Ns must"):
        poc_curve(MODEL, dev, Ns, reps=4, seed=0, grid=TimeGrid(2.0, 10))


def test_gap_estimators_reject_zero_reps():
    device = build_example_device(BLACK, -1.0, 1.0)
    grid = TimeGrid(2.0, 10)
    with pytest.raises(ValueError, match="reps"):
        cce_gap_nplayer(MODEL, device, 5, reps=0, grid=grid)
    with pytest.raises(ValueError, match="reps"):
        mean_field_gap_mc(MODEL, device, reps=0, grid=grid)


_GRID = TimeGrid(2.0, 10)
_DEV = build_example_device(BLACK, -1.0, 1.0)
_FLOW = device_flow(1.0, -1.0, 1.0)


@pytest.mark.parametrize("call, match", [
    # each ran: 3 players divided by 2.5, N = 2, 31 replications reported
    # as 30.5, one replication, and a TypeError deep inside
    (lambda: cce_gap_nplayer(MODEL, _DEV, 2.5, reps=4, grid=_GRID), "N"),
    (lambda: cce_gap_nplayer(MODEL, _DEV, True, reps=4, grid=_GRID), "N"),
    (lambda: poc_curve(MODEL, _DEV, [2.7, 10], reps=4, grid=_GRID), "Ns"),
    (lambda: verify_consistency(MODEL, _DEV, _GRID, 30.5, 0), "reps"),
    (lambda: verify_consistency(MODEL, _DEV, _GRID, True, 0), "reps"),
    (lambda: mean_field_gap_mc(MODEL, _DEV, reps=2.5, grid=_GRID), "reps"),
    (lambda: cce_gap_nplayer(MODEL, _DEV, 5, reps=4.0, grid=_GRID), "reps"),
    (lambda: TimeGrid(2.0, True), "steps"),
    (lambda: mckean_vlasov_fixed_point(MODEL, _GRID, 1.0, 200.5, 2, 0.1, 0),
     "particles"),
    (lambda: mckean_vlasov_fixed_point(MODEL, _GRID, 1.0, 200, 2.0, 0.1, 0),
     "max_iters"),
    (lambda: null_band(_FLOW, _GRID.times, 300.0), "count"),
    (lambda: null_band(_FLOW, _GRID.times, True), "count"),
    (lambda: null_expectation(np.zeros((3, 8)), 2.5), "count")])
def test_counts_must_be_integers_and_not_booleans(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_poc_curve_rejects_zero_reps():
    device = build_example_device(WHITE, -1.0, 1.0)
    with pytest.raises(ValueError, match="reps"):
        poc_curve(MODEL, device, [5, 10], reps=0, grid=TimeGrid(2.0, 10))


def test_estimators_reject_grid_horizon_mismatch():
    device = build_example_device(BLACK, -1.0, 1.0)
    grid = TimeGrid(3.0, 20)
    for run in (lambda: cce_gap_nplayer(MODEL, device, 5, reps=4, grid=grid),
                lambda: mean_field_gap_mc(MODEL, device, reps=4, grid=grid),
                lambda: poc_curve(MODEL, device, [5], reps=4, grid=grid)):
        with pytest.raises(ValueError, match="grid.horizon"):
            run()


def test_poc_curve_builds_each_class_table_once(monkeypatch):
    from ccemfg import flows

    calls = []
    build = flows.mixture_quantile_table

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(flows, "mixture_quantile_table", counting)
    dev = build_example_device(DeviceProbs(0.5, 0, 0, 0.5), -1.0, 1.0)
    poc_curve(MODEL, dev, [5, 10, 20], reps=10, seed=0,
              grid=TimeGrid(2.0, 10), workers=1)
    assert len(calls) == len(dev.flow_classes()) == 2


def test_poc_curve_rejects_a_flow_class_without_samples(tmp_path, capsys):
    dev = build_example_device(BLACK, -1.0, 1.0)
    with pytest.raises(ValueError, match="mu2"):
        poc_curve(MODEL, dev, [10, 20], reps=2, seed=0,
                  grid=TimeGrid(2.0, 10), workers=1)
    from ccemfg.cli import main

    out = tmp_path / "poc.csv"
    rc = main(["poc", "--p", "0.5,0.3,0.2,0", "--N", "10,20", "--reps", "2",
               "--steps", "10", "--seed", "0", "--out", str(out)])
    assert rc == 1
    assert "mu2" in capsys.readouterr().err
    assert not out.exists()
