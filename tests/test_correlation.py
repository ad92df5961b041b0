from types import SimpleNamespace

import numpy as np
import pytest

from ccemfg import rng
from ccemfg.analytic import DeviceProbs
from ccemfg.cli import main
from ccemfg.correlation import (CorrelationDevice, Scenario,
                                build_example_device, null_band,
                                sample_scenario, verify_consistency)
from ccemfg.engine import TimeGrid
from ccemfg.equilibrium import recommended_actions
from ccemfg.flows import device_flow
from ccemfg.metrics import empirical_quantiles
from ccemfg.model import build_bang_bang_model

MODEL = build_bang_bang_model(-1.0, 1.0, 1.0, 2.0)


def test_device_validation():
    with pytest.raises(ValueError):
        CorrelationDevice(scenarios=())
    with pytest.raises(ValueError):
        CorrelationDevice(scenarios=(
            Scenario(0.6, 1.0, device_flow(1.0, -1, 1)),
            Scenario(0.6, -1.0, device_flow(0.0, -1, 1))))


@pytest.mark.parametrize("strategy", [
    lambda t, x, mv: np.ones_like(x), np.nan, np.inf, -np.inf, "1.0",
    1j, np.array([1.0]), None])
def test_device_refuses_a_strategy_that_is_not_a_finite_real(strategy):
    """A strategy is a constant action: a rule or a non-finite value is
    refused where the device is built, naming the scenario."""
    flow = device_flow(1.0, -1, 1)
    with pytest.raises(ValueError, match=r"scenario \(u-\): the strategy"):
        CorrelationDevice(scenarios=(
            Scenario(0.5, 1.0, flow, label="(u+)"),
            Scenario(0.5, strategy, flow, label="(u-)")))
    with pytest.raises(ValueError, match="scenario 0: the strategy"):
        CorrelationDevice(scenarios=(Scenario(1.0, strategy, flow),))
    for action in (1, np.int64(-1), np.float32(0.5), 0.0):
        dev = CorrelationDevice(scenarios=(Scenario(1.0, action, flow),))
        assert dev.strategies.tolist() == [float(action)]


def test_build_example_device_corners():
    dev = build_example_device(DeviceProbs(1, 0, 0, 0), -1.0, 1.0)
    assert len(dev.scenarios) == 1
    s = dev.scenarios[0]
    assert s.probability == 1.0 and s.strategy == 1.0
    assert np.array_equal(s.flow.weights, [1.0, 0.0])   # pure all-b flow

    dev = build_example_device(DeviceProbs(0, 0, 0, 1), -1.0, 1.0)
    assert len(dev.scenarios) == 1
    assert dev.scenarios[0].strategy == -1.0
    assert np.array_equal(dev.scenarios[0].flow.weights, [0.0, 1.0])


def test_build_example_device_diagonal():
    dev = build_example_device(DeviceProbs(0.5, 0, 0, 0.5), -1.0, 1.0)
    assert len(dev.scenarios) == 2
    # a1 = 1, a2 = 0: flows are the pure all-b and all-a populations
    flows = {s.flow.label: s.flow for s in dev.scenarios}
    assert np.array_equal(flows["mu1"].weights, [1.0, 0.0])
    assert np.array_equal(flows["mu2"].weights, [0.0, 1.0])
    classes = dev.flow_classes()
    assert set(classes) == {"mu1", "mu2"}
    assert abs(classes["mu1"]["probability"] - 0.5) < 1e-15


def test_unlabelled_flows_are_named_in_order_of_appearance(tmp_path):
    """Two devices built the same way name their classes the same, and
    flows without a label are still grouped by identity."""

    def build():
        f, g = device_flow(1.0, -1, 1), device_flow(1.0, -1, 1)
        h = device_flow(0.0, -1, 1, label="mu")
        return CorrelationDevice(scenarios=(
            Scenario(0.2, 1.0, g), Scenario(0.1, -1.0, h),
            Scenario(0.3, 1.0, f), Scenario(0.4, 1.0, g)))

    first, second = build(), build()
    classes = first.flow_classes()
    assert list(classes) == list(second.flow_classes()) == [
        "flow0", "mu", "flow1"]
    assert classes["flow0"]["scenarios"] == [0, 3]
    assert classes["flow1"]["scenarios"] == [2]
    assert abs(classes["flow0"]["probability"] - 0.6) < 1e-15

    reports = [[(cl.label, cl.count, cl.w2.tolist()) for cl in
                verify_consistency(MODEL, dev, TimeGrid(2.0, 4), reps=50,
                                   seed=0).classes]
               for dev in (first, second)]
    assert reports[0] == reports[1]
    assert [label for label, _, _ in reports[0]] == ["flow0", "mu", "flow1"]


def test_sample_scenario_frequencies():
    dev = build_example_device(DeviceProbs(1, 0, 0, 0), -1.0, 1.0)
    assert np.all(sample_scenario(dev, 0, np.arange(1000)) == 0)

    dev = build_example_device(DeviceProbs(0.5, 0, 0, 0.5), -1.0, 1.0)
    draws = sample_scenario(dev, 1, np.arange(10**5))
    freq0 = np.mean(draws == 0)
    assert abs(freq0 - 0.5) < 0.01

    dev = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0.0), -1.0, 1.0)
    draws = sample_scenario(dev, 2, np.arange(10**5))
    for idx, s in enumerate(dev.scenarios):
        f = np.mean(draws == idx)
        sd = np.sqrt(s.probability * (1 - s.probability) / 10**5)
        assert abs(f - s.probability) < 3.5 * sd
    # determinism
    assert np.array_equal(draws, sample_scenario(dev, 2, np.arange(10**5)))
    with pytest.raises(ValueError):
        sample_scenario(dev, 2, np.arange(0))


def test_lottery_does_not_depend_on_chunking():
    """Replication r always takes draw r of the lottery: any block of ids
    gets that slice of the whole draw, and the N-player recommendations
    use the same lottery."""
    dev = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0.0), -1.0, 1.0)
    whole = sample_scenario(dev, 4, np.arange(500))
    for a, b in [(0, 1), (7, 8), (13, 200), (0, 500), (499, 500)]:
        assert np.array_equal(sample_scenario(dev, 4, np.arange(a, b)),
                              whole[a:b])
    scen_to_class = {s: ci for ci, entry in
                     enumerate(dev.flow_classes().values())
                     for s in entry["scenarios"]}
    _, cls = recommended_actions(dev, 4, np.arange(13, 200), 5)
    assert np.array_equal(cls, [scen_to_class[s] for s in whole[13:200]])


def test_verify_consistency_single_flow():
    dev = build_example_device(DeviceProbs(1, 0, 0, 0), -1.0, 1.0)
    rep = verify_consistency(MODEL, dev, TimeGrid(2.0, 50), reps=4000, seed=0)
    assert len(rep.classes) == 1
    cl = rep.classes[0]
    assert cl.count == 4000 and not cl.flagged
    assert cl.sup_w2 <= 0.15
    assert cl.sup_w2 >= np.max(cl.w2) - 1e-15


def test_verify_consistency_black_device_class_mean():
    dev = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0.0), -1.0, 1.0)
    grid = TimeGrid(2.0, 50)
    draws = sample_scenario(dev, 3, np.arange(6000))
    rep = verify_consistency(MODEL, dev, grid, reps=6000, seed=3)
    by_label = {c.label: c for c in rep.classes}
    assert set(by_label) == {"mu1", "mu2"}
    # pooled paths for class mu1 should match mean 2*(3/7) at T; check the
    # class report distance is small instead of re-deriving the pooling
    assert by_label["mu1"].sup_w2 < 0.2
    assert by_label["mu2"].sup_w2 < 0.2
    counts = sum(c.count for c in rep.classes)
    assert counts == 6000
    assert by_label["mu1"].count == int(np.sum((draws == 0) | (draws == 2)))


def test_verify_consistency_detects_inconsistent_device():
    # pair the all-b control with the all-a flow: means differ by T(b-a)=4
    bad = CorrelationDevice(scenarios=(
        Scenario(1.0, 1.0, device_flow(0.0, -1.0, 1.0, label="mu-")),))
    rep = verify_consistency(MODEL, bad, TimeGrid(2.0, 50), reps=2000, seed=4)
    assert rep.classes[0].sup_w2 >= 2.0


def test_verify_consistency_shrinks_with_reps():
    dev = build_example_device(DeviceProbs(0.5, 0, 0, 0.5), -1.0, 1.0)
    grid = TimeGrid(2.0, 25)
    small, large = [], []
    for seed in range(5):
        r1 = verify_consistency(MODEL, dev, grid, reps=1000, seed=seed)
        r2 = verify_consistency(MODEL, dev, grid, reps=10000, seed=seed)
        small.append(max(c.sup_w2 for c in r1.classes))
        large.append(max(c.sup_w2 for c in r2.classes))
    assert np.median(large) < np.median(small)


def test_consistency_report_csv(tmp_path):
    dev = build_example_device(DeviceProbs(0.5, 0, 0, 0.5), -1.0, 1.0)
    rep = verify_consistency(MODEL, dev, TimeGrid(2.0, 10), reps=500, seed=0)
    path = tmp_path / "c.csv"
    assert main(["consistency", "--p", "0.5,0,0,0.5", "--steps", "10",
                 "--reps", "500", "--seed", "0", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "class,prob,count,t,w2"
    assert len(lines) == 2 + 2 * 11      # two classes, 11 grid times
    rows = [(cl.label, cl.probability, cl.count, t, d)
            for cl in rep.classes for t, d in zip(cl.times, cl.w2)]
    assert lines[2:] == [f"{lab},{p:.17g},{n},{t:.17g},{d:.17g}"
                         for lab, p, n, t, d in rows]


def test_null_band_scale():
    flow = device_flow(1.0, -1.0, 1.0)
    times = TimeGrid(2.0, 25).times
    band = null_band(flow, times, count=2000, seed=0)
    assert 0.0 < band < 0.5
    # the band should comfortably cover a consistent run at the same count
    dev = build_example_device(DeviceProbs(1, 0, 0, 0), -1.0, 1.0)
    rep = verify_consistency(MODEL, dev, TimeGrid(2.0, 25), reps=2000, seed=5)
    assert rep.classes[0].sup_w2 <= band


def test_verify_consistency_rejects_zero_reps():
    dev = build_example_device(DeviceProbs(1, 0, 0, 0), -1.0, 1.0)
    with pytest.raises(ValueError, match="reps"):
        verify_consistency(MODEL, dev, TimeGrid(2.0, 10), reps=0, seed=0)


def test_verify_consistency_rejects_grid_horizon_mismatch():
    dev = build_example_device(DeviceProbs(1, 0, 0, 0), -1.0, 1.0)
    with pytest.raises(ValueError, match="grid.horizon"):
        verify_consistency(MODEL, dev, TimeGrid(3.0, 10), reps=100, seed=0)


def test_verify_consistency_rejects_a_flow_without_quantile_table():
    grid = TimeGrid(2.0, 10)
    flow = SimpleNamespace(label="no table")
    dev = CorrelationDevice(scenarios=(Scenario(1.0, 0.0, flow),))
    with pytest.raises(ValueError, match="quantile table"):
        verify_consistency(MODEL, dev, grid, reps=100, seed=0)


@pytest.mark.parametrize("bad, match", [
    ({"count": 0}, "count"), ({"count": -3}, "count"),
    # the grid below has 11 times; widths must be powers of two in [2, 2**16]
    ({"table": np.zeros((11, 512, 1))}, "table"),
    ({"table": np.zeros((12, 512))}, "table"),
    ({"table": np.zeros((0, 512))}, "table"),
    ({"table": np.zeros((11, 0))}, "table"),
    ({"table": np.zeros((10, 512))}, "table"),
    ({"table": np.zeros(512)}, "table"),
    ({"table": np.zeros((11, 500))}, "table"),
    ({"table": np.zeros((11, 1))}, "table"),
    ({"table": np.broadcast_to(0.0, (11, 2**17))}, "table")])
def test_null_band_rejects_bad_arguments(bad, match):
    flow = device_flow(1.0, -1.0, 1.0)
    times = TimeGrid(2.0, 10).times
    args = {"count": 100, "seed": 0, **bad}
    with pytest.raises(ValueError, match=match):
        null_band(flow, times, **args)


def test_null_band_reuses_a_given_table():
    flow = device_flow(5 / 7, -1.0, 1.0)
    times = TimeGrid(2.0, 20).times
    built = null_band(flow, times, 300, seed=4)
    given = null_band(flow, times, 300, seed=4,
                      table=flow.quantile_table(times))
    assert given == built


def _ref_fields(key, n, bits):
    """The first ``n`` ``bits``-wide fields of a stream, most significant
    first within each draw, as int64."""
    k = 64 // bits
    z = rng._raw64(key, np.arange(-(-n // k)))
    shifts = np.array([64 - bits * (j + 1) for j in range(k)], dtype=np.uint64)
    fields = (z[:, None] >> shifts) & np.uint64((1 << bits) - 1)
    return fields.reshape(-1)[:n].astype(np.int64)


def _ref_null_band(flow, times, count, seed, pilots=20, factor=3.0,
                   table=None):
    """Reference copy: draws the packed time-major indices, gathers every
    sampled float and sorts the floats."""
    if table is None:
        table = flow.quantile_table(times)
    n_t, n_pts = table.shape
    sups = []
    for p in range(pilots):
        key = rng.stream_key(seed, rng.TAG_PROBE, p)
        idx = _ref_fields(key, n_t * count, int(np.log2(n_pts)))
        samples = table[np.arange(n_t)[:, None], idx.reshape(n_t, count)]
        eq = empirical_quantiles(np.sort(samples, axis=1))
        sups.append(float(np.max(np.sqrt(np.mean((eq - table) ** 2, axis=1)))))
    return factor * float(np.median(sups))


@pytest.mark.parametrize("steps", [1, 20, 200])
@pytest.mark.parametrize("weight", [1.0, 5 / 7, 0.5, 0.0])
def test_null_band_matches_float_sort_reference(weight, steps):
    flow = device_flow(weight, -1.0, 1.0)
    times = TimeGrid(2.0, steps).times
    table = flow.quantile_table(times)
    # sorting indices is exact only because every table row is nondecreasing
    assert np.all(np.diff(table, axis=1) >= 0.0)
    # on the 2- and 201-point grids no n_t * count below is a multiple of
    # 7, so the last draw of each pilot is used only in part
    for count in (1, 2, 300, 2003):
        got = null_band(flow, times, count, seed=11, table=table)
        assert got == _ref_null_band(flow, times, count, 11, table=table), count


def _exact_pilot_sup_w2(times, table, count, key):
    """One pilot of the null band drawn exactly: ``count`` samples per time
    of the white flow Normal(t, t), by inverse CDF of counter uniforms."""
    from scipy.special import ndtri

    u = rng.uniforms(key, np.arange(times.size * count)).reshape(times.size,
                                                                 count)
    x = times[:, None] + np.sqrt(times)[:, None] * ndtri(u)
    eq = empirical_quantiles(np.sort(x, axis=1))
    return float(np.max(np.sqrt(np.mean((eq - table) ** 2, axis=1))))


@pytest.mark.parametrize("count", [300, 2000])
@pytest.mark.parametrize("steps", [20, 200])
def test_null_band_matches_exact_pilots(steps, count):
    """The table sampler's band / factor is the median sup-W2 of pilots
    drawn exactly from the flow, up to Monte Carlo error."""
    flow = device_flow(1.0, -1.0, 1.0)          # Normal(t, t)
    times = TimeGrid(2.0, steps).times
    table = flow.quantile_table(times)
    band = null_band(flow, times, count, seed=3, table=table)
    exact = [_exact_pilot_sup_w2(times, table, count,
                                 rng.stream_key(3, rng.TAG_PROBE, 1000 + p))
             for p in range(40)]
    ratio = band / 3.0 / float(np.median(exact))
    assert 0.85 <= ratio <= 1.15, ratio


def test_consistency_builds_each_class_table_once(monkeypatch, tmp_path,
                                                 capsys):
    from ccemfg import flows
    from ccemfg.cli import main

    calls = []
    build = flows.mixture_quantile_table

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(flows, "mixture_quantile_table", counting)
    rc = main(["consistency", "--p", "0.5,0,0,0.5", "--reps", "200",
               "--steps", "10", "--out", str(tmp_path / "c.csv")])
    assert rc == 0
    assert capsys.readouterr().out.count("null band") == 2
    assert len(calls) == 2          # one per flow class, shared with the band
