import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccemfg.analytic import (DeviceProbs, cce_margin, finite_n_gap_oracle,
                             mean_field_gap_oracle, region_sweep)
from ccemfg.correlation import build_example_device
from ccemfg.engine import TimeGrid, stream
from ccemfg.model import (ActionBox, GaussianInitial, MeasureView, PointMass,
                          build_bang_bang_model, check_game, check_interval,
                          drift_reads_measure, exact_terminal)


def test_action_box_validation():
    with pytest.raises(ValueError):
        ActionBox(lo=1.0, hi=-1.0)
    with pytest.raises(ValueError):
        ActionBox(lo=np.inf, hi=np.inf)
    with pytest.raises(ValueError):
        ActionBox(lo=np.nan, hi=1.0)
    box = ActionBox(lo=np.float64(-1), hi=1)
    assert type(box.lo) is float and type(box.hi) is float
    assert box.contains(0.3) and box.contains([-1.0, 1.0])
    assert box.contains(1.0 + 1e-13) and ActionBox(0.5, 0.5).contains(0.5)
    assert not box.contains(1.5) and not box.contains([0.0, -1.1])
    assert not box.contains(np.nan)


def test_action_box_checks_broadcast_arrays():
    # contains reads each value of a broadcast array once; the verdict and
    # stream's ValueError are the same as on a full copy
    box = ActionBox(-1.0, 1.0)
    inside = np.broadcast_to(np.float64(0.5), (3, 1000))
    outside = np.broadcast_to(np.float64(1.5), (3, 1000))
    assert box.contains(inside) and not box.contains(outside)
    assert not box.contains(np.broadcast_to(np.nan, (2, 5)))
    assert box.contains(np.broadcast_to(1.0, (0, 4)))
    # (G, R) arrays broadcast along one axis, outside in their last row or
    # column only
    rows = np.broadcast_to(np.array([[0.0], [0.5], [1.5]]), (3, 1000))
    cols = np.broadcast_to(np.array([0.0, -0.5, -1.5]), (4, 3))
    assert not box.contains(rows) and box.contains(rows[:-1])
    assert not box.contains(cols) and box.contains(cols[:, :-1])
    model = build_bang_bang_model(-1.0, 1.0, 1.0, 2.0)
    mv = MeasureView(mean=0.0, second_moment=0.0)

    def walk(a):
        return list(stream(model, TimeGrid(2.0, 1), np.zeros((3, 1000)),
                           iter([np.zeros(1000)] * 2), a, lambda i, x: mv))

    assert len(walk(inside)) == 2
    for a in (outside, rows):
        with pytest.raises(ValueError, match="outside the admissible box"):
            walk(a)


def test_bang_bang_model_basics():
    m = build_bang_bang_model(-1.0, 1.0, 1.0, 2.0)
    assert m.horizon == 2.0 and m.sense == "maximize"
    assert m.actions == ActionBox(-1.0, 1.0)
    mv = MeasureView(mean=3.0, second_moment=10.0)
    assert m.terminal_cost(0.0, mv) == 0.0
    assert m.terminal_cost(2.0, mv) == 6.0
    assert np.all(m.running_cost(0.1, np.zeros(5), mv, np.ones(5)) == 0.0)
    assert m.sign == -1.0


def test_bang_bang_model_rejects_bad_params():
    for args in [(0.5, 1, 1, 2), (0.0, 1, 1, 2), (-1, -0.5, 1, 2),
                 (-1, 1, 0.0, 2), (-1, 1, 1, 0.0)]:
        with pytest.raises(ValueError):
            build_bang_bang_model(*args)


@pytest.mark.parametrize("args", [
    (-np.inf, 1, 1, 2), (-1, np.inf, 1, 2), (-1, 1, np.inf, 2),
    (-1, 1, 1, np.inf), (-1, 1, np.nan, 2), (-1, 1, 1, np.nan)])
def test_bang_bang_model_rejects_non_finite_params(args):
    # c = inf ran mfgap to a NaN gap
    with pytest.raises(ValueError, match="finite"):
        build_bang_bang_model(*args)


def _game_entry_points(a, b, c, T):
    """Every library call that takes the bang-bang game, by name; the
    first three take only its action interval."""
    p = DeviceProbs(0.5, 0.3, 0.2, 0.0)
    return {"cce_margin": lambda: cce_margin(p, a, b),
            "region_sweep": lambda: region_sweep(5, 0.5, a, b),
            "build_example_device": lambda: build_example_device(p, a, b),
            "build_bang_bang_model": lambda: build_bang_bang_model(a, b, c, T),
            "mean_field_gap_oracle": lambda: mean_field_gap_oracle(p, a, b,
                                                                   c, T),
            "finite_n_gap_oracle": lambda: finite_n_gap_oracle(p, a, b, c, T,
                                                               10)}


@pytest.mark.parametrize("a, b", [(-np.inf, 1.0), (-1.0, np.inf),
                                  (np.nan, 1.0), (0.0, 1.0), (-1.0, 0.0)])
def test_every_entry_point_applies_the_one_interval_rule(a, b):
    # build_example_device(p, -inf, 1) failed later, in the flow constructor
    with pytest.raises(ValueError) as rule:
        check_interval(a, b)
    message = str(rule.value)
    assert "finite" in message and "< inf" in message
    for name, call in _game_entry_points(a, b, 1.0, 2.0).items():
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message, name


@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize("arg", ["c", "T"])
def test_every_entry_point_applies_the_one_scale_and_horizon_rule(arg, value):
    game = {"a": -1.0, "b": 1.0, "c": 1.0, "T": 2.0, arg: value}
    with pytest.raises(ValueError) as rule:
        check_game(**game)
    message = str(rule.value)
    assert "finite" in message and "0 < c < inf and 0 < T < inf" in message
    calls = _game_entry_points(**game)
    for name in ("build_bang_bang_model", "mean_field_gap_oracle",
                 "finite_n_gap_oracle"):
        with pytest.raises(ValueError) as exc:
            calls[name]()
        assert str(exc.value) == message, name


def test_drift_is_measure_free():
    m = build_bang_bang_model(-1.0, 1.0, 1.0, 2.0)
    assert not drift_reads_measure(m)
    x = np.linspace(-2, 2, 7)
    a = np.linspace(-1, 1, 7)
    m1 = MeasureView(mean=0.0, second_moment=1.0)
    m2 = MeasureView(mean=100.0, second_moment=10001.0)
    assert np.array_equal(m.drift(0.5, x, m1, a), m.drift(0.5, x, m2, a))
    assert np.array_equal(m.drift(0.5, x, m1, a), a)


def test_exact_terminal_is_read_from_the_rules():
    m = build_bang_bang_model(-1.0, 1.0, 1.0, 2.0)
    assert exact_terminal(m)
    assert exact_terminal(dataclasses.replace(m, initial_law=PointMass(1.0)))
    zero = lambda t, x, mv, a: np.zeros(np.shape(x))   # noqa: E731
    assert not exact_terminal(dataclasses.replace(m, drift=zero))
    assert not exact_terminal(dataclasses.replace(m, running_cost=zero))


def test_drift_reads_measure_is_read_from_the_rules():
    """Only the action drift is known to ignore the measure; any other
    drift, even a wrapped copy of it, counts as reading it."""
    m = build_bang_bang_model(-1.0, 1.0, 1.0, 2.0)
    assert not drift_reads_measure(m)
    wrapped = dataclasses.replace(m, running_cost=functools.partial(
        m.running_cost), initial_law=GaussianInitial(0.0, 1.0))
    assert not drift_reads_measure(wrapped)
    for drift in (functools.partial(m.drift),
                  lambda t, x, mv, a: a + 2.0 * (mv.mean - x)):
        assert drift_reads_measure(dataclasses.replace(m, drift=drift))


@given(alpha=st.floats(-10, 10), x=st.floats(-10, 10), mbar=st.floats(-10, 10))
@settings(max_examples=200, deadline=None)
def test_terminal_reward_bilinear(alpha, x, mbar):
    m = build_bang_bang_model(-1.0, 1.0, 1.0, 2.0)
    mv = MeasureView(mean=mbar, second_moment=mbar * mbar + 1.0)
    g = float(np.asarray(m.terminal_cost(x, mv)))
    g_scaled_x = float(np.asarray(m.terminal_cost(alpha * x, mv)))
    mv_scaled = MeasureView(mean=alpha * mbar,
                            second_moment=(alpha * mbar) ** 2 + 1.0)
    g_scaled_m = float(np.asarray(m.terminal_cost(x, mv_scaled)))
    assert abs(g_scaled_x - alpha * g) < 1e-9 * (1 + abs(g))
    assert abs(g_scaled_m - alpha * g) < 1e-9 * (1 + abs(g))


def test_initial_laws():
    g = GaussianInitial(mean=2.0, std=3.0)
    u = np.linspace(0.001, 0.999, 1001)
    x = g.from_uniform(u)
    assert abs(x[500] - 2.0) < 1e-9        # median at the mean
    assert np.all(np.diff(x) > 0)          # quantile map increasing


def test_model_spec_validation():
    m = build_bang_bang_model(-1.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        dataclasses.replace(m, sense="argmax")
    with pytest.raises(ValueError):
        dataclasses.replace(m, horizon=-1.0)
