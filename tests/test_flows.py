import numpy as np
import pytest

from ccemfg.flows import GaussianMixtureFlow, device_flow


def test_mixture_flow_moments():
    flow = device_flow(0.25, -1.0, 1.0)
    # mean rate: 0.25*1 + 0.75*(-1) = -0.5
    for t in (0.0, 0.5, 2.0):
        assert abs(flow.mean(t) - (-0.5 * t)) < 1e-14
        second = 0.25 * ((t) ** 2 + t) + 0.75 * ((-t) ** 2 + t)
        v = flow.view(t)
        assert abs(v.second_moment - second) < 1e-12


def test_mixture_flow_validation():
    with pytest.raises(ValueError):
        GaussianMixtureFlow(weights=np.array([0.5, 0.6]),
                            drift_rates=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        device_flow(1.5, -1.0, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["weights", "drift_rates", "x0"])
def test_mixture_flow_rejects_non_finite_fields(field, bad):
    # NaN weights passed both the sign and the sum check before
    fields = {"weights": np.array([0.5, 0.5]),
              "drift_rates": np.array([1.0, -1.0]), "x0": 0.0}
    fields[field] = {"weights": np.full(2, bad),
                     "drift_rates": np.array([bad, -1.0]), "x0": bad}[field]
    with pytest.raises(ValueError, match="finite"):
        GaussianMixtureFlow(**fields)


def test_mixture_flow_quantile_table():
    flow = device_flow(0.5, -1.0, 1.0)
    times = np.array([0.5, 1.0, 2.0])
    table = flow.quantile_table(times, n_points=256)
    assert table.shape == (3, 256)
    assert np.all(np.diff(table, axis=1) >= 0)
    # symmetric mixture: median at 0
    mid = 0.5 * (table[:, 127] + table[:, 128])
    assert np.max(np.abs(mid)) < 1e-6



@pytest.mark.parametrize("components", [1, 2, 3, 9, 17])
def test_view_at_all_times_matches_the_view_at_each(components):
    """One view of the whole grid equals the per-time views bit for bit,
    which lets the engine read a flow once per run."""
    gen = np.random.default_rng(components)
    w = gen.random(components)
    flow = GaussianMixtureFlow(weights=w / w.sum(),
                               drift_rates=gen.normal(0.0, 2.0, components),
                               x0=0.3)
    times = np.linspace(0.0, 2.0, 201)
    v = flow.view(times)
    assert v.mean.shape == v.second_moment.shape == times.shape
    for i, t in enumerate(times):
        vt = flow.view(t)
        assert v.mean[i] == vt.mean
        assert v.second_moment[i] == vt.second_moment
