"""1-d Wasserstein machinery against brute-force and closed-form oracles."""

import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from ccemfg.analytic import DeviceProbs
from ccemfg.correlation import build_example_device
from ccemfg.engine import TimeGrid
from ccemfg.metrics import (BISECT_TOL, QUANTILE_POINTS,
                            mixture_quantile_table, quantile_ranks)
from ccemfg import rng
from ccemfg._pathgen_py import norm_quantile


def empirical_quantiles(sorted_x, n_points=QUANTILE_POINTS):
    """The order statistics that ``quantile_ranks`` picks at the midpoint
    levels, of samples sorted along the last axis."""
    return sorted_x[..., quantile_ranks(sorted_x.shape[-1], n_points)]


def w2_equal_counts(x, y):
    """W2 between two samples of equal count n as the package couples
    samples: their empirical quantiles at the n midpoint levels, matched
    in order."""
    n = len(x)
    xq = empirical_quantiles(np.sort(np.asarray(x, dtype=float)), n)
    yq = empirical_quantiles(np.sort(np.asarray(y, dtype=float)), n)
    return float(np.sqrt(np.mean((xq - yq) ** 2)))


def w2_vs_table_row(x, row):
    """W2 between samples and one row of a quantile table, as the
    consistency check computes it: the samples' empirical quantiles at the
    row's levels against the row."""
    xq = empirical_quantiles(np.sort(x), row.size)
    return float(np.sqrt(np.mean((xq - row) ** 2)))


def w2_bruteforce(x, y):
    """Optimal coupling by exhaustive assignment (supports of equal size)."""
    x = np.asarray(x, dtype=float)
    best = np.inf
    for perm in itertools.permutations(range(len(y))):
        cost = np.mean((x - np.asarray(y, dtype=float)[list(perm)]) ** 2)
        best = min(best, cost)
    return np.sqrt(best)


def test_w2_trivial_cases():
    assert w2_equal_counts([0, 1], [0, 1]) == 0.0
    assert w2_equal_counts([0, 2], [1, 3]) == 1.0
    assert abs(w2_equal_counts([0, 1, 5], [2, 2, 2]) - np.sqrt(14 / 3)) < 1e-15


def test_w2_matches_bruteforce_assignment():
    gen = np.random.default_rng(0)
    for _ in range(1000):
        n = gen.integers(1, 7)
        x = gen.normal(size=n) * gen.uniform(0.1, 5)
        y = gen.normal(size=n) * gen.uniform(0.1, 5)
        assert abs(w2_equal_counts(x, y) - w2_bruteforce(x, y)) < 1e-12


def test_w2_triangle_inequality():
    gen = np.random.default_rng(1)
    for _ in range(1000):
        n = gen.integers(2, 20)
        x, y, z = (gen.normal(size=n) * 3 for _ in range(3))
        assert (w2_equal_counts(x, z)
                <= w2_equal_counts(x, y) + w2_equal_counts(y, z) + 1e-12)


@given(st.floats(-50, 50).filter(lambda s: abs(s) > 1e-6), st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_w2_scale_equivariance(scale, seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=10)
    y = gen.normal(size=10)
    d = w2_equal_counts(x, y)
    ds = w2_equal_counts(scale * x, scale * y)
    assert abs(ds - abs(scale) * d) <= 1e-13 * max(1.0, abs(scale) * d)


def test_w2_vs_single_gaussian_closed_form():
    # reference N(0,1) samples on an exact quantile grid, target N(mu, s^2)
    q = (np.arange(20000) + 0.5) / 20000
    z = norm_quantile(q)
    half = QUANTILE_POINTS // 2
    for s in (0.5, 1.0, 1.5, 2.0):
        for mu in (-1.0, 0.0, 2.0):
            d = w2_vs_table_row(z, mixture_quantile_table([1.0], [[mu]],
                                                          [[s]])[0])
            dh = w2_vs_table_row(z, mixture_quantile_table([1.0], [[mu]],
                                                           [[s]], half)[0])
            exact = np.sqrt(mu**2 + (1.0 - s) ** 2)
            # the 512-point grid truncates the tails; the change when the
            # grid is halved covers the overshoot beyond 1e-3 (worst case
            # sigma=2, mu=0: bias ~1.3e-3)
            assert abs(d - exact) < 1e-3 + abs(d - dh)


def test_w2_vs_mixture_self_samples():
    # samples of 0.5 N(-2, 1) + 0.5 N(2, 1): a component by one uniform,
    # its normal by inverse CDF of another
    key = rng.stream_key(4, rng.TAG_PROBE)
    u = rng.uniforms(key, np.arange(2 * 10**5)).reshape(2, -1)
    x = np.where(u[0] < 0.5, -2.0, 2.0) + norm_quantile(u[1])
    row = mixture_quantile_table([0.5, 0.5], [[-2.0, 2.0]], [[1.0, 1.0]])[0]
    assert w2_vs_table_row(x, row) < 0.05


def test_w2_vs_point_mass():
    # a single point's bracket collapses onto it: every quantile is 2.5
    row = mixture_quantile_table([1.0], [[2.5]], [[0.0]])[0]
    assert np.all(row == 2.5)
    assert w2_vs_table_row(np.full(100, 2.5), row) == 0.0


def test_mixture_cdf_quantile_roundtrip():
    w, m, s = np.array([0.4, 0.6]), np.array([-1.0, 3.0]), np.array([0.5, 2.0])
    x = mixture_quantile_table(w, [m], [s], 99)[0]
    q = (np.arange(99) + 0.5) / 99
    assert np.all(np.diff(x) > 0)
    cdf = np.sum(w * ndtr((x[:, None] - m) / s), axis=1)
    assert np.max(np.abs(cdf - q)) < 1e-9


def test_mixture_quantile_table_matches_slices():
    weights = np.array([0.25, 0.75])
    means_by_t = np.array([[0.0, 0.0], [1.0, -1.0], [2.0, -2.0]])
    sigmas_by_t = np.array([[0.1, 0.1], [1.0, 1.0], [1.4, 1.4]])
    table = mixture_quantile_table(weights, means_by_t, sigmas_by_t, 128)
    assert table.shape == (3, 128)
    _check_rows_match_single_rows(weights, means_by_t, sigmas_by_t, table)
    assert np.all(np.diff(table, axis=1) >= 0)


def test_empirical_quantiles_midpoint_rule():
    x = np.sort(np.arange(10, dtype=float))
    q = empirical_quantiles(x, 5)
    # midpoints of 5 blocks over 10 sorted points -> elements 1,3,5,7,9
    assert np.array_equal(q, x[[1, 3, 5, 7, 9]])


# Reference copies of the earlier bisections, which evaluated every
# component on a (T, P, K) array and summed with np.sum, stopping at a
# bracket of BISECT_TOL.  The Newton solver in ccemfg.metrics must agree
# with them within BISECT_TOL, and with a 30-digit mpmath root within
# 1e-13.

def _ref_mixture_quantile_table(weights, means_by_t, sigmas_by_t,
                                n_points=512):
    w = np.asarray(weights, dtype=np.float64)
    m = np.asarray(means_by_t, dtype=np.float64)
    s = np.asarray(sigmas_by_t, dtype=np.float64)
    q = ((np.arange(n_points) + 0.5) / n_points)[None, :, None]
    span = float(np.max(np.abs(m)) + 10.0 * np.max(s) + 1.0)
    lo = np.full((m.shape[0], n_points), -span)
    hi = np.full((m.shape[0], n_points), span)
    pos = s > 0.0
    s_safe = np.where(pos, s, 1.0)

    def cdf(x):
        xx = x[:, :, None]
        comp = np.where(pos[:, None, :],
                        ndtr((xx - m[:, None, :]) / s_safe[:, None, :]),
                        (xx >= m[:, None, :]).astype(np.float64))
        return np.sum(w * comp, axis=-1)

    while np.max(hi - lo) > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < q[:, :, 0]
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _flow_inputs(flow, times):
    means = flow.x0 + np.multiply.outer(times, flow.drift_rates)
    return flow.weights, means, np.sqrt(times)[:, None] * np.ones_like(means)


def _mp_quantile(mp, w, m, s, q, x0):
    """The q-quantile of one mixture in 30-digit arithmetic: an atom a with
    F(a-) < q <= F(a), else the root of F(x) = q found from ``x0`` (F is
    strictly increasing off the atoms, so the root is unique).  The tables
    have atoms only in single-point rows."""
    mp.mp.dps = 30
    q = mp.mpf(q)

    def cdf(x, left=False):
        total = mp.mpf(0)
        for wk, mk, sk in zip(w, m, s):
            if wk == 0.0:
                continue
            if sk == 0.0:
                total += wk * ((x > mk) if left else (x >= mk))
            else:
                total += wk * mp.ncdf((x - mk) / sk)
        return total

    for wk, mk, sk in zip(w, m, s):
        a = mp.mpf(mk)
        if wk > 0.0 and sk == 0.0 and cdf(a, left=True) < q <= cdf(a):
            return a
    return mp.findroot(lambda x: cdf(x) - q, mp.mpf(x0))


def _check_against_oracles(weights, means, sigmas, n_points=512, sample=48):
    """Every entry within BISECT_TOL of the bisection, rows nondecreasing,
    and a fixed sample of entries (plus the extreme levels of the first
    and last rows) within 1e-13 of the mpmath quantile."""
    mp = pytest.importorskip("mpmath")
    w = np.asarray(weights, dtype=np.float64)
    table = mixture_quantile_table(w, means, sigmas, n_points)
    ref = _ref_mixture_quantile_table(w, means, sigmas, n_points)
    assert np.max(np.abs(table - ref)) <= BISECT_TOL
    assert np.all(np.diff(table, axis=1) >= 0)
    gen = np.random.default_rng(17)
    last = len(means) - 1
    rows = np.r_[gen.integers(0, len(means), sample), 0, 0, last, last]
    cols = np.r_[gen.integers(0, n_points, sample), 0, n_points - 1,
                 0, n_points - 1]
    q = (np.arange(n_points) + 0.5) / n_points
    for r, c in zip(rows, cols):
        exact = _mp_quantile(mp, w, means[r], sigmas[r], q[c], table[r, c])
        assert abs(float(exact - mp.mpf(table[r, c]))) <= 1e-13, (r, c)
    return table


def _check_rows_match_single_rows(weights, means, sigmas, table):
    """Each table row is, to the last bit, the table of that row's mixture
    alone: the solver works point by point, so a row's bits do not depend
    on the rows solved in the same block."""
    for i in range(len(means)):
        alone = mixture_quantile_table(weights, means[i:i + 1],
                                       sigmas[i:i + 1], table.shape[1])
        assert np.array_equal(table[i], alone[0]), i


DEVICES = [(0.5, 0, 0, 0.5), (1, 0, 0, 0), (0.5, 0.3, 0.2, 0)]


@pytest.mark.parametrize("p", DEVICES)
def test_quantile_table_bit_identical_on_device_flows(p):
    # a class with one nonzero weight is one Gaussian at each time, and a
    # point mass at t = 0: its rows are m + s * norm_quantile(q) to the
    # last bit
    times = TimeGrid(2.0, 200).times           # row 0 holds the t = 0 atoms
    q = (np.arange(512) + 0.5) / 512
    device = build_example_device(DeviceProbs(*p), -1.0, 1.0)
    single = 0
    for entry in device.flow_classes().values():
        flow = entry["flow"]
        w, means, sigmas = _flow_inputs(flow, times)
        table = mixture_quantile_table(w, means, sigmas)
        assert np.array_equal(flow.quantile_table(times), table)
        _check_rows_match_single_rows(w, means, sigmas, table)
        if np.count_nonzero(w) == 1:
            single += 1
            k = np.flatnonzero(w)[0]
            want = means[:, k, None] + sigmas[:, k, None] * norm_quantile(q)
            assert np.array_equal(table, want)
    assert single >= 1
    for m, s in ((0.3, 1.7), (-2.0, 0.0)):
        assert np.array_equal(mixture_quantile_table([1.0], [[m]], [[s]])[0],
                              m + s * norm_quantile(q))


@pytest.mark.parametrize("p", DEVICES)
def test_quantile_table_against_oracles_on_device_flows(p):
    times = TimeGrid(2.0, 200).times
    device = build_example_device(DeviceProbs(*p), -1.0, 1.0)
    for entry in device.flow_classes().values():
        _check_against_oracles(*_flow_inputs(entry["flow"], times))


@pytest.mark.parametrize("n_points", [128, 512])
def test_quantile_table_bit_identical_n_points(n_points):
    flow = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0), -1.0,
                                1.0).flow_classes()["mu1"]["flow"]
    args = _flow_inputs(flow, TimeGrid(2.0, 50).times)
    table = mixture_quantile_table(*args, n_points)
    assert table.shape == (51, n_points)
    _check_rows_match_single_rows(*args, table)


@pytest.mark.parametrize("n_points", [128, 512])
def test_quantile_table_n_points_against_oracles(n_points):
    flow = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0), -1.0,
                                1.0).flow_classes()["mu1"]["flow"]
    _check_against_oracles(*_flow_inputs(flow, TimeGrid(2.0, 50).times),
                           n_points)


# row 0: every component a point at 0 (t = 0); rows 1-2: component 1 has
# zero sigma at t > 0, which only a zero weight allows
ATOM_MEANS = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5], [2.0, 3.0, -2.0]])
ATOM_SIGMAS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.7], [1.4, 0.0, 2.0]])
ATOM_WEIGHTS = [[0.2, 0.0, 0.8], [0.0, 0.0, 1.0], [0.7, 0.0, 0.3]]


@pytest.mark.parametrize("weights", ATOM_WEIGHTS)
def test_quantile_table_bit_identical_atoms_and_zero_weights(weights):
    # a zero-weight component is dropped: the table is bit for bit the
    # one of the mixture without it
    keep = np.flatnonzero(weights)
    for n_points in (128, 512):
        table = mixture_quantile_table(weights, ATOM_MEANS, ATOM_SIGMAS,
                                       n_points)
        assert np.array_equal(table, mixture_quantile_table(
            np.asarray(weights)[keep], ATOM_MEANS[:, keep],
            ATOM_SIGMAS[:, keep], n_points))
        _check_rows_match_single_rows(weights, ATOM_MEANS, ATOM_SIGMAS, table)
        assert np.all(table[0] == 0.0)


@pytest.mark.parametrize("weights", ATOM_WEIGHTS)
def test_quantile_table_atoms_and_zero_weights_against_oracles(weights):
    for n_points in (128, 512):
        _check_against_oracles(weights, ATOM_MEANS, ATOM_SIGMAS, n_points)


def test_quantile_table_rejects_rows_that_mix_points_and_gaussians():
    # one zero sigma among positive ones: a point mass inside a Gaussian
    with pytest.raises(ValueError, match="row 1"):
        mixture_quantile_table([0.5, 0.5], [[0.0, 0.0], [1.0, -1.0]],
                               [[0.0, 0.0], [1.0, 0.0]])
    # every sigma zero, but two different means: two point masses
    with pytest.raises(ValueError, match="row 0"):
        mixture_quantile_table([0.5, 0.5], [[1.0, -1.0]], [[0.0, 0.0]])
    with pytest.raises(ValueError, match="row 0"):
        mixture_quantile_table([1.0], [[0.0]], [[-1.0]])


def test_quantile_table_point_row_builds_without_warnings():
    # t = 0: both components are a point at x0, the single-point rule
    flow = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0), -1.0,
                                1.0).flow_classes()["mu1"]["flow"]
    times = TimeGrid(2.0, 20).times
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = flow.quantile_table(times)
    assert np.all(table[0] == 0.0)


# a two-component mixture, and a single point
MIXTURES = [([0.4, 0.6], [[-1.0, 3.0]], [[0.5, 2.0]]),
            ([1.0], [[2.5]], [[0.0]])]


def test_mixture_quantiles_bit_identical():
    # a quantile's bits do not depend on the rows solved with it: 600 rows
    # of one mixture span several blocks, and each equals the row alone
    for w, m, s in MIXTURES:
        alone = mixture_quantile_table(w, m, s, 64)
        table = mixture_quantile_table(w, np.repeat(m, 600, axis=0),
                                       np.repeat(s, 600, axis=0), 64)
        assert np.array_equal(table, np.repeat(alone, 600, axis=0))


def test_mixture_quantiles_against_oracles():
    for w, m, s in MIXTURES:
        _check_against_oracles(w, np.array(m), np.array(s))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mixture_quantiles_reject_non_finite_components(bad):
    # a non-finite second component, in one row of two
    with pytest.raises(ValueError, match="finite"):
        mixture_quantile_table([0.5, 0.5], [[0.0, 1.0], [0.0, bad]],
                               [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        mixture_quantile_table([0.5, 0.5], [[0.0, 1.0], [0.0, 1.0]],
                               [[1.0, 1.0], [1.0, bad]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["weights", "means", "sigmas"])
def test_gaussian_mixture_rejects_non_finite_fields(field, bad):
    # NaN weights would pass a sign and a sum check
    fields = {"weights": np.array([0.5, 0.5]),
              "means_by_t": np.array([[0.0, 1.0]]),
              "sigmas_by_t": np.array([[1.0, 1.0]])}
    if field == "weights":
        fields["weights"] = np.full(2, bad)
    else:
        fields[field + "_by_t"] = np.array([[bad, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        mixture_quantile_table(**fields)


def test_quantile_table_rejects_all_zero_weights():
    with pytest.raises(ValueError, match="positive weight"):
        mixture_quantile_table([0.0, 0.0], [[0.0, 1.0]], [[1.0, 1.0]])


@pytest.mark.parametrize("n_points", [0, -3])
def test_quantile_table_rejects_empty_grid(n_points):
    with pytest.raises(ValueError, match="n_points"):
        mixture_quantile_table([1.0], [[0.0]], [[1.0]], n_points)


@pytest.mark.parametrize("weights, means, sigmas", [
    ([0.5, 0.5], [[0.0, 1.0, 2.0]], [[1.0, 1.0, 1.0]]),   # K = 2 against 3
    ([1.0], [0.0], [1.0]),                                # 1-d means
    ([0.5, 0.5], [[0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]),  # sigmas' extra row
])
def test_quantile_table_rejects_mismatched_shapes(weights, means, sigmas):
    shapes = ", ".join(str(np.shape(a)) for a in (weights, means))
    with pytest.raises(ValueError, match=re.escape(
            f"got shapes {shapes} and {np.shape(sigmas)}")):
        mixture_quantile_table(weights, means, sigmas)


def test_quantile_table_traced_peak_pinned():
    # the two-component mu1 table (201 x 512): 2.48 MB traced on numpy
    # 2.4, about 3.0 tables; 2.81 MB while norm_cdf allocated its split
    # and most of its exponential's temporaries
    flow = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0), -1.0,
                                1.0).flow_classes()["mu1"]["flow"]
    times = TimeGrid(2.0, 200).times
    flow.quantile_table(times)
    tracemalloc.start()
    try:
        table = flow.quantile_table(times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * table.nbytes


def test_quantile_table_traced_peak_within_five_tables():
    # the bisection kept five (201, 512) float64 buffers alive; the Newton
    # solver works on blocks of rows and must not need more
    flow = build_example_device(DeviceProbs(0.5, 0.3, 0.2, 0), -1.0,
                                1.0).flow_classes()["mu1"]["flow"]
    times = TimeGrid(2.0, 200).times
    flow.quantile_table(times)
    tracemalloc.start()
    try:
        table = flow.quantile_table(times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * table.nbytes
