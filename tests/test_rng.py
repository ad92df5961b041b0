"""Counter-based RNG: determinism, stream independence, distributional checks."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from ccemfg import _pathgen_py, rng
from reference_paths import brownian_paths


def _splitmix64_oracle(x):
    # independent plain-int implementation of the 64-bit finalizer
    mask = (1 << 64) - 1
    x = x & mask
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & mask
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & mask
    return x ^ (x >> 31)


def test_mix64_matches_integer_oracle():
    for v in [0, 1, 2, 0xDEADBEEF, (1 << 64) - 1, 0x123456789ABCDEF0]:
        got = int(rng.mix64(np.uint64(v)))
        assert got == _splitmix64_oracle(v)


def test_mix64_vectorized_consistent():
    xs = np.arange(1000, dtype=np.uint64)
    vec = rng.mix64(xs)
    for i in [0, 17, 999]:
        assert int(vec[i]) == _splitmix64_oracle(i)


def test_stream_keys_take_numpy_integer_seeds_and_refuse_others():
    assert rng.stream_key(np.int64(5), 1) == rng.stream_key(5, 1)
    tags = (1, np.arange(3))
    assert np.array_equal(rng.stream_keys(np.uint64(2**63 + 1), *tags),
                          rng.stream_keys(2**63 + 1, *tags))
    for seed in (5.0, "5", None):
        with pytest.raises(ValueError, match="seed"):
            rng.stream_key(seed, 1)


def test_stream_keys_match_scalar_chain():
    keys = rng.stream_keys(42, rng.TAG_NOISE, np.arange(5)[:, None],
                           np.arange(3)[None, :])
    assert keys.shape == (5, 3)
    assert int(keys[2, 1]) == int(rng.stream_key(42, rng.TAG_NOISE, 2, 1))


def test_distinct_tags_give_distinct_streams():
    tags = [rng.TAG_NOISE, rng.TAG_SCENARIO, rng.TAG_RECOMMEND,
            rng.TAG_INIT, rng.TAG_PROBE]
    keys = [int(rng.stream_key(0, t, 0)) for t in tags]
    assert len(set(keys)) == len(keys)
    # and distinct seeds decorrelate the same stream
    assert int(rng.stream_key(0, rng.TAG_NOISE)) != int(rng.stream_key(1, rng.TAG_NOISE))


def test_uniforms_open_interval_and_deterministic():
    key = rng.stream_key(7, rng.TAG_PROBE)
    u = rng.uniforms(key, np.arange(100000))
    assert np.all(u > 0.0) and np.all(u < 1.0)
    again = rng.uniforms(key, np.arange(100000))
    assert np.array_equal(u, again)
    # index-addressed: a slice equals the corresponding draws
    part = rng.uniforms(key, np.arange(50, 80))
    assert np.array_equal(part, u[50:80])


def _bits_to_uniform(bits):
    """The uniform of 53-bit integers (the layout in ccemfg.rng), one
    temporary per operation: ``(bits + 0.5) * 2**-53``, which rounds to
    exactly 1.0 for ``bits = 2**53 - 1``, clamped to the largest double
    below 1."""
    u = (np.asarray(bits, dtype=np.uint64).astype(np.float64) + 0.5) * 2.0**-53
    u = np.minimum(u, np.nextafter(1.0, 0.0))
    return u if u.ndim else u[()]


def _keys_drawing(bits):
    """Keys whose draw 0 has the given top 53 bits (and all low bits set),
    found by inverting the finalizer."""
    raw = [b << 11 | 0x7FF for b in bits]
    assert [_splitmix64_oracle(_unmix64(r)) for r in raw] == raw
    return np.array([(_unmix64(r) - rng.GOLDEN) & ((1 << 64) - 1)
                     for r in raw], dtype=np.uint64)


def test_bits_to_uniform_stays_inside_open_interval():
    """The reference rule, and the draws of rng.uniforms with those top
    bits."""
    top = np.array([2**53 - 1, 2**53 - 2, 2**52, 2**52 + 1, 0],
                   dtype=np.uint64)
    u = _bits_to_uniform(top)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert u[0] == np.nextafter(1.0, 0.0)
    assert np.all(np.isfinite(_pathgen_py.norm_quantile(u)))
    # only the top value is clamped; all others keep (bits + 0.5) * 2**-53
    assert np.array_equal(u[1:], (top[1:].astype(np.float64) + 0.5) * 2.0**-53)
    assert _bits_to_uniform(2**53 - 1) == np.nextafter(1.0, 0.0)
    assert np.array_equal(rng.uniforms(_keys_drawing(top.tolist()), 0), u)


def test_uniforms_pass_moment_checks():
    key = rng.stream_key(3, rng.TAG_PROBE)
    u = rng.uniforms(key, np.arange(10**6))
    assert abs(u.mean() - 0.5) < 3 * 0.2887 / 1000
    assert abs(u.var() - 1 / 12) < 5e-4


def test_normals_standard_moments():
    key = rng.stream_key(5, rng.TAG_PROBE)
    z = _pathgen_py.norm_quantile(rng.uniforms(key, np.arange(10**6)))
    assert abs(z.mean()) < 3 / 1000
    assert abs(z.var() - 1.0) < 0.01
    assert abs((z**3).mean()) < 0.02


def test_norm_quantile_against_scipy():
    from scipy.stats import norm

    p = np.concatenate([np.linspace(1e-12, 1 - 1e-12, 2001),
                        [1e-15, 1 - 1e-15, 0.5]])
    got = _pathgen_py.norm_quantile(p)
    ref = norm.ppf(p)
    assert np.max(np.abs(got - ref)) < 1e-8
    # symmetry
    q = np.linspace(1e-6, 0.5, 500)
    assert np.allclose(_pathgen_py.norm_quantile(q),
                       -_pathgen_py.norm_quantile(1 - q), atol=1e-11)


# --- normal CDF and exp kernels (IEEE basic operations only)

_CDF_EDGES = np.array([_pathgen_py._CDF_INNER_MAX, _pathgen_py._CDF_TAIL_MIN])


def _cdf_points():
    """[-37, 8] on a grid, plus the region edges and their neighbours."""
    edges = np.concatenate([_CDF_EDGES, np.nextafter(_CDF_EDGES, 0.0),
                            np.nextafter(_CDF_EDGES, 9.0)])
    return np.concatenate([np.linspace(-37.0, 8.0, 1801), edges, -edges])


def test_norm_cdf_against_mpmath():
    mp = pytest.importorskip("mpmath")
    from scipy.special import ndtr

    mp.mp.dps = 30
    x = _cdf_points()
    exact = np.array([float(mp.ncdf(mp.mpf(v))) for v in x])
    err = np.abs(_pathgen_py.norm_cdf(x) - exact) / exact
    scipy_err = np.abs(ndtr(x) - exact) / exact
    assert err.max() <= 1e-15
    assert err.max() <= scipy_err.max()


def test_norm_cdf_gauss_factor_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    x = _cdf_points()
    gauss = np.empty_like(x)
    _pathgen_py.norm_cdf(x, gauss=gauss)
    exact = np.array([float(mp.exp(-mp.mpf(v) ** 2 / 2)) for v in x])
    assert np.all(np.abs(gauss - exact) <= 2 * np.spacing(exact))


def test_norm_cdf_against_scipy():
    from scipy.special import ndtr

    x = np.linspace(-37.0, 8.0, 200001)
    got, ref = _pathgen_py.norm_cdf(x), ndtr(x)
    rel = np.abs(got - ref) / ref
    assert rel.max() <= 3e-13                 # scipy's own error at -37
    assert rel[x >= -5.0].max() <= 1e-14


def test_norm_cdf_special_values_and_shapes():
    got = _pathgen_py.norm_cdf([np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300])
    assert np.array_equal(got, [1.0, 0.0, 0.5, 0.5, 1.0, 0.0])
    assert np.isnan(_pathgen_py.norm_cdf(np.nan))
    x = np.linspace(0.0, 9.0, 10001)
    assert np.array_equal(_pathgen_py.norm_cdf(x) + _pathgen_py.norm_cdf(-x),
                          np.ones_like(x))
    x = np.array([[0.1, -2.0, 7.0], [-0.5, 3.0, -40.0]])
    out, gauss = np.empty_like(x), np.empty_like(x)
    got = _pathgen_py.norm_cdf(x, out=out, gauss=gauss)
    assert got.shape == x.shape
    assert np.array_equal(out, got)
    assert np.array_equal(got.ravel(), _pathgen_py.norm_cdf(x.ravel()))


def test_exp_sum_against_math_exp():
    gen = np.random.default_rng(7)
    x = np.concatenate([gen.uniform(-708.0, 709.0, 20000),
                        gen.uniform(-1.0, 1.0, 20000),
                        [0.0, -708.0, 709.0, np.log(2.0) / 2]])
    got = _pathgen_py.exp_sum(x, np.zeros_like(x))
    want = np.array([math.exp(v) for v in x])
    assert np.all(np.abs(got - want) <= 2 * np.spacing(want))


def test_exp_sum_keeps_the_low_part():
    # a short high part and a small low part, as norm_cdf passes them: the
    # result is exp of the exact sum, not of its rounding
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    gen = np.random.default_rng(8)
    hi = -np.trunc(gen.uniform(0.0, 700.0, 400) * 512.0) / 512.0
    lo = gen.uniform(-2.5, 0.0, 400)
    got = _pathgen_py.exp_sum(hi, lo)
    want = np.array([float(mp.exp(mp.mpf(h) + mp.mpf(l)))
                     for h, l in zip(hi, lo)])
    assert np.all(np.abs(got - want) <= 2 * np.spacing(want))


def test_exp_sum_out_may_be_either_input():
    gen = np.random.default_rng(9)
    hi = -np.trunc(gen.uniform(0.0, 700.0, 1000) * 512.0) / 512.0
    lo = gen.uniform(-2.5, 0.0, 1000)
    want = _pathgen_py.exp_sum(hi, lo)
    for which in (0, 1):
        args = [hi.copy(), lo.copy()]
        got = _pathgen_py.exp_sum(*args, out=args[which])
        assert got is args[which]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("draw", [
    lambda gen: gen.standard_normal(8192),
    lambda gen: gen.uniform(-0.6, 0.6, 8192)], ids=["normal", "inner"])
def test_norm_cdf_allocates_only_abs_and_the_exponential_scratch(draw):
    # out and gauss hold the split; beside them norm_cdf keeps |x| and
    # exp_sum two arrays and an int32 exponent alive: 3.5 arrays of x.  The
    # inner region, all of x in the second case, holds |x| (its first
    # operand's buffer), x**2, the P accumulator and a mask of x: 3.1
    x = draw(np.random.default_rng(10))
    out, gauss = np.empty_like(x), np.empty_like(x)
    _pathgen_py.norm_cdf(x, out=out, gauss=gauss)
    tracemalloc.start()
    try:
        _pathgen_py.norm_cdf(x, out=out, gauss=gauss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.6 * x.nbytes


def test_norm_quantile_in_place_equals_a_new_array():
    u = rng.uniforms(rng.stream_key(13, rng.TAG_PROBE), np.arange(1 << 20))
    edges = np.array([1e-300, 1e-20, np.nextafter(1.0, 0.0)])
    # 2**20 is 32 whole blocks, 100,000 four equal ones
    for p in (u, u[:100_000], edges, np.array(0.3)):
        want = _pathgen_py.norm_quantile(p)
        out = np.empty_like(p)
        assert np.array_equal(_pathgen_py.norm_quantile(p, out=out), want)
        assert np.array_equal(out, want)
        got = p.copy()
        res = _pathgen_py.norm_quantile(got, out=got)
        assert res.shape == p.shape and np.shares_memory(res, got)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [5000, 100_000, 1 << 18])
def test_norm_quantile_in_place_holds_q_and_its_central_argument(n):
    # beside p, which it overwrites, a call holds q, the central argument
    # and the tails' gathered values (about 15% of uniform draws) of one
    # block: 2.3 arrays of a p of one block or less, 2.3 blocks of a longer
    p = rng.uniforms(rng.stream_key(31, rng.TAG_PROBE), np.arange(n))
    _pathgen_py.norm_quantile(p.copy())
    tracemalloc.start()
    try:
        _pathgen_py.norm_quantile(p, out=p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.7 * min(n, _pathgen_py.QUANTILE_BLOCK) * 8


def test_brownian_terminal_independent_of_steps():
    keys = rng.stream_keys(2, rng.TAG_NOISE, np.arange(20)[:, None],
                           np.arange(1)[None, :])
    w_coarse = brownian_paths(keys, 25, 2.0)
    w_fine = brownian_paths(keys, 200, 2.0)
    assert np.array_equal(w_coarse[..., -1], w_fine[..., -1])
    assert np.all(w_coarse[..., 0] == 0.0)


def test_brownian_increment_statistics():
    keys = rng.stream_keys(9, rng.TAG_NOISE, np.arange(2000)[:, None],
                           np.arange(1)[None, :])
    w = brownian_paths(keys, 50, 2.0)[:, 0, :]
    inc = np.diff(w, axis=1)
    dt = 2.0 / 50
    assert abs(inc.var() - dt) < 0.01 * dt * 10
    assert abs(inc.mean()) < 3 * np.sqrt(dt / inc.size)
    # terminal variance ~ T
    assert abs(w[:, -1].var() - 2.0) < 0.3


# --- reference kernels: whole-array PPND16 and the row-major bisection fill.
# The fast numpy kernels must reproduce these bit for bit.

def _ref_poly(coeffs, r):
    acc = np.full_like(r, coeffs[7])
    for c in (coeffs[6], coeffs[5], coeffs[4], coeffs[3],
              coeffs[2], coeffs[1], coeffs[0]):
        acc = acc * r + c
    return acc


def _ref_norm_quantile(p):
    A, B, C, D, E, F = (_pathgen_py._A, _pathgen_py._B, _pathgen_py._C,
                        _pathgen_py._D, _pathgen_py._E, _pathgen_py._F)
    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    central = np.abs(q) <= 0.425
    r_c = 0.180625 - q * q
    out = q * _ref_poly(A, r_c) / _ref_poly(B, r_c)
    pt = np.where(q < 0.0, p, 1.0 - p)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_t = np.sqrt(-np.log(np.where(central, 0.5, pt)))
        near = r_t <= 5.0
        z_near = _ref_poly(C, r_t - 1.6) / _ref_poly(D, r_t - 1.6)
        z_far = _ref_poly(E, r_t - 5.0) / _ref_poly(F, r_t - 5.0)
    z_tail = np.where(near, z_near, z_far)
    z_tail = np.where(q < 0.0, -z_tail, z_tail)
    return np.where(central, out, z_tail)


def _ref_brownian_paths(keys, steps, horizon):
    keys = np.asarray(keys, dtype=np.uint64)
    lo, mid, hi, frac, sd = _pathgen_py.bridge_plan(steps, horizon / steps)
    w = np.zeros(keys.shape + (steps + 1,))
    w[..., steps] = np.sqrt(horizon) * _ref_norm_quantile(rng.uniforms(keys, 0))
    for n in range(lo.shape[0]):
        z = _ref_norm_quantile(rng.uniforms(keys, n + 1))
        w_lo = w[..., lo[n]]
        w[..., mid[n]] = w_lo + frac[n] * (w[..., hi[n]] - w_lo) + sd[n] * z
    return w


def test_norm_quantile_bit_identical_on_counter_uniforms():
    u = rng.uniforms(rng.stream_key(13, rng.TAG_PROBE), np.arange(1 << 20))
    assert np.array_equal(_pathgen_py.norm_quantile(u), _ref_norm_quantile(u))


def test_norm_quantile_bit_identical_at_branch_edges():
    edges = [2.0**-54,            # smallest uniform rng.uniforms emits
             2.0**-53, 1 - 2.0**-53, 0.5, 0.075, 0.925, 0.5 - 0.425,
             0.5 + 0.425, np.exp(-25.0), 1 - np.exp(-25.0)]
    edges = np.array(edges)
    p = np.concatenate([edges, np.nextafter(edges, 0.0),
                        np.nextafter(edges, 1.0)])
    p = p[p < 1.0]
    assert np.array_equal(_pathgen_py.norm_quantile(p), _ref_norm_quantile(p))
    # 1 - 2**-54 rounds to 1.0, which the top raw draw also maps to
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(_pathgen_py.norm_quantile([1 - 2.0**-54]),
                              _ref_norm_quantile([1 - 2.0**-54]),
                              equal_nan=True)


@pytest.mark.parametrize("p", [0.3, 0.99, np.float64(0.01), np.array(0.7),
                               np.array([]), np.array([[0.01, 0.5, 0.97],
                                                       [0.2, 1e-12, 0.6]])])
def test_norm_quantile_input_shapes(p):
    got = _pathgen_py.norm_quantile(p)
    ref = _ref_norm_quantile(p)
    assert isinstance(got, np.ndarray)
    assert got.shape == ref.shape == np.shape(p)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 64, 200])
@pytest.mark.parametrize("shape", [(5,), (4, 3)])
def test_brownian_paths_bit_identical_to_row_major_fill(steps, shape):
    keys = rng.stream_keys(17, rng.TAG_NOISE,
                           np.arange(np.prod(shape)).reshape(shape))
    w = brownian_paths(keys, steps, 2.0)
    assert w.shape == shape + (steps + 1,)
    assert np.all(w[..., 0] == 0.0)
    assert np.array_equal(w, _ref_brownian_paths(keys, steps, 2.0))


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 64, 200])
def test_brownian_rows_in_time_order_match_row_major_fill(steps):
    keys = rng.stream_keys(19, rng.TAG_NOISE, np.arange(6)[:, None],
                           np.arange(4)[None, :])
    rows = list(_pathgen_py.brownian_rows(keys, steps, 2.0))
    assert len(rows) == steps + 1
    assert all(r.shape == keys.shape for r in rows)
    # W(0) is a broadcast zero with no buffer; the other rows are fresh
    assert rows[0].strides == (0, 0)
    assert all(r.flags.c_contiguous for r in rows[1:])
    assert np.array_equal(np.stack(rows, axis=-1),
                          _ref_brownian_paths(keys, steps, 2.0))


@pytest.mark.parametrize("batch", [1, 2, 5, 64])
@pytest.mark.parametrize("steps", [1, 2, 3, 7, 64, 200])
@pytest.mark.parametrize("shape", [(5,), (4, 3)])
def test_batched_walk_bit_identical_to_row_major_fill(monkeypatch, shape,
                                                      steps, batch):
    """The walk draws ``batch`` nodes per call, in pre-order: one node a
    call, two, five (a ragged last batch at 64 and 200 steps) and 64 (every
    node of the 64-step grid in one call); the draws are elementwise, so
    every row equals the row-major fill's."""
    keys = rng.stream_keys(23, rng.TAG_NOISE,
                           np.arange(np.prod(shape)).reshape(shape))
    monkeypatch.setattr(_pathgen_py, "_walk_batch", lambda *_: batch)
    rows = list(_pathgen_py.brownian_rows(keys, steps, 2.0))
    assert np.array_equal(np.stack(rows, axis=-1),
                          _ref_brownian_paths(keys, steps, 2.0))


def test_walk_batches_fill_a_quantile_block_within_the_walk_depth():
    assert _pathgen_py._walk_batch(4000, 200) == 2
    assert _pathgen_py._walk_batch(20_000, 200) == 1
    assert _pathgen_py._walk_batch(100, 20) == 2
    assert _pathgen_py._walk_batch(100, 2**12) == 3
    assert _pathgen_py._walk_batch(10_000, 2**12) == 3
    assert _pathgen_py._walk_batch(20_000, 2**12) == 1
    assert _pathgen_py._walk_batch(100, 1) == 1


@pytest.mark.parametrize("taken", [1, 2, 9])
def test_brownian_rows_frees_its_walk_without_the_garbage_collector(taken):
    """A walk dropped part way or at its end leaves no reference cycle,
    which would keep its copy of the keys alive until a collection."""
    keys = rng.stream_keys(19, rng.TAG_NOISE, np.arange(6))
    gc.collect()
    gc.disable()
    try:
        walk = _pathgen_py.brownian_rows(keys, 8, 2.0)
        for _ in range(taken):
            next(walk)
        del walk
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- reference counter hash: the temporaries-per-operation version that the
# in-place _raw64 / mix64 / uniforms must reproduce bit for bit.

def _ref_mix64(x):
    z = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _ref_raw64(key, index):
    key = np.asarray(key, dtype=np.uint64)
    index = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _ref_mix64(key + np.uint64(rng.GOLDEN) * (index + np.uint64(1)))


def _ref_uniforms(key, index):
    return _bits_to_uniform(_ref_raw64(key, index) >> np.uint64(11))


_KEYS = rng.stream_keys(23, rng.TAG_NOISE, np.arange(6))
_TOP = np.uint64((1 << 64) - 1)


@pytest.mark.parametrize("key, index", [
    (_KEYS[0], 3),                                    # scalar / scalar
    (_KEYS[1], np.uint64((1 << 64) - 1)),             # index + 1 wraps to 0
    (_KEYS[2], np.arange(1000)),                      # scalar / array
    (_TOP, np.array([0, 1, (1 << 63) + 5], dtype=np.uint64)),
    (_KEYS, 7),                                       # array / scalar
    (_KEYS[:, None], np.arange(9)[None, :]),          # (R, 1) / (1, N)
], ids=["scalar-scalar", "scalar-wrap", "scalar-array", "top-key",
        "array-scalar", "column-row"])
def test_hash_matches_reference(key, index):
    for fn, ref in ((rng._raw64, _ref_raw64), (rng.uniforms, _ref_uniforms)):
        got, want = fn(key, index), ref(key, index)
        assert np.shape(got) == np.shape(want)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # scalar inputs give a scalar uniform (_raw64 keeps a 0-d array)
    if not np.shape(want):
        assert not isinstance(got, np.ndarray)
        assert type(got) is type(want)


def _unmix64(y):
    """Inverse of the splitmix64 finalizer, on plain ints."""
    mask = (1 << 64) - 1

    def unshift(y, s):              # inverts y = x ^ (x >> s)
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    y = unshift(y, 31)
    y = y * pow(0x94D049BB133111EB, -1, 1 << 64) & mask
    y = unshift(y, 27)
    y = y * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask
    return unshift(y, 30)


_EDGE_BITS = [0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1]


def test_uniforms_convert_in_place_exactly_at_the_edges_of_53_bits():
    # the in-place cast must give what a separate float array gives, the
    # clamp at 2**53 - 1 included
    keys = _keys_drawing(_EDGE_BITS)
    assert rng._raw64(keys, 0).tolist() == [b << 11 | 0x7FF
                                            for b in _EDGE_BITS]
    got = rng.uniforms(keys, 0)
    want = _bits_to_uniform(rng._raw64(keys, 0) >> np.uint64(11))
    assert np.array_equal(got, want)
    assert got[-1] == np.nextafter(1.0, 0.0) and got[0] == 2.0**-54


def test_uniforms_into_given_buffers_equal_new_arrays():
    """A walk's draws, into a given float64 ``out`` and uint64 ``scratch``
    again and again, are bit for bit the draws of new arrays: at the edges
    of 53 bits (draw 0 of the first keys), at a scalar index that wraps and
    at an array index."""
    keys = np.concatenate([_keys_drawing(_EDGE_BITS),
                           rng.stream_keys(41, rng.TAG_PROBE,
                                           np.arange(993))]).reshape(40, 25)
    out, scratch = np.full(keys.shape, np.nan), np.empty_like(keys)
    for index in (0, 5, (1 << 64) - 1, np.arange(25, dtype=np.uint64)):
        want = _ref_uniforms(keys, index)
        assert np.array_equal(rng.uniforms(keys, index), want)
        got = rng.uniforms(keys, index, out, scratch)
        assert got is out and np.array_equal(got, want)
    assert np.array_equal(rng.uniforms(keys, 3, out=out),
                          _ref_uniforms(keys, 3))


def _ref_stream_keys(seed, *tags):
    """The key chain as one finalizer copy per tag."""
    k = _ref_mix64((seed & ((1 << 64) - 1)) ^ rng.SEED_SALT)
    with np.errstate(over="ignore"):
        for t in tags:
            t = np.asarray(t, dtype=np.uint64)
            k = _ref_mix64(k + np.uint64(rng.GOLDEN) * (t + np.uint64(1)))
    return k


def test_stream_keys_player_major_is_the_transpose_of_replication_major():
    reps, players = np.arange(40, 540), np.arange(200)
    pm = rng.stream_keys(9, rng.TAG_NOISE, reps[None, :], players[:, None])
    rm = rng.stream_keys(9, rng.TAG_NOISE, reps[:, None], players[None, :])
    assert pm.shape == (200, 500) and pm.flags.c_contiguous
    assert np.array_equal(pm, rm.T)
    assert np.array_equal(rm, _ref_stream_keys(9, rng.TAG_NOISE,
                                               reps[:, None],
                                               players[None, :]))
    assert rng.stream_keys(-3, 4, 5) == _ref_stream_keys(-3, 4, 5)
    assert rng.stream_keys(7) == _ref_stream_keys(7)


def test_stream_keys_hold_the_last_tag_and_one_scratch():
    reps, players = np.arange(500)[:, None], np.arange(200)[None, :]
    rng.stream_keys(3, rng.TAG_NOISE, reps, players)
    tracemalloc.start()
    try:
        keys = rng.stream_keys(3, rng.TAG_NOISE, reps, players)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * keys.nbytes


def test_mix64_matches_reference_and_keeps_its_input():
    x = rng.stream_keys(29, rng.TAG_PROBE, np.arange(500))
    x_before = x.copy()
    assert np.array_equal(rng.mix64(x), _ref_mix64(x))
    assert np.array_equal(x, x_before)
    assert np.array_equal(rng.mix64(x.reshape(20, 25)),
                          _ref_mix64(x).reshape(20, 25))
    scalar = rng.mix64(np.uint64(12345))
    assert not isinstance(scalar, np.ndarray)
    assert scalar == _ref_mix64(np.uint64(12345))
    assert rng.mix64(7) == _ref_mix64(7)

