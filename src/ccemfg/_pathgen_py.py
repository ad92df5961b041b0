"""Numerical kernels, in numpy: the only implementation.

Implements the inverse normal CDF (Wichura's PPND16 rational
approximations), the normal CDF (Cody's rational Chebyshev
approximations), an exponential, and the Brownian-bridge path builder,
following the stream layout documented in :mod:`ccemfg.rng`.

The normal CDF and the exponential use only IEEE basic operations
(``+ - * /``) and exact ones (``abs``, ``minimum``, ``copysign``,
``floor``, ``trunc``, ``ldexp``), which give the same bits at every numpy
CPU dispatch level.  The inverse CDF also calls ``np.log`` and ``np.sqrt``
in its tails.

The inverse CDF evaluates each tail branch only on the elements that take
it, a block of elements at a time.  Every element still gets the same
floating-point operations in the same order as a whole-array evaluation,
so the outputs are bit-identical to it.

The bridge draws the terminal value first (draw 0 of each stream), then
fills interior grid points by recursive bisection.  The terminal value is
therefore independent of the number of steps, which keeps coarse and fine
discretizations consistent at the horizon.  :func:`bridge_plan` numbers
the bisection nodes breadth-first, and node ``n`` consumes draw ``n + 1``.

:func:`brownian_rows` walks that tree in order (depth-first, left subtree,
node, right subtree), so the values of W come out in time order, one row
of the keys' shape per grid point.  Each node uses its breadth-first
draw and the same four in-place operations on its endpoints, so every row
is bit-identical to the matching time slice of a breadth-first fill, while
only the rows on the current root-to-leaf path (about log2(steps) + 2) are
alive.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .rng import uniforms

# PPND16 coefficients (central region)
_A = (3.3871328727963666080, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
      5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
      2.8729085735721942674e4, 5.2264952788528545610e3)
# intermediate tail
_C = (1.42343711074968357734, 4.63033784615654529590, 5.76949722146069140550,
      3.64784832476320460504, 1.27045825245236838258, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187, 1.67638483018380384940,
      6.89767334985100004550e-1, 1.48103976427480074590e-1,
      1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
# far tail
_E = (6.65790464350110377720, 5.46378491116411436990, 1.78482653991729133580,
      2.96560571828504891230e-1, 2.65321895265761230930e-2,
      1.24266094738807843860e-3, 2.71155556874348757815e-5,
      2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
      1.48753612908506148525e-2, 7.86869131145613259100e-4,
      1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


# Cody's normal CDF (his ANORM; Math. Comp. 23, 1969), polynomials listed
# lowest power first like the PPND16 ones.  |x| <= 0.66291:
# Phi(x) = 0.5 + x * P(x**2) / Q(x**2)
_CDF_P = (1.8154981253343561249e4, 1.0676894854603709582e3,
          1.6102823106855587881e2, 2.2352520354606839287,
          6.5682337918207449113e-2)
_CDF_Q = (4.5507789335026729956e4, 1.0260932208618978205e4,
          9.7609855173777669322e2, 4.720258190468824187e1, 1.0)
# 0.66291 < |x| <= sqrt(32): Phi(-|x|) = exp(-x**2 / 2) * R(|x|) / S(|x|)
_CDF_R = (9.8427148383839780218e3, 1.1602651437647350124e4,
          6.8481904505362823326e3, 2.4945375852903726711e3,
          5.9727027639480026226e2, 9.3506656132177855979e1,
          8.8831497943883759412, 3.9894151208813466764e-1,
          1.0765576773720192317e-8)
_CDF_S = (1.9685429676859990727e4, 3.8912003286093271411e4,
          3.4900952721145977266e4, 1.8615571640885098091e4,
          6.485558298266760755e3, 1.519377599407554805e3,
          2.3538790178262499861e2, 2.2266688044328115691e1, 1.0)
# |x| > sqrt(32), v = 1 / x**2:
# Phi(-|x|) = exp(-x**2 / 2) * (1 / sqrt(2 pi) - v * T(v) / U(v)) / |x|
_CDF_T = (2.9112874951168792e-5, 1.421619193227893466e-3,
          2.2235277870649807e-2, 1.274011611602473639e-1,
          2.1589853405795699e-1, 2.307344176494017303e-2)
_CDF_U = (7.29751555083966205e-5, 3.78239633202758244e-3,
          6.59881378689285515e-2, 4.68238212480865118e-1,
          1.28426009614491121, 1.0)
_CDF_INNER_MAX = 0.66291
_CDF_TAIL_MIN = 5.656854249492380195206754896838    # sqrt(32)
_INV_SQRT_2PI = 0.398942280401432677939946059934

# Cephes exp: exp(r) = 1 + 2 r P(r**2) / (Q(r**2) - r P(r**2)) for
# |r| <= ln(2) / 2, and ln 2 split into a short high part, whose products
# with the integers n here are exact, and a low part
_EXP_P = (9.99999999999999999910e-1, 3.02994407707441961300e-2,
          1.26177193074810590878e-4)
_EXP_Q = (2.00000000000000000009, 2.27265548208155028766e-1,
          2.52448340349684104192e-3, 3.00198505138664455042e-6)
_LN2_HI = 6.93145751953125e-1
_LN2_LO = 1.42860682030941723212e-6
_LOG2_E = 1.4426950408889634073599

# The most elements :func:`norm_quantile` takes at a time, in equal blocks:
# its temporaries then stay in the L2 cache and reuse the same pages.  On
# 40k to 400k draws that ran 1.3 to 2 times faster than one pass over the
# whole array; blocks of 16k lost to the calls' overhead on 20k draws
QUANTILE_BLOCK = 32768


def _poly(coeffs, r, out=None):
    """Horner evaluation at ``r`` of the polynomial with coefficients
    ``coeffs``, lowest power first, in place in ``out`` (not ``r``)."""
    acc = np.multiply(r, coeffs[-1], out=out)
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= r
        acc += c
    return acc


def norm_quantile(p: np.ndarray, out=None) -> np.ndarray:
    """Inverse standard normal CDF for p strictly inside (0, 1).

    The central rational is evaluated on every element: |q| <= 0.5 keeps
    its argument in [-0.07, 0.18], where it is finite.  The tail rationals
    are evaluated only on the elements outside |q| <= 0.425 (about 15% of
    uniform draws), the far tail only where r > 5.  Each element gets the
    same operations as a whole-array evaluation of its own branch.

    The result is written into ``out`` when given, a C-contiguous float64
    array of ``p``'s shape that may be ``p`` itself.  The elements are
    taken in equal blocks of at most ``QUANTILE_BLOCK``, each read before
    it is written, so besides ``out`` a call holds about 2.3 blocks (q,
    the central argument and the tails' gathered values).
    """
    p = np.asarray(p, dtype=np.float64)
    flat = p.reshape(-1)
    res = np.empty_like(flat) if out is None else out.reshape(-1)
    blocks = max(1, -(-flat.size // QUANTILE_BLOCK))
    size = max(1, -(-flat.size // blocks))
    for a in range(0, flat.size, size):
        _quantile_block(flat[a:a + size], res[a:a + size])
    return res.reshape(p.shape)


def _quantile_block(p, out):
    """:func:`norm_quantile` of the 1-d ``p`` into ``out``, which may be
    ``p``: the tails' p values are gathered before ``out`` is written."""
    q = p - 0.5
    r = np.abs(q)
    tail = np.flatnonzero(r > 0.425)
    lower = q[tail] < 0.0
    pt = p[tail]

    np.multiply(q, q, out=r)
    np.subtract(0.180625, r, out=r)
    _poly(_A, r, out=out)
    out *= q
    out /= _poly(_B, r, out=q)
    del q, r                    # freed before the tails' temporaries

    # tails: r = sqrt(-log(min(p, 1 - p)))
    if tail.size:
        pt = np.where(lower, pt, 1.0 - pt)
        r = np.sqrt(-np.log(pt))
        z = _poly(_C, r - 1.6)
        z /= _poly(_D, r - 1.6)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            rf = r[far] - 5.0
            z[far] = _poly(_E, rf) / _poly(_F, rf)
        out[tail] = np.where(lower, -z, z)


def exp_sum(hi, lo, out=None) -> np.ndarray:
    """exp(hi + lo), elementwise, for finite |hi + lo| <= 1000, within two
    ulps where the result is a normal number.

    ``lo`` is a low-order part of the argument, added after the argument
    reduction, so an argument known as an unevaluated sum keeps its
    precision.  Cephes' method: hi + lo = n ln 2 + r with n integral and
    |r| <= ln(2) / 2, the Pade form for exp(r), then ``ldexp`` by n.
    ``out`` may be ``hi`` or ``lo``: both are read before it is written.
    """
    n = hi + lo
    n *= _LOG2_E
    n += 0.5
    np.floor(n, out=n)
    r = n * -_LN2_HI
    r += hi                     # exact: hi is near n * _LN2_HI, or short
    r += lo
    p = np.empty_like(r) if out is None else out       # hi, lo are read
    r -= np.multiply(n, _LN2_LO, out=p)
    with np.errstate(invalid="ignore"):                 # NaN
        k = n.astype(np.int32)
    rr = np.multiply(r, r, out=n)
    _poly(_EXP_P, rr, out=p)
    p *= r
    q = _poly(_EXP_Q, rr, out=r)
    q -= p
    p /= q
    p *= 2.0
    p += 1.0
    with np.errstate(invalid="ignore", over="ignore"):  # NaN, overflow
        return np.ldexp(p, k, out=p)


def norm_cdf(x, out=None, gauss=None) -> np.ndarray:
    """Standard normal CDF, elementwise, by Cody's rational approximations
    (within 1e-15 relative of the exact value on [-37, 8]).

    The factor exp(-x**2 / 2) is computed once, as :func:`exp_sum` of
    -a**2 / 2 and -(|x| - a) (|x| + a) / 2 with a = trunc(16 |x|) / 16, so
    the first part is exact (Cody's split, which keeps the factor within a
    few ulps where x**2 / 2 is large).  It is written into ``gauss`` when
    given, so a caller that needs the density as well does not compute it
    again.  ``out`` and ``gauss``, C-contiguous arrays of ``x``'s shape
    apart from ``x``, hold the split as well.  The inner and tail regions
    of the approximation are evaluated only on the elements that take
    them, as in :func:`norm_quantile`.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    res = np.empty_like(flat) if out is None else out.reshape(-1)
    e = np.empty_like(flat) if gauss is None else gauss.reshape(-1)
    y = np.abs(flat)
    np.minimum(y, 40.0, out=y)          # exp(-y**2 / 2) is 0 beyond 38.6
    a = np.multiply(y, 16.0, out=e)
    np.trunc(a, out=a)
    a *= 0.0625
    d = np.subtract(y, a, out=res)
    d *= y + a
    d *= -0.5
    a *= a
    a *= -0.5
    exp_sum(a, d, out=e)

    _poly(_CDF_R, y, out=res)
    res /= _poly(_CDF_S, y)
    tail = np.flatnonzero(y > _CDF_TAIL_MIN)
    if tail.size:
        yt = y[tail]
        v = yt * yt
        np.divide(1.0, v, out=v)
        t = _poly(_CDF_T, v)
        t *= v
        t /= _poly(_CDF_U, v)
        np.subtract(_INV_SQRT_2PI, t, out=t)
        t /= yt
        res[tail] = t
    res *= e                            # Phi(-|x|)
    # 1 - Phi(-|x|) where x > 0: (x > 0) - copysign(Phi(-|x|), x)
    np.copysign(res, flat, out=res)
    np.subtract(flat > 0.0, res, out=res)
    # the inner region in |x|'s buffer, with Q(x**2) in x's once P is
    # scaled: three arrays of its size, whichever region the points are in
    inner = y <= _CDF_INNER_MAX
    k = np.count_nonzero(inner)
    if k:
        xi = np.compress(inner, flat, out=y[:k])
        xx = xi * xi
        t = _poly(_CDF_P, xx)
        t *= xi
        t /= _poly(_CDF_Q, xx, out=xi)
        t += 0.5
        res[inner] = t
    return res.reshape(x.shape)


def bridge_plan(steps: int, dt: float):
    """Shared bisection schedule for a grid of ``steps`` intervals.

    Returns int64 arrays (lo, mid, hi), the interpolation fractions and the
    conditional standard deviations, in the fixed breadth-first fill order.
    Node ``n`` consumes draw ``n + 1`` of each stream (draw 0 is terminal).
    """
    los, mids, his = [], [], []
    queue = deque([(0, steps)])
    while queue:
        lo, hi = queue.popleft()
        if hi - lo < 2:
            continue
        mid = (lo + hi) // 2
        los.append(lo)
        mids.append(mid)
        his.append(hi)
        queue.append((lo, mid))
        queue.append((mid, hi))
    lo = np.asarray(los, dtype=np.int64)
    mid = np.asarray(mids, dtype=np.int64)
    hi = np.asarray(his, dtype=np.int64)
    frac = (mid - lo) / (hi - lo)
    sd = np.sqrt((mid - lo) * (hi - mid) / (hi - lo) * dt)
    return lo, mid, hi, frac, sd


def _interior_rows(keys, plan, node, l, h, w_l, w_h, draw):
    """The rows of :func:`brownian_rows` strictly between grid points l and
    h, in time order.  ``draw`` is the walk's scratch: a float64 and a
    uint64 array of the keys' shape, which every node draws its normals
    into.  A module function, not a closure: a closure that calls itself
    is a reference cycle, which would keep ``keys`` alive after the walk
    until the garbage collector runs."""
    n = node.get((l, h))
    if n is None:                          # h - l < 2: no interior point
        return
    _, mid, _, frac, sd = plan
    z = uniforms(keys, n + 1, *draw)
    norm_quantile(z, out=z)
    z *= sd[n]
    w_m = np.subtract(w_h, w_l)
    w_m *= frac[n]
    w_m += w_l
    w_m += z
    m = int(mid[n])
    yield from _interior_rows(keys, plan, node, l, m, w_l, w_m, draw)
    yield w_m
    yield from _interior_rows(keys, plan, node, m, h, w_m, w_h, draw)


def brownian_rows(keys: np.ndarray, steps: int, horizon: float):
    """Yield W(t_0), ..., W(t_steps) in time order, each a float64 array of
    ``keys``' shape.  The first row is a read-only broadcast of 0.0, which
    holds no buffer; the others are C-contiguous, and each is a new array,
    so a caller may keep them.

    The bisection tree of :func:`bridge_plan` is walked in order.  A row is
    held only while a later row still interpolates from it, so at most
    about log2(steps) + 2 rows of the walk are alive at once, besides the
    two arrays that every interior node draws into.  The keys and those
    arrays are held until the last interior row is drawn; on a one-step
    grid there are none, and the keys are freed once W(0) has been taken.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    plan = bridge_plan(steps, horizon / steps)
    lo, _, hi, _, _ = plan
    node = {(l, h): n for n, (l, h) in enumerate(zip(lo.tolist(), hi.tolist()))}
    draw = (np.empty(keys.shape), np.empty_like(keys)) if lo.size else ()
    w_T = uniforms(keys, 0)
    norm_quantile(w_T, out=w_T)
    w_T *= np.sqrt(horizon)
    w_0 = np.broadcast_to(np.float64(0.0), keys.shape)
    interior = _interior_rows(keys, plan, node, 0, steps, w_0, w_T, draw)
    del keys, draw
    yield w_0
    yield from interior
    yield w_T

