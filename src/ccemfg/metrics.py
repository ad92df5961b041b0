"""Quantile grids for 1-d Wasserstein-2 comparisons with Gaussian mixtures.

In one dimension the optimal coupling matches quantiles, so samples are
compared with a flow at the midpoint levels of :func:`quantile_levels`:
the samples through the order statistics that :func:`quantile_ranks` picks,
the flow through its exact quantiles (:func:`mixture_quantile_table`),
with no sampling on the analytic side.  A quantile starts from the bracket
its components' quantiles give, which is already exact for a single
Gaussian or a single point, and finishes with safeguarded Halley steps on
the mixture pdf.  The normal CDF and its exponential are the package's own
numpy kernels (:mod:`ccemfg._pathgen_py`), so no table depends on numpy's
CPU dispatch through them.
"""

from __future__ import annotations

import numpy as np

from ._pathgen_py import _INV_SQRT_2PI, norm_cdf, norm_quantile

QUANTILE_POINTS = 512
# a quantile's search ends once its bracket is at most this wide
# (perfbench imports it under this name)
BISECT_TOL = 1e-10
# ... or once its step is at most this times 1 + |x|
_STEP_RTOL = 1e-12
# points per block of table rows solved together (bounds scratch memory)
_BLOCK_POINTS = 1 << 13


def quantile_levels(n_points: int) -> np.ndarray:
    """The midpoint levels (i + 0.5) / n_points, i = 0 .. n_points - 1."""
    return (np.arange(n_points) + 0.5) / n_points


def quantile_ranks(count: int, n_points: int = QUANTILE_POINTS) -> np.ndarray:
    """The 0-based ranks, among ``count`` sorted samples, of their empirical
    quantiles at :func:`quantile_levels`: min(floor(q * count), count - 1)."""
    return np.minimum((quantile_levels(n_points) * count).astype(np.int64),
                      count - 1)


def mixture_quantile_table(weights, means_by_t, sigmas_by_t,
                           n_points: int = QUANTILE_POINTS) -> np.ndarray:
    """Quantiles of a family of mixtures sharing weights.

    means_by_t, sigmas_by_t: arrays (n_t, K).  Returns (n_t, n_points) at
    :func:`quantile_levels`, one row per mixture.  Components of zero
    weight are dropped.  Over the others, each row must have every sigma
    positive, or be a single point: every sigma 0 and every mean equal, as
    a flow from a point start is at t = 0.

    Each level starts from the bracket [min_k Q_k(q), max_k Q_k(q)],
    Q_k(q) = m_k + s_k * norm_quantile(q), which always holds the mixture
    quantile.  The bracket collapses to the exact answer
    ``m + s * norm_quantile(q)`` for a single component and for a single
    point; :func:`_halley` narrows the others, and every entry is within
    1e-13 of the exact quantile on the shipped flows.  Rows are solved in
    blocks of about ``_BLOCK_POINTS`` points, so the scratch memory beyond
    the result does not grow with the table.  Each row is nondecreasing: a
    final running maximum along the levels removes any last-ulp inversion.
    Raises ``ValueError`` if ``n_points < 1``, the shapes are not (K,),
    (n_t, K) and (n_t, K), a weight, mean or sigma is not finite, no
    weight is positive or a row breaks the rule above.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    w = np.asarray(weights, dtype=np.float64)
    m = np.asarray(means_by_t, dtype=np.float64)
    s = np.asarray(sigmas_by_t, dtype=np.float64)
    if not (w.ndim == 1 and m.ndim == 2
            and s.shape == m.shape == (len(m), w.size)):
        raise ValueError(f"need weights (K,) and means and sigmas (n_t, K), "
                         f"got shapes {w.shape}, {m.shape} and {s.shape}")
    if not all(np.isfinite(a).all() for a in (w, m, s)):
        raise ValueError("mixture weights, means and sigmas must be finite")
    keep = w > 0.0
    if not keep.any():
        raise ValueError("a mixture needs a component of positive weight")
    w, m, s = w[keep], m[:, keep], s[:, keep]
    point = (s == 0.0).all(axis=1) & (m == m[:, :1]).all(axis=1)
    bad = np.flatnonzero(~((s > 0.0).all(axis=1) | point))
    if bad.size:
        raise ValueError(f"row {bad[0]}: a mixture needs every sigma "
                         "positive, or every sigma 0 and one mean")
    q = quantile_levels(n_points)
    z = norm_quantile(q)
    out = np.empty((m.shape[0], n_points))
    rows = max(1, _BLOCK_POINTS // n_points)
    for r in range(0, m.shape[0], rows):
        _solve_rows(w, m[r:r + rows], s[r:r + rows], q, z, out[r:r + rows])
    return np.maximum.accumulate(out, axis=1, out=out)


def _solve_rows(w, m, s, q, z, out):
    """Write into ``out`` (R, P) the quantiles at the levels ``q``
    (``z = norm_quantile(q)``) of the R mixtures in the rows of
    ``m``/``s``: the middle of each bracket, which is exact where the
    bracket has collapsed, and :func:`_halley`'s answer where it is wider
    than ``BISECT_TOL``."""
    lo, hi, qk = out, np.empty_like(out), np.empty_like(out)
    for k in range(w.size):
        np.multiply(s[:, k, None], z, out=qk)
        qk += m[:, k, None]
        if k == 0:
            lo[...] = qk
            hi[...] = qk
        else:
            np.minimum(lo, qk, out=lo)
            np.maximum(hi, qk, out=hi)
    act = np.flatnonzero(np.subtract(hi, lo, out=qk) > BISECT_TOL)
    if act.size:
        state = _halley_state(act, lo, hi, q, m, s)
    lo += hi
    lo *= 0.5
    if act.size:
        out.ravel()[act] = _halley(state, w)


def _halley_state(act, lo, hi, q, m, s) -> np.ndarray:
    """The points ``act`` (flat indices into ``lo``/``hi``) as one array
    with a row per field, which :func:`_halley` compacts in place: x (the
    midpoint), lo, hi, the level, the last step (the bracket width), then
    per component its mean and 1 / sigma.  An active point's row has
    every sigma positive: a single point's bracket has collapsed."""
    r, c = np.divmod(act, q.size)
    state = np.empty((5 + 2 * m.shape[1], act.size))
    x, lo_, hi_, level, step = state[:5]
    lo_[...] = lo.ravel()[act]
    hi_[...] = hi.ravel()[act]
    np.subtract(hi_, lo_, out=step)
    np.multiply(np.add(lo_, hi_, out=x), 0.5, out=x)
    level[...] = q[c]
    state[5::2] = m[r].T
    np.divide(1.0, s[r].T, out=state[6::2])
    return state


def _halley(state, w) -> np.ndarray:
    """Quantiles of the points in ``state`` (see :func:`_halley_state`) of
    the mixtures with weights ``w`` (K,).

    Safeguarded Halley steps on the mixture pdf f and its derivative: the
    Newton step t = (F - q) / f divided by 1 - t f' / (2 f), a factor kept
    in [1/2, 2], so a step is small only where the Newton step is.  A step
    that leaves the closed bracket [lo, hi], or is more than half the
    previous step, becomes a bisection.  A round evaluates each
    component's CDF and exp(-u**2 / 2) once, by one call of
    :func:`~ccemfg._pathgen_py.norm_cdf`.  A point stops once its step is
    at most ``_STEP_RTOL * (1 + |x|)`` or its bracket at most
    ``BISECT_TOL``, and is dropped from the state, which is compacted in
    place.
    """
    res = np.empty(state.shape[1])
    idx = np.arange(state.shape[1])
    scratch = np.empty((6, idx.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        while idx.size:
            n = idx.size
            x, lo, hi, level, step = state[:5]
            # cdf, pdf, its derivative and temporaries
            F, f, df, u, v, g = scratch[:, :n]
            F.fill(0.0)
            f.fill(0.0)
            df.fill(0.0)
            for (mk, ik), wk in zip(state[5:].reshape(-1, 2, n), w):
                np.subtract(x, mk, out=u)
                u *= ik
                # one exp per component: g = exp(-u**2 / 2) serves the
                # cdf, the pdf and its derivative
                F += np.multiply(norm_cdf(u, out=v, gauss=g), wk, out=v)
                g *= wk
                g *= ik
                f += g
                u *= g
                u *= ik
                df -= u
            f *= _INV_SQRT_2PI
            df *= _INV_SQRT_2PI
            below = F < level
            lo[...] = np.where(below, x, lo)
            hi[...] = np.where(below, hi, x)
            # the Halley iterate x - t / (1 - t f' / (2 f)), t the Newton
            # step (F - level) / f, into F; the factor stays in [1/2, 2]
            F -= level
            F /= f
            np.multiply(F, df, out=u)
            u /= f
            u *= -0.5
            u += 1.0
            np.clip(u, 0.5, 2.0, out=u)
            F /= u
            np.subtract(x, F, out=F)
            np.abs(np.subtract(F, x, out=u), out=u)
            accept = (F >= lo) & (F <= hi) & (u <= 0.5 * step)
            F = np.where(accept, F, 0.5 * (lo + hi))
            np.abs(np.subtract(F, x, out=u), out=u)
            done = ((u <= _STEP_RTOL * (1.0 + np.abs(x)))
                    | (hi - lo <= BISECT_TOL))
            x[...] = F
            step[...] = u
            if done.any():
                d = np.flatnonzero(done)
                res[idx[d]] = F[d]
                keep = np.flatnonzero(~done)
                for row in state:               # compact in place
                    row[:keep.size] = row[keep]
                state, idx = state[:, :keep.size], idx[keep]
    return res
