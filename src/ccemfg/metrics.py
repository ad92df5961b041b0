"""1-d Wasserstein-2 distances and Gaussian-mixture quantiles.

Everything here is exact-in-principle for d = 1: the optimal coupling of
two empirical measures with equal counts matches order statistics, and the
analytic side of sample-vs-mixture comparisons uses mixture quantiles
instead of sampling.  A quantile starts from the bracket its components'
quantiles give, which is already exact for a single Gaussian or a point
mass, and finishes with safeguarded Halley steps on the mixture pdf.  The
normal CDF and its exponential are the package's own numpy kernels
(:mod:`ccemfg._pathgen_py`), so no table depends on numpy's CPU dispatch
through them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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


def as_sorted(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    return np.sort(x)


def w2_empirical_1d(x, y) -> float:
    """W2 between two 1-d empirical measures.

    Equal sample counts use the exact order-statistics coupling.  Unequal
    counts fall back to a common quantile grid (flagged with a warning).
    """
    xs = as_sorted(x)
    ys = as_sorted(y)
    if xs.size == ys.size:
        return float(np.sqrt(np.mean((xs - ys) ** 2)))
    warnings.warn("unequal sample counts: using a common quantile grid",
                  stacklevel=2)
    xq = xs[quantile_ranks(xs.size)]
    yq = ys[quantile_ranks(ys.size)]
    return float(np.sqrt(np.mean((xq - yq) ** 2)))


@dataclass(frozen=True)
class GaussianMixture1D:
    """Finite Gaussian mixture on the line; zero-variance components are
    point masses."""

    weights: np.ndarray
    means: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        m = np.atleast_1d(np.asarray(self.means, dtype=np.float64))
        s = np.atleast_1d(np.asarray(self.sigmas, dtype=np.float64))
        if not (w.shape == m.shape == s.shape):
            raise ValueError("weights, means, sigmas must share a shape")
        if not all(np.isfinite(a).all() for a in (w, m, s)):
            raise ValueError("weights, means and sigmas must be finite")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.any(s < 0):
            raise ValueError("component variances must be nonnegative")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "sigmas", s)

    @property
    def mean(self) -> float:
        return float(np.sum(self.weights * self.means))

    @property
    def second_moment(self) -> float:
        return float(np.sum(self.weights * (self.means**2 + self.sigmas**2)))

    def cdf(self, x) -> np.ndarray:
        return _mixture_cdf(np.asarray(x, dtype=np.float64), self.weights,
                            self.means, self.sigmas)

    def quantiles(self, q) -> np.ndarray:
        """Quantile function at the levels ``q``, of any shape (handles
        atoms).  Raises ``ValueError`` unless every level lies in (0, 1)."""
        q = np.asarray(q, dtype=np.float64)
        x = _mixture_quantiles(self.weights, self.means[None, :],
                               self.sigmas[None, :], q.ravel())
        return x.reshape(q.shape)


def mixture_quantile_table(weights, means_by_t, sigmas_by_t,
                           n_points: int = QUANTILE_POINTS) -> np.ndarray:
    """Quantiles of a family of mixtures sharing weights.

    means_by_t, sigmas_by_t: arrays (n_t, K).  Returns (n_t, n_points) at
    the midpoints (i + 0.5) / n_points, one row per mixture, computed by
    :func:`_mixture_quantiles`: a single-component row is exactly
    ``m + s * norm_quantile(q)``, and every entry is within 1e-13 of the
    exact quantile on the shipped flows.  Each row is nondecreasing: a final
    running maximum along the levels removes any last-ulp inversion next
    to an atom.  Raises ``ValueError`` if ``n_points < 1``.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    q = quantile_levels(n_points)
    table = _mixture_quantiles(np.asarray(weights, dtype=np.float64),
                               np.asarray(means_by_t, dtype=np.float64),
                               np.asarray(sigmas_by_t, dtype=np.float64), q)
    return np.maximum.accumulate(table, axis=1, out=table)


def _mixture_cdf(x, w, m, s, left: bool = False) -> np.ndarray:
    """CDF at ``x`` of the mixtures with weights ``w`` (K,) and component
    means and sigmas ``m``, ``s`` broadcasting against ``x[..., None]``.
    A zero-sigma component is a point mass: it counts where ``x >= m``,
    or where ``x > m`` for the left limit F(x-) (``left=True``)."""
    x = x[..., None]
    pos = s > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        comp = np.where(pos, norm_cdf((x - m) / np.where(pos, s, 1.0)),
                        (x > m) if left else (x >= m))
    return np.sum(w * comp, axis=-1)


def _mixture_quantiles(w, m, s, q) -> np.ndarray:
    """Quantiles at the levels ``q`` (P,) of the mixtures in the rows of
    ``m``/``s`` (T, K) with weights ``w`` (K,); returns (T, P).

    Over the nonzero-weight components, each level starts from the bracket
    [min_k Q_k(q), max_k Q_k(q)], Q_k(q) = m_k + s_k * norm_quantile(q),
    which always holds the mixture quantile (an atom has Q_k = m_k).  The
    bracket collapses to the exact answer for a single component and for
    rows of atoms at one point; :func:`_solve_rows` narrows the others.
    Rows are solved in blocks of about ``_BLOCK_POINTS`` points, so the
    scratch memory beyond the result does not grow with the table.
    Raises ``ValueError`` unless every level lies in (0, 1), the weights,
    means and sigmas are finite and some weight is positive.
    """
    bad = ~((q > 0.0) & (q < 1.0))
    if bad.any():
        raise ValueError("quantile levels must lie in (0, 1), got "
                         f"{float(q[bad][0])}")
    if not all(np.isfinite(a).all() for a in (w, m, s)):
        raise ValueError("mixture weights, means and sigmas must be finite")
    keep = w > 0.0
    if not keep.any():
        raise ValueError("a mixture needs a component of positive weight")
    w, m, s = w[keep], m[:, keep], s[:, keep]
    z = norm_quantile(q)
    out = np.empty((m.shape[0], q.size))
    rows = max(1, _BLOCK_POINTS // max(1, q.size))
    for r in range(0, m.shape[0], rows):
        _solve_rows(w, m[r:r + rows], s[r:r + rows], q, z, out[r:r + rows])
    return out


def _solve_rows(w, m, s, q, z, out):
    """Write into ``out`` (R, P) the quantiles at the levels ``q``
    (``z = norm_quantile(q)``) of the R mixtures in the rows of
    ``m``/``s``.

    An atom inside a bracket is tested first, with one CDF evaluation per
    row: it either is the quantile (F(a-) < q <= F(a)), and the bracket
    collapses onto it, or it becomes an end of the bracket.  The CDF is
    then continuous inside every bracket, and the points whose bracket is
    still wider than ``BISECT_TOL`` go to :func:`_halley`.
    """
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
    atom = s == 0.0
    for k in np.flatnonzero(atom.any(axis=0)):
        a = m[:, k, None]
        inside = atom[:, k, None] & (lo <= a) & (a <= hi)
        left = _mixture_cdf(a[:, 0], w, m, s, left=True)[:, None]
        right = _mixture_cdf(a[:, 0], w, m, s)[:, None]
        lo[...] = np.where(inside & (left < q), a, lo)
        hi[...] = np.where(inside & (right >= q), a, hi)
    act = np.flatnonzero(np.subtract(hi, lo, out=qk) > BISECT_TOL)
    if act.size:
        state = _halley_state(act, lo, hi, q, w, m, s)
    lo += hi
    lo *= 0.5                   # exact where the bracket has collapsed
    if act.size:
        out.ravel()[act] = _halley(state)


def _halley_state(act, lo, hi, q, w, m, s) -> np.ndarray:
    """The points ``act`` (flat indices into ``lo``/``hi``) as one array
    with a row per field, which :func:`_halley` compacts in place: x (the
    midpoint), lo, hi, the level less the atoms at or below lo, the last
    step (the bracket width), then per component its mean, 1 / sigma and
    weight (1 and 0 for an atom, which adds a constant to the CDF inside
    the bracket)."""
    r, c = np.divmod(act, q.size)
    state = np.empty((5 + 3 * w.size, act.size))
    x, lo_, hi_, level, step = state[:5]
    lo_[...] = lo.ravel()[act]
    hi_[...] = hi.ravel()[act]
    np.subtract(hi_, lo_, out=step)
    np.multiply(np.add(lo_, hi_, out=x), 0.5, out=x)
    level[...] = q[c]
    pos = s > 0.0
    inv, wc = 1.0 / np.where(pos, s, 1.0), np.where(pos, w, 0.0)
    for k in range(w.size):
        mk = state[5 + 3 * k]
        mk[...] = m[r, k]
        state[6 + 3 * k] = inv[r, k]
        state[7 + 3 * k] = wc[r, k]
        level -= np.where(~pos[r, k] & (mk <= lo_), w[k], 0.0)
    return state


def _halley(state) -> np.ndarray:
    """Quantiles of the points in ``state`` (see :func:`_halley_state`).

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
            for mk, ik, wk in state[5:].reshape(-1, 3, n):
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


def empirical_quantiles(sorted_x: np.ndarray,
                        n_points: int = QUANTILE_POINTS) -> np.ndarray:
    """Empirical quantiles at the midpoint grid; input sorted along axis -1."""
    return sorted_x[..., quantile_ranks(sorted_x.shape[-1], n_points)]


def w2_vs_gaussian_mixture_1d(x, mix: GaussianMixture1D,
                              return_bound: bool = False):
    """Approximate W2 between samples and an analytic mixture.

    Couples the empirical quantiles with the mixture quantiles on a
    midpoint grid of QUANTILE_POINTS values.  With ``return_bound=True``
    also returns an empirical grid-error estimate (the change when the grid
    is halved), which bounds the discretization bias from above in
    practice.
    """
    xs = as_sorted(x)
    xq = empirical_quantiles(xs)
    mq = mix.quantiles(quantile_levels(QUANTILE_POINTS))
    d = float(np.sqrt(np.mean((xq - mq) ** 2)))
    if not return_bound:
        return d
    half = QUANTILE_POINTS // 2
    xqh = empirical_quantiles(xs, half)
    mqh = mix.quantiles(quantile_levels(half))
    dh = float(np.sqrt(np.mean((xqh - mqh) ** 2)))
    return d, abs(d - dh)
