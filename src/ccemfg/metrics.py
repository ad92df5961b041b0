"""1-d Wasserstein-2 distances and Gaussian-mixture quantiles.

Everything here is exact-in-principle for d = 1: the optimal coupling of
two empirical measures with equal counts matches order statistics, and the
analytic side of sample-vs-mixture comparisons uses mixture quantiles
computed by bisection instead of sampling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

QUANTILE_POINTS = 512
BISECT_TOL = 1e-10


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
    q = (np.arange(QUANTILE_POINTS) + 0.5) / QUANTILE_POINTS
    xq = xs[np.minimum((q * xs.size).astype(np.int64), xs.size - 1)]
    yq = ys[np.minimum((q * ys.size).astype(np.int64), ys.size - 1)]
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
        x = np.asarray(x, dtype=np.float64)[..., None]
        pos = self.sigmas > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            comp = np.where(pos,
                            ndtr((x - self.means) / np.where(pos, self.sigmas, 1.0)),
                            (x >= self.means).astype(np.float64))
        return np.sum(self.weights * comp, axis=-1)

    def quantiles(self, q: np.ndarray) -> np.ndarray:
        """Quantile function by bisection to BISECT_TOL (handles atoms)."""
        q = np.asarray(q, dtype=np.float64)
        x = _bisect_quantiles(self.weights, self.means[None, :],
                              self.sigmas[None, :], q.reshape(1, -1))
        return x.reshape(q.shape)


def mixture_quantile_table(weights, means_by_t, sigmas_by_t,
                           n_points: int = QUANTILE_POINTS) -> np.ndarray:
    """Quantiles of a family of mixtures sharing weights.

    means_by_t, sigmas_by_t: arrays (n_t, K).  Returns (n_t, n_points) at
    the midpoints (i + 0.5) / n_points.  One vectorized bisection for the
    whole family (used per flow class to avoid re-bisection at every time
    point).

    Two invariants keep every entry bit-identical to a bisection that
    evaluates ``sum(w * cdf_k)`` over all components with ``np.sum``:
    the bracket ``span`` is taken over all components, zero-weight ones
    included, so no midpoint moves; and zero-weight components are
    skipped, since each would add exactly 0 to a nonnegative sum.  The
    components are summed in order, which is how ``np.sum`` reduces fewer
    than 8 terms (it sums 8 or more pairwise).
    """
    q = (np.arange(n_points) + 0.5) / n_points
    return _bisect_quantiles(np.asarray(weights, dtype=np.float64),
                             np.asarray(means_by_t, dtype=np.float64),
                             np.asarray(sigmas_by_t, dtype=np.float64), q)


def _bisect_quantiles(w, m, s, q) -> np.ndarray:
    """Bisection for the quantiles ``q`` of the mixtures in the rows of
    ``m``/``s`` (T, K) with weights ``w`` (K,).  ``q`` broadcasts against
    (T, 1); zero-sigma components are point masses."""
    span = float(np.max(np.abs(m)) + 10.0 * np.max(s) + 1.0)
    shape = np.broadcast_shapes((m.shape[0], 1), q.shape)
    # ``mid`` becomes the result: allocated first, it sits below the scratch
    # buffers on the heap, so those free as one block instead of leaving
    # holes around a long-lived table
    mid = np.empty(shape)
    lo = np.full(shape, -span)
    hi = np.full(shape, span)
    cdf = np.empty(shape)
    term = np.empty(shape)
    # int64 views for the select; ``below`` reuses ``cdf`` once it is read
    lo_bits, hi_bits, mid_bits, below, scratch = (
        a.view(np.int64) for a in (lo, hi, mid, cdf, term))
    # per nonzero-weight component: weight, mean and divisor as (T, 1)
    # columns, and the rows where it is a point mass
    comps = []
    for k in np.flatnonzero(w > 0.0):
        pos = s[:, k] > 0.0
        comps.append((w[k], m[:, k, None], np.where(pos, s[:, k], 1.0)[:, None],
                      np.flatnonzero(~pos)))
    while np.max(np.subtract(hi, lo, out=term)) > BISECT_TOL:
        np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)
        for i, (wk, mk, sk, atoms) in enumerate(comps):
            c = term if i else cdf      # first term in place, later ones added
            np.subtract(mid, mk, out=c)
            np.divide(c, sk, out=c)
            ndtr(c, out=c)
            if atoms.size:
                c[atoms] = mid[atoms] >= mk[atoms]
            np.multiply(c, wk, out=c)
            if i:
                np.add(cdf, c, out=cdf)
        # lo = mid where cdf < q, else hi = mid: a branch-free select on
        # the bits (a masked copy mispredicts once the mask is the next bit
        # of each quantile, which is random)
        np.less(cdf, q, out=below, casting="unsafe")
        np.negative(below, out=below)           # all ones where cdf < q
        for side in (lo_bits, hi_bits):
            np.bitwise_xor(side, mid_bits, out=scratch)
            scratch &= below
            side ^= scratch
            np.invert(below, out=below)
    return np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)


def empirical_quantiles(sorted_x: np.ndarray,
                        n_points: int = QUANTILE_POINTS) -> np.ndarray:
    """Empirical quantiles at the midpoint grid; input sorted along axis -1."""
    n = sorted_x.shape[-1]
    q = (np.arange(n_points) + 0.5) / n_points
    idx = np.minimum((q * n).astype(np.int64), n - 1)
    return sorted_x[..., idx]


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
    q = (np.arange(QUANTILE_POINTS) + 0.5) / QUANTILE_POINTS
    mq = mix.quantiles(q)
    d = float(np.sqrt(np.mean((xq - mq) ** 2)))
    if not return_bound:
        return d
    half = QUANTILE_POINTS // 2
    qh = (np.arange(half) + 0.5) / half
    xqh = empirical_quantiles(xs, half)
    mqh = mix.quantiles(qh)
    dh = float(np.sqrt(np.mean((xqh - mqh) ** 2)))
    return d, abs(d - dh)
