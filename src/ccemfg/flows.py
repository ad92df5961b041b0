"""Time-indexed measure flows: analytic Gaussian mixtures.

The flows cover the shipped instance, where the population driven by a
constant control r is exactly Normal(r*t, t) started from zero, and a
device flow is a two-component mixture of such laws.  A simulated flow is
never stored as particles: the engine reads a measure only through its
:class:`~ccemfg.model.MeasureView`, so the McKean-Vlasov fixed point keeps
a mean and second moment per grid point instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import QUANTILE_POINTS, mixture_quantile_table
from .model import MeasureView


@dataclass(frozen=True)
class GaussianMixtureFlow:
    """Mixture of constant-drift Gaussian populations from a point start.

    Component k at time t is Normal(drift_rates[k] * t + x0, t).
    """

    weights: np.ndarray
    drift_rates: np.ndarray
    x0: float = 0.0
    label: str = ""

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        r = np.atleast_1d(np.asarray(self.drift_rates, dtype=np.float64))
        if w.shape != r.shape:
            raise ValueError("weights and drift rates must share a shape")
        if not (np.isfinite(w).all() and np.isfinite(r).all()
                and np.isfinite(self.x0).all()):
            raise ValueError("weights, drift rates and x0 must be finite")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "drift_rates", r)

    def mean(self, t):
        return self.x0 + float(np.sum(self.weights * self.drift_rates)) * np.asarray(t)

    def view(self, t) -> MeasureView:
        t = np.asarray(t, dtype=np.float64)
        comp_means = self.x0 + np.multiply.outer(t, self.drift_rates)
        second = np.sum(self.weights * (comp_means**2 + t[..., None]), axis=-1)
        return MeasureView(mean=self.mean(t), second_moment=second)

    def quantile_table(self, times: np.ndarray,
                       n_points: int = QUANTILE_POINTS) -> np.ndarray:
        """Quantiles at the levels (i + 0.5) / n_points for every time, one
        row per time (see :func:`ccemfg.metrics.mixture_quantile_table`):
        t = 0, where every component is the point ``x0``, and a time where
        the flow is a single Gaussian get ``m + s * norm_quantile(q)``
        exactly; the others are found by safeguarded Halley steps from the
        bracket of their components' quantiles.  Each row is
        nondecreasing."""
        times = np.asarray(times, dtype=np.float64)
        means = self.x0 + np.multiply.outer(times, self.drift_rates)
        sigmas = np.sqrt(times)[:, None] * np.ones_like(means)
        return mixture_quantile_table(self.weights, means, sigmas, n_points)


def device_flow(weight_plus, a: float, b: float, label: str = "",
                x0: float = 0.0) -> GaussianMixtureFlow:
    """Two-component flow mixing the all-b and all-a populations."""
    if not 0.0 <= weight_plus <= 1.0:
        raise ValueError("mixture weight must lie in [0, 1]")
    return GaussianMixtureFlow(weights=np.array([weight_plus, 1.0 - weight_plus]),
                               drift_rates=np.array([b, a]),
                               x0=x0, label=label)
