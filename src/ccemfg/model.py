"""Game primitives: action set, drift and cost rules, the shipped example.

The shipped instance is a one-dimensional game with drift equal to the
chosen action, zero running cost, and a terminal reward that is bilinear in
the player's state and the population mean: ``c * x * mean``.  Its action
interval [a_lo, b_hi] must straddle zero; the closed-form equilibrium
analysis in :mod:`ccemfg.analytic` relies on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _pathgen_py


@dataclass(frozen=True)
class ActionBox:
    """Compact interval [lo, hi] of admissible actions."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not -np.inf < self.lo <= self.hi < np.inf:
            raise ValueError("action box bounds must be finite, lo <= hi")

    def contains(self, a, tol: float = 1e-12) -> bool:
        a = np.asarray(a)
        if 0 in a.strides:
            # a broadcast array repeats its values along its zero-stride
            # axes: check each value once
            a = a[tuple(0 if s == 0 and n else slice(None)
                        for s, n in zip(a.strides, a.shape))]
        a = np.asarray(a, dtype=np.float64)
        return bool(np.all(a >= self.lo - tol) and np.all(a <= self.hi + tol))


@dataclass(frozen=True)
class MeasureView:
    """Summary view of a probability measure: mean and second moment.
    Fields may be batched arrays."""

    mean: np.ndarray | float
    second_moment: np.ndarray | float


@dataclass(frozen=True)
class PointMass:
    """Degenerate initial law at a fixed state."""

    value: float = 0.0

    def sample(self, uniforms, shape) -> np.ndarray:
        """``shape`` states at the point; calls no ``uniforms``."""
        return np.full(shape, float(self.value))


@dataclass(frozen=True)
class GaussianInitial:
    """Gaussian initial law, mapped from the engine's uniform draws."""

    mean: float = 0.0
    std: float = 1.0

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        return self.mean + self.std * _pathgen_py.norm_quantile(u)

    def sample(self, uniforms, shape) -> np.ndarray:
        """States mapped from the array that ``uniforms()`` draws."""
        return self.from_uniform(uniforms())


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of a symmetric stochastic differential game.

    All rules must be pure and numpy-broadcasting: ``drift(t, x, m, a)``,
    ``running_cost(t, x, m, a)`` and ``terminal_cost(x, m)`` receive state
    and action arrays plus a :class:`MeasureView`.  ``sense`` says whether
    the functional is minimized or maximized; gap computations read it and
    flip signs uniformly.  The state and the actions are real; the actions
    lie in the interval ``actions``.

    Two functions read from the rules which shortcuts the estimators may
    take: :func:`drift_reads_measure` whether a deviating player can be
    re-simulated alone, and :func:`exact_terminal` whether a constant
    action reaches the horizon exactly in one Euler step.
    """

    horizon: float
    actions: ActionBox
    initial_law: PointMass | GaussianInitial
    drift: Callable
    running_cost: Callable
    terminal_cost: Callable
    sense: str = "minimize"

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be a positive real")
        if self.sense not in ("minimize", "maximize"):
            raise ValueError("sense must be 'minimize' or 'maximize'")

    @property
    def sign(self) -> float:
        """+1 for minimize, -1 for maximize (cost-adjustment factor)."""
        return 1.0 if self.sense == "minimize" else -1.0


@dataclass(frozen=True)
class _ActionDrift:
    """drift(t, x, m, a) = a (picklable)."""

    def __call__(self, t, x, m, a):
        return np.broadcast_to(np.asarray(a, dtype=np.float64), np.shape(x))


@dataclass(frozen=True)
class _ZeroRunningCost:
    def __call__(self, t, x, m, a):
        return np.zeros(np.shape(x))


def drift_reads_measure(model: ModelSpec) -> bool:
    """Whether the drift may read the measure: False only for the action
    drift of :func:`build_bang_bang_model`.  Other drifts are opaque and
    count as reading it, so they take the paths correct for any drift."""
    return not isinstance(model.drift, _ActionDrift)


def exact_terminal(model: ModelSpec) -> bool:
    """Whether one Euler step across [0, T] gives a player's exact state
    and cost at the horizon under every constant action.

    True when the drift is the action itself and the running cost is zero,
    the rules of :func:`build_bang_bang_model`: the action ``a`` then gives
    ``X_T = x0 + a * T + W_T`` and the cost is the terminal cost alone.
    Other rules are opaque callables and count as not exact.
    """
    return (isinstance(model.drift, _ActionDrift)
            and isinstance(model.running_cost, _ZeroRunningCost))


@dataclass(frozen=True)
class _BilinearTerminalReward:
    """g(x, m) = c * x * mean(m)."""

    c: float

    def __call__(self, x, m):
        return self.c * np.asarray(x, dtype=np.float64) * np.asarray(m.mean)


def check_interval(a: float, b: float) -> None:
    """``ValueError`` unless the action interval [a, b] of the bang-bang
    game is finite and straddles zero."""
    if not -np.inf < a < 0.0 < b < np.inf:
        raise ValueError("need finite a < 0 < b: -inf < a < 0 < b < inf")


def check_game(a: float, b: float, c: float, T: float) -> None:
    """The rule of the bang-bang game: :func:`check_interval`, then
    ``ValueError`` unless ``c, T > 0``, both finite."""
    check_interval(a, b)
    if not (0.0 < c < np.inf and 0.0 < T < np.inf):
        raise ValueError("need finite c, T > 0: 0 < c < inf and 0 < T < inf")


def build_bang_bang_model(a_lo: float, b_hi: float, c: float, T: float) -> ModelSpec:
    """The fully explicit 1-d instance: drift = action, reward c*x*mean.

    Requires ``a_lo < 0 < b_hi`` and ``c, T > 0``, all finite
    (:func:`check_game`).
    """
    check_game(a_lo, b_hi, c, T)
    return ModelSpec(
        horizon=float(T),
        actions=ActionBox(lo=a_lo, hi=b_hi),
        initial_law=PointMass(0.0),
        drift=_ActionDrift(),
        running_cost=_ZeroRunningCost(),
        terminal_cost=_BilinearTerminalReward(float(c)),
        sense="maximize",
    )
