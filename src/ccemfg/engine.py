"""Euler-Maruyama simulation of the N-player system and the representative
player, plus a McKean-Vlasov particle fixed point.

Conventions:

* left-endpoint evaluation of actions and measures in every Euler step;
* the empirical measure is recomputed synchronously each step, so all
  players advance against the frozen time-t measure;
* one dedicated counter stream per (replication, player) for the driving
  noise, so results are bit-identical however the work is chunked, and the
  terminal Brownian value does not depend on the step count (bridge
  construction, see :mod:`ccemfg._pathgen_py`).

:func:`euler_step` is the one Euler kernel.  :func:`_euler` applies it to
whole stored paths.  Every simulation of the representative player against
an exogenous flow draws its noise with :func:`representative_noise`;
:func:`simulate_representative`, the consistency check and the
McKean-Vlasov solver step it with :func:`step_against_flow`, and the
mean-field gap steps the recommendation and its deviation candidates as one
state with :func:`euler_step`, keeping no paths.
:func:`stream_ensemble` applies the Euler kernel to a player-major
``(N, R)`` state, one grid point at a time: the Brownian values come from
the in-order bisection walk of :func:`ccemfg._pathgen_py.brownian_rows`, and
the estimators reduce each state as it goes by, so a chunk holds
O(R * N * log(steps)) numbers instead of its whole ``(R, N, steps + 1)``
paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _pathgen_py, rng
from .flows import ParticleFlow
from .model import MeasureView, ModelSpec


class SimulationError(RuntimeError):
    """Raised when the state leaves the finite range; carries the step."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with the given number of steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


def check_run(model: ModelSpec, grid: TimeGrid, **counts: int) -> None:
    """Reject run parameters at a library entry point instead of deep
    inside: every named count must be at least 1, and the grid must end at
    the model's horizon."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if not math.isclose(grid.horizon, model.horizon, rel_tol=1e-12):
        raise ValueError(f"grid.horizon ({grid.horizon:g}) must equal "
                         f"model.horizon ({model.horizon:g})")


@dataclass(frozen=True)
class ConstantStrategy:
    """Open-loop strategy holding a fixed action."""

    value: float

    def __call__(self, t, x, mview):
        return np.broadcast_to(np.float64(self.value), np.shape(x))


def as_action_fn(strategy) -> Callable:
    """Normalize scalars / ConstantStrategy / callables to (t, x, m) -> a."""
    if callable(strategy):
        return strategy
    return ConstantStrategy(float(strategy))


def noise_keys(seed: int, rep_ids, player_ids) -> np.ndarray:
    """Per-(replication, player) noise stream keys, shape (R, N)."""
    rep_ids = np.asarray(rep_ids)
    player_ids = np.asarray(player_ids)
    return rng.stream_keys(seed, rng.TAG_NOISE,
                           rep_ids[:, None], player_ids[None, :])


def initial_states(model: ModelSpec, seed: int, rep_ids, player_ids) -> np.ndarray:
    keys = rng.stream_keys(seed, rng.TAG_INIT,
                           np.asarray(rep_ids)[:, None],
                           np.asarray(player_ids)[None, :])
    u = rng.uniforms(keys, 0)
    return model.initial_law.from_uniform(u)


def _check_actions(model: ModelSpec, a, step: int) -> None:
    lo = model.actions.lo.min() - 1e-12
    hi = model.actions.hi.max() + 1e-12
    a = np.asarray(a)
    if np.any(a < lo) or np.any(a > hi):
        raise ValueError(f"action outside the admissible box at step {step}")


def euler_step(model: ModelSpec, step: int, t: float, dt: float,
               x: np.ndarray, mv: MeasureView, a, dw: np.ndarray) -> np.ndarray:
    """One left-point Euler step of the states ``x`` at time ``t`` under the
    actions ``a`` against the measure view ``mv``, driven by the Brownian
    increment ``dw``.  Checks the actions and the new states; ``step``
    labels the errors."""
    _check_actions(model, a, step)
    drift = model.drift(t, x, mv, a)
    x_new = x + np.asarray(drift) * dt + dw
    if not np.all(np.isfinite(x_new)):
        raise SimulationError(step)
    return x_new


def _euler(model: ModelSpec, grid: TimeGrid, x0: np.ndarray, w: np.ndarray,
           action_fn: Callable, measure_fn: Callable) -> np.ndarray:
    """Euler paths from stored Brownian paths.  ``w``: Brownian paths with
    shape ``x0.shape + (steps+1,)``; ``measure_fn(i, x)`` returns the
    time-t view."""
    steps = grid.steps
    dt = grid.dt
    times = grid.times
    x = np.empty(x0.shape + (steps + 1,))
    x[..., 0] = x0
    for i in range(steps):
        xi = x[..., i]
        mv = measure_fn(i, xi)
        a = action_fn(times[i], xi, mv)
        x[..., i + 1] = euler_step(model, i, times[i], dt, xi, mv, a,
                                   w[..., i + 1] - w[..., i])
    return x


def sum_rows(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-2, keepdims=True)`` with the rows added in order.

    On a C-contiguous array numpy adds the rows in order while the last
    axis has more than one element (that axis is its inner loop); with one
    column the summed axis becomes the inner loop and numpy adds pairwise.
    ``add.accumulate`` adds in order at every shape, so it covers that case.
    """
    if x.shape[-1] > 1:
        return x.sum(axis=-2, keepdims=True)
    return np.add.accumulate(x, axis=-2)[..., -1:, :]


class EnsembleState(NamedTuple):
    """One grid point of a streamed ensemble (see :func:`stream_ensemble`)."""

    step: int
    x: np.ndarray                # (..., N, R) states at times[step]
    sums: np.ndarray             # (..., 1, R) sums of x over the players
    sq_sums: np.ndarray          # (..., 1, R) sums of x**2 over the players
    dw: Optional[np.ndarray]     # (N, R) W(t_step+1) - W(t_step); None at T


def stream_ensemble(model: ModelSpec, grid: TimeGrid, x0: np.ndarray,
                    actions: np.ndarray, keys: np.ndarray):
    """Step player-major N-player ensembles through the Euler scheme
    without storing their paths.

    ``keys``: noise stream keys of shape (N, R), player-major.  ``x0`` and
    ``actions``: C-contiguous arrays of shape (..., N, R); every leading
    index is one ensemble of constant actions, and all ensembles share the
    noise of ``keys``.  Yields an :class:`EnsembleState` at each grid
    point, in time order, before the step from it is taken.  The drift sees
    the empirical measure with mean ``sums / N`` and second moment
    ``sq_sums / N``, where the sums add the players in order.
    """
    steps, dt, times = grid.steps, grid.dt, grid.times
    N = keys.shape[0]
    rows = _pathgen_py.brownian_rows(keys, steps, grid.horizon)
    w_prev = next(rows)
    x = x0
    for i in range(steps):
        s1, s2 = sum_rows(x), sum_rows(x * x)
        w_next = next(rows)
        dw = (w_next - w_prev).reshape(keys.shape)
        yield EnsembleState(i, x, s1, s2, dw)
        mv = MeasureView(mean=s1 / N, second_moment=s2 / N)
        x = euler_step(model, i, times[i], dt, x, mv, actions, dw)
        w_prev = w_next
    yield EnsembleState(steps, x, sum_rows(x), sum_rows(x * x), None)


def _empirical_measure(i: int, x: np.ndarray) -> MeasureView:
    """Per-replication empirical view over the player axis (last axis).

    The players are added in order, as in :func:`stream_ensemble`, so both
    engines show a measure-dependent drift the same measure to the last
    bit (``mean`` would add a strided player axis pairwise).
    """
    N = x.shape[-1]
    s1 = np.add.accumulate(x, axis=-1)[..., -1:]
    s2 = np.add.accumulate(x * x, axis=-1)[..., -1:]
    return MeasureView(mean=s1 / N, second_moment=s2 / N)


def simulate_ensemble(model: ModelSpec, grid: TimeGrid, actions, N: int,
                      reps: int, seed: int, rep_offset: int = 0) -> np.ndarray:
    """Simulate ``reps`` independent N-player replications.

    ``actions``: array broadcastable to (reps, N) of constant actions, or a
    callable rule (t, x, mview) -> (reps, N) applied to all players.
    Returns states of shape (reps, N, steps+1).
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    rep_ids = rep_offset + np.arange(reps)
    player_ids = np.arange(N)
    w = _pathgen_py.brownian_paths(noise_keys(seed, rep_ids, player_ids),
                                   grid.steps, grid.horizon)
    x0 = initial_states(model, seed, rep_ids, player_ids)
    if callable(actions):
        action_fn = actions
    else:
        const = np.broadcast_to(np.asarray(actions, dtype=np.float64), (reps, N))
        _check_actions(model, const, 0)

        def action_fn(t, x, mv, _c=const):
            return _c

    return _euler(model, grid, x0, w, action_fn, _empirical_measure)


def representative_noise(model: ModelSpec, grid: TimeGrid, seed: int,
                         rep_ids) -> tuple[np.ndarray, np.ndarray]:
    """Initial states (R,) and Brownian paths (R, steps+1) of the
    representative player in the replications ``rep_ids``.

    Replication r uses the streams of player 0 of replication r in the
    N-player engine, which is what makes common-random-number comparisons
    possible, and a replication's draws do not depend on which other ids
    are drawn with it.
    """
    w = _pathgen_py.brownian_paths(noise_keys(seed, rep_ids, [0]),
                                   grid.steps, grid.horizon)[:, 0, :]
    x0 = initial_states(model, seed, rep_ids, [0])[:, 0]
    return x0, w


def flow_views(flow, grid: TimeGrid) -> list:
    """The views of ``flow`` at the grid points the Euler steps start from."""
    return [flow.view(t) for t in grid.times[:-1]]


def step_against_flow(model: ModelSpec, grid: TimeGrid, x0: np.ndarray,
                      w: np.ndarray, strategy, views: list) -> np.ndarray:
    """Euler paths (R, steps+1) of representative players started at ``x0``
    and driven by ``w``, following ``strategy`` against an exogenous flow
    given by its :func:`flow_views`."""
    return _euler(model, grid, x0, w, as_action_fn(strategy),
                  lambda i, x: views[i])


def simulate_representative(model: ModelSpec, grid: TimeGrid, flow,
                            strategy, reps: int, seed: int,
                            rep_offset: int = 0) -> np.ndarray:
    """Independent replications of the single SDE against an exogenous flow.

    Returns paths of shape (reps, steps+1); replication r is the
    representative player of replication ``rep_offset + r`` (see
    :func:`representative_noise`).
    """
    x0, w = representative_noise(model, grid, seed,
                                 rep_offset + np.arange(reps))
    return step_against_flow(model, grid, x0, w, strategy,
                             flow_views(flow, grid))


@dataclass(frozen=True)
class MkvResult:
    """Particle fixed point plus its convergence trace."""

    flow: ParticleFlow
    distances: list
    converged: bool
    iterations: int


def mckean_vlasov_fixed_point(model: ModelSpec, grid: TimeGrid, strategy,
                              particles: int, max_iters: int, tol: float,
                              seed: int) -> MkvResult:
    """Picard iteration on particle flows for the McKean-Vlasov dynamics.

    Each iteration simulates the particle cloud against the current flow
    (with the same noise every time) and replaces the flow by the resulting
    empirical flow, until the sup-in-time W2 between successive flows drops
    below ``tol``.  Non-convergence is flagged, not fatal.
    """
    check_run(model, grid, max_iters=max_iters)
    if particles < 100:
        raise ValueError("need at least 100 particles")
    if not tol > 0:
        raise ValueError("tol must be positive")
    times = grid.times
    x0, w = representative_noise(model, grid, seed, np.arange(particles))
    # every column of the starting flow is x0, so sort it once
    cols = grid.steps + 1
    flow = ParticleFlow(times=times, particles=np.repeat(x0[:, None], cols, 1),
                        _sorted=np.repeat(np.sort(x0)[:, None], cols, 1))

    distances = []
    converged = False
    for _ in range(max_iters):
        x = step_against_flow(model, grid, x0, w, strategy,
                              flow_views(flow, grid))
        new_flow = ParticleFlow(times=times, particles=x)   # sorts x
        gap = float(np.max(np.sqrt(np.mean(
            (new_flow._sorted - flow._sorted) ** 2, axis=0))))
        distances.append(gap)
        flow = new_flow
        if gap < tol:
            converged = True
            break
    return MkvResult(flow=flow, distances=distances, converged=converged,
                     iterations=len(distances))
