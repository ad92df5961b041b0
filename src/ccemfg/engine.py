"""Euler-Maruyama simulation of the N-player system and the representative
player, plus a McKean-Vlasov particle fixed point on moment flows.

Conventions:

* left-endpoint evaluation of actions and measures in every Euler step;
* the empirical measure is recomputed synchronously each step, so all
  players advance against the frozen time-t measure;
* one dedicated counter stream per (replication, player) for the driving
  noise, so results are bit-identical however the work is chunked, and the
  terminal Brownian value does not depend on the step count (bridge
  construction, see :mod:`ccemfg._pathgen_py`).

Every player holds a constant action over the run, as the controls and
deviations of the paper's example do: an array that broadcasts over the
states, checked against the action box once per run.

:func:`euler_step` is the one Euler kernel and :func:`stream` the one time
loop.  The loop applies the kernel one grid point at a time, taking the
Brownian values in time order from the bisection walk of
:func:`ccemfg._pathgen_py.brownian_rows`, so it stores no paths, and it
reads the measure from a callback.  Every player steps through it on the
walk of :func:`ensemble_noise`: N-player ensembles, player-major
``(..., N, R)`` states, against their :func:`empirical_measure`; and the
representative player, a one-player ensemble whose (1, R) rows broadcast
over its state, against a flow (the lottery of
:func:`ccemfg.correlation.follow_scenarios`, :func:`simulate_representative`
and the Picard stack of :func:`mckean_vlasov_fixed_point`) or, as the
N-player gap's deviator, against its ensemble's player sums.  Paths are
kept only where they are the output: :func:`simulate_ensemble` and
:func:`simulate_representative`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _pathgen_py, rng
from .model import MeasureView, ModelSpec


class SimulationError(RuntimeError):
    """Raised when the state leaves the finite range; carries the step."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with the given number of steps.
    Raises ``ValueError`` unless ``steps`` is a positive integer and
    ``horizon`` a positive finite number."""

    horizon: float
    steps: int

    def __post_init__(self):
        steps = check_count("steps", self.steps)
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
        object.__setattr__(self, "steps", steps)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


def check_count(name: str, value, least: int = 1) -> int:
    """``value`` as an ``int``, or ``ValueError`` unless it is an integer,
    a numpy one included, of at least ``least``.  A bool is refused, and
    so is a float, even an integral one."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") \
            from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def check_run(model: ModelSpec, grid: TimeGrid, **counts) -> None:
    """Reject run parameters at a library entry point instead of deep
    inside: every named count must pass :func:`check_count`, and the grid
    must end at the model's horizon."""
    for name, value in counts.items():
        check_count(name, value)
    if not math.isclose(grid.horizon, model.horizon, rel_tol=1e-12):
        raise ValueError(f"grid.horizon ({grid.horizon:g}) must equal "
                         f"model.horizon ({model.horizon:g})")


def noise_keys(seed: int, rep_ids, player_ids) -> np.ndarray:
    """Per-(replication, player) noise stream keys, shape (R, N): the
    transpose of a C-contiguous player-major (N, R) array."""
    return rng.stream_keys(seed, rng.TAG_NOISE, np.asarray(rep_ids)[None, :],
                           np.asarray(player_ids)[:, None]).T


def initial_states(model: ModelSpec, seed: int, rep_ids, player_ids) -> np.ndarray:
    """Initial states (R, N), the transpose of a C-contiguous player-major
    (N, R) array: the initial law applied to draw 0 of each (replication,
    player) stream, which is drawn only if the law asks for it (a point
    mass does not)."""
    rep_ids = np.asarray(rep_ids)[None, :]
    player_ids = np.asarray(player_ids)[:, None]

    def uniforms():
        keys = rng.stream_keys(seed, rng.TAG_INIT, rep_ids, player_ids)
        return rng.uniforms(keys, 0)

    return model.initial_law.sample(uniforms,
                                    (player_ids.size, rep_ids.size)).T


def euler_step(model: ModelSpec, step: int, t: float, dt: float,
               x: np.ndarray, mv: MeasureView, a, dw: np.ndarray,
               out=None, scratch=None) -> np.ndarray:
    """One left-point Euler step of the states ``x`` at time ``t`` under the
    actions ``a`` against the measure view ``mv``, driven by the Brownian
    increment ``dw``.  Checks the new states; ``step`` labels the error.

    The new states, ``x + drift * dt``, then ``+ dw``, are written into
    ``out``, an array of the broadcast shape that may be ``x`` itself, with
    ``drift * dt`` in ``scratch``, another array of that shape; the two
    are given together.  Without them both are one new array.
    """
    drift = model.drift(t, x, mv, a)
    if out is None:
        out = scratch = np.empty(np.broadcast_shapes(
            np.shape(x), np.shape(drift), np.shape(dw)))
    np.add(x, np.multiply(drift, dt, out=scratch), out=out)
    out += dw
    if not np.all(np.isfinite(out)):
        raise SimulationError(step)
    return out


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


def empirical_measure(N: int) -> Callable:
    """The measure of :func:`stream` for player-major (..., N, R) ensembles:
    mean ``sum_rows(x) / N`` and second moment ``sum_rows(x * x) / N``."""
    return lambda i, x: MeasureView(mean=sum_rows(x) / N,
                                    second_moment=sum_rows(x * x) / N)


def simulate_ensemble(model: ModelSpec, grid: TimeGrid, actions, N: int,
                      reps: int, seed: int, rep_offset: int = 0) -> np.ndarray:
    """Simulate ``reps`` independent N-player replications.

    ``actions``: array broadcastable to (reps, N) of constant actions.
    Returns states of shape (reps, N, steps+1), collected from
    :func:`stream`.
    """
    check_run(model, grid, N=N, reps=reps)
    x0, rows = ensemble_noise(model, grid, seed, rep_offset + np.arange(reps),
                              N)
    const = np.broadcast_to(np.asarray(actions, dtype=np.float64), (reps, N))
    x = np.empty((reps, N, grid.steps + 1))
    for i, xi, _, _ in stream(model, grid, x0, rows,
                              np.ascontiguousarray(const.T),
                              empirical_measure(N)):
        x[..., i] = xi.T
    return x


def ensemble_noise(model: ModelSpec, grid: TimeGrid, seed: int, rep_ids,
                   N: int):
    """Initial states (N, R), C-contiguous, of the N-player ensembles of
    the replications ``rep_ids``, and the walk of their Brownian values:
    one player-major (N, R) row per grid point, in time order (see
    :func:`ccemfg._pathgen_py.brownian_rows`).  Each (replication, player)
    has its own streams, so at ``N = 1``, the representative player, the
    walk is row 0 of every ensemble's: common random numbers.  The keys
    and the states are built player-major, so neither is copied here.
    """
    players = np.arange(N)
    x0 = initial_states(model, seed, rep_ids, players).T
    rows = _pathgen_py.brownian_rows(noise_keys(seed, rep_ids, players).T,
                                     grid.steps, grid.horizon)
    return np.ascontiguousarray(x0), rows


def stream(model: ModelSpec, grid: TimeGrid, x: np.ndarray, w_rows,
           actions, measure: Callable):
    """Step players through the Euler scheme without storing their paths.

    ``x``: initial states, an array that the rows of ``w_rows``, the
    Brownian values at the grid points in time order, broadcast over.
    ``measure(i, x)`` gives the :class:`~ccemfg.model.MeasureView` the
    states ``x`` at grid point ``i`` step against.  ``actions``: the
    players' constant actions, an array that broadcasts over ``x``, checked
    against the action box once, before the loop.  Yields ``(i, x, mv,
    actions)`` before the Euler step from grid point ``i``, and ``(steps, x,
    mv, None)`` at the horizon.

    The first step makes the states and the Brownian increment new
    arrays, and the later steps write into them, with ``drift * dt`` in
    one more array made at the second step; so a one-step grid makes no
    more arrays than a step that copies.  A yielded ``x`` holds its values
    only until the stream is resumed: a caller that keeps states copies
    them.
    """
    if not model.actions.contains(actions):
        raise ValueError("action outside the admissible box at step 0")
    steps, dt, times = grid.steps, grid.dt, grid.times
    w_prev = next(w_rows)
    dw = scratch = None
    for i in range(steps):
        mv = measure(i, x)
        yield i, x, mv, actions
        w_next = next(w_rows)
        dw = np.subtract(w_next, w_prev, out=dw)
        if i == 1:              # x is the first step's new array
            scratch = np.empty_like(x)
        x = euler_step(model, i, times[i], dt, x, mv, actions, dw,
                       x if i else None, scratch)
        w_prev = w_next
    mv = measure(steps, x)      # so the suspended loop frees the last view
    yield steps, x, mv, None


def simulate_representative(model: ModelSpec, grid: TimeGrid, flow,
                            strategy, reps: int, seed: int,
                            rep_offset: int = 0) -> np.ndarray:
    """Independent replications of the single SDE against an exogenous flow
    under the constant action ``strategy``.

    Returns paths of shape (reps, steps+1), not C-contiguous; replication r
    is the representative player of replication ``rep_offset + r``, player
    0 of its ensemble (see :func:`ensemble_noise`).
    """
    check_run(model, grid, reps=reps)
    x0, rows = ensemble_noise(model, grid, seed,
                              rep_offset + np.arange(reps), 1)
    v = flow.view(grid.times)
    x = np.empty((grid.steps + 1, reps))       # one contiguous row per step
    for i, xi, _, _ in stream(
            model, grid, x0, rows, np.broadcast_to(np.float64(strategy),
                                                   x0.shape),
            lambda i, _: MeasureView(v.mean[i], v.second_moment[i])):
        x[i] = xi
    return x.T


@dataclass(frozen=True)
class MkvResult:
    """The last Picard iterate's mean and variance at the grid ``times``,
    plus the convergence trace."""

    times: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    distances: list
    converged: bool
    iterations: int


def mckean_vlasov_fixed_point(model: ModelSpec, grid: TimeGrid, strategy,
                              particles: int, max_iters: int, tol: float,
                              seed: int) -> MkvResult:
    """Picard iteration on particle flows for the McKean-Vlasov dynamics
    under the constant action ``strategy``.

    Iterate k steps the particles, with the same noise every time, against
    the moment flow (mean and second moment at each grid point) of iterate
    k - 1; iterate 0 stays at x0.  The iteration stops when the sup-in-time
    W2 between successive iterates drops below ``tol``.  Non-convergence is
    flagged, not fatal.

    No paths are stored, and one walk of the noise advances two new
    iterates.  That is exact because the Picard map is causal on the Euler
    grid: the left-point step of iterate k from grid point i reads only
    iterate k - 1's moments at grid point i, which the same walk has just
    reached.  A pass steps a (K, P) state through :func:`stream`: the last
    finished iterate again, against its predecessor's stored moment flow,
    then the next two iterates, each against the moments of the row above
    at the same grid point.  The first pass steps iterates 1 and 2 alone,
    iterate 1 against x0's flow, and the pass that reaches ``max_iters``
    may have only one new iterate to step.  The measure callback computes
    the moments of every row but the last, and the pass records them from
    the view it yields.  At each grid point the state is sorted once for
    the W2 step of each new row from the row above (iterate 1's from x0).
    The pass appends its distances in order and the iteration stops at the
    first one below ``tol``; otherwise the next pass starts from the last
    finished iterate.  Two new iterates per pass, not more: a walk costs
    about as much as stepping and sorting four or five rows, so two halve
    the walks, and a longer stack would step iterates past the one that
    meets ``tol``.
    """
    check_run(model, grid, max_iters=max_iters)
    check_count("particles", particles, 100)
    if not tol > 0:
        raise ValueError("tol must be positive")
    steps, times = grid.steps, grid.times
    ids = np.arange(particles)
    x0, rows = ensemble_noise(model, grid, seed, ids, 1)      # (1, P) rows
    x0_sorted = np.sort(x0[0])
    # the moment flow (mean, second moment) x (steps + 1) that row 0 reads
    flow = np.repeat([[x0.mean()], [np.mean(x0**2)]], steps + 1, 1)

    def measure(i, x):
        # row 0 reads the current pass's flow, row r the moments of row r - 1
        mean, m2 = np.empty((2, x.shape[0], 1))
        mean[0], m2[0] = flow[:, i]
        for r in range(1, x.shape[0]):
            mean[r], m2[r] = x[r - 1].mean(), np.mean(x[r - 1] ** 2)
        return MeasureView(mean=mean, second_moment=m2)

    distances = []
    while True:
        old = 1 if distances else 0            # rows that redo an iterate
        K = old + min(2, max_iters - len(distances))
        mom = np.empty((K, 3, steps + 1))      # mean, second moment, var
        d2 = np.empty((K, steps + 1))
        for i, x, mv, _ in stream(
                model, grid, np.broadcast_to(x0, (K, particles)), rows,
                np.broadcast_to(np.float64(strategy), (K, particles)),
                measure):
            srt = np.sort(x, axis=1)
            mom[:-1, 0, i] = mv.mean[1:, 0]
            mom[:-1, 1, i] = mv.second_moment[1:, 0]
            mom[-1, :2, i] = x[-1].mean(), np.mean(x[-1] ** 2)
            for r in range(old, K):
                mom[r, 2, i] = x[r].var()
                prev = srt[r - 1] if r else x0_sorted
                # the particles added in order, as an axis-0 mean of stored
                # paths adds them; a pairwise mean moves the trace by ulps
                d2[r, i] = (np.add.accumulate((srt[r] - prev) ** 2)[-1]
                            / particles)
        for r in range(old, K):
            distances.append(float(np.max(np.sqrt(d2[r]))))
            if distances[-1] < tol or len(distances) == max_iters:
                return MkvResult(times=times, mean=mom[r, 0], var=mom[r, 2],
                                 distances=distances,
                                 converged=distances[-1] < tol,
                                 iterations=len(distances))
        flow = mom[-2, :2]
        rows = ensemble_noise(model, grid, seed, ids, 1)[1]
