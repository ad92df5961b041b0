"""Cost estimation and deviation-gap estimation.

The deviation family is a grid of constant actions: in the shipped
instance any open-loop deviation influences the payoff only through the
mean of its time integral (plus the 1/N self term at finite N), both of
which are extremized by constants.  For general models the reported gap is
therefore a lower bound on the true one.

All candidates within one replication share that replication's noise
(common random numbers), which is what makes the per-replication deviation
payoff an exact quadratic in the candidate action for the shipped model.

Both gaps price the deviating player's recommendation and candidates as
one state (:func:`_player_costs`).  When the drift ignores the measure
(:func:`ccemfg.model.drift_reads_measure`), the N-player gap steps that
state alone and ``poc_curve`` serves every N from one ensemble.

When one Euler step gives the exact terminal state under a constant
action (:func:`ccemfg.model.exact_terminal`; the shipped model's rules
do), the gap estimators step every constant action once across [0, T]
instead of along the grid.  That step is driven by W(T), which is the
Brownian walk's terminal value at every step count, so a gap costs one
normal per player and does not depend on the grid's steps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng
from .correlation import CorrelationDevice, follow_scenarios, sample_scenario
from .engine import (TimeGrid, check_count, check_run, empirical_measure,
                     ensemble_noise, stream, sum_rows)
from .metrics import quantile_ranks
from .model import (MeasureView, ModelSpec, drift_reads_measure,
                    exact_terminal)

# The float64 numbers a chunk may hold, :func:`_rep_numbers` per replication
CHUNK_ELEMS = 20_000_000
# The entries per row of its walked players a chunk may hold on a grid, which
# each step re-reads: the Euler gap and poc ran fastest near it (2 MiB L2)
ROW_ELEMS = 2**16


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    std_error: float
    reps: int


@dataclass(frozen=True)
class GapReport:
    """Deviation-gap estimate with its grid of candidates.

    ``raw_gap`` is the sense-adjusted improvement of the best candidate
    over the recommendation (may be negative at an equilibrium, which is
    Monte Carlo noise); ``epsilon_hat`` clips it at zero.
    """

    j_rec: CostEstimate
    best_deviation: float
    epsilon_hat: float
    epsilon_ci: tuple
    raw_gap: float
    raw_se: float
    candidates: np.ndarray
    improvement_means: np.ndarray
    improvement_ses: np.ndarray
    oracle: Optional[float] = None


def default_deviation_grid(model: ModelSpec, deviations=21) -> np.ndarray:
    """The deviation candidates of an estimator, at least 3: ``deviations``
    evenly spaced actions across the box, or the constant actions."""
    candidates = (np.linspace(model.actions.lo, model.actions.hi,
                              check_count("deviations", deviations, 0))
                  if np.ndim(deviations) == 0
                  else np.asarray(deviations, dtype=np.float64))
    if candidates.size < 3:
        raise ValueError("deviation grid needs at least 3 candidates")
    return candidates


def _rep_numbers(steps, state, walked, candidates=0, curves=0) -> int:
    """The float64 numbers one replication holds at the peak of its chunk,
    from the shapes it streams on a grid of ``steps``: ``state`` entries,
    ``walked`` players (a walk holds about log2(steps) + 2 rows, and its
    batched draws about as many again), deviation ``candidates`` and
    stored ``curves`` entries.  Fitted with tracemalloc on every estimator
    path, the count is 1.2 to 2.5 times the peak."""
    return (5 * state + (2 * steps.bit_length() + 6) * walked
            + 5 * candidates + curves)


def _jobs(reps, pieces, steps, state, walked, candidates=0, curves=0) -> list:
    """(offset, count) of ``pieces`` chunks of ``reps`` replications, or of
    smaller ones: at most ``CHUNK_ELEMS`` numbers (:func:`_rep_numbers` per
    replication) and, if ``steps > 1``, ``ROW_ELEMS`` per walked player."""
    per_rep = _rep_numbers(steps, state, walked, candidates, curves)
    chunk = max(1, min(-(-reps // pieces), CHUNK_ELEMS // per_rep,
                       ROW_ELEMS // walked if steps > 1 else reps))
    return [(off, min(chunk, reps - off)) for off in range(0, reps, chunk)]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_jobs(fn, jobs, workers: int):
    """``fn`` over ``jobs``, serially unless ``min(workers, len(jobs),
    usable_cpus())`` is more than one, then in a pool of that many
    processes; yields the results in job order as they arrive."""
    workers = min(workers, len(jobs), usable_cpus())
    if workers <= 1:
        yield from map(fn, jobs)
        return
    # imported only when a pool starts, so that serial runs do not pay for
    # importing multiprocessing and its modules
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, jobs)


# ---------------------------------------------------------------------------
# recommendation sampling for the N-player game
# ---------------------------------------------------------------------------

def recommended_actions(device: CorrelationDevice, seed: int, rep_ids,
                        N: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-(player, replication) recommended constant actions.

    Each replication draws a scenario from the lottery, which fixes the
    flow class; the players' strategies are then conditionally i.i.d. from
    that class's strategy distribution, mirroring the construction of
    N-player recommendations from a mean field device.

    Returns (actions, a C-contiguous player-major (N, R) array; flow-class
    index per replication (R,)).
    """
    rep_ids = np.asarray(rep_ids)
    classes = list(device.flow_classes().values())
    # per class: the thresholds of its cumulative conditional probabilities
    # (the last, which no uniform reaches, dropped; padded with inf) and
    # the strategy values they select
    width = max(len(c["scenarios"]) for c in classes)
    thresholds = np.full((len(classes), width - 1), np.inf)
    values = np.zeros((len(classes), width))
    scen_to_class = np.empty(len(device.scenarios), dtype=np.int64)
    for ci, entry in enumerate(classes):
        scens = entry["scenarios"]
        scen_to_class[scens] = ci
        probs = np.array([device.scenarios[s].probability for s in scens])
        probs = probs / probs.sum()
        thresholds[ci, :len(scens) - 1] = np.cumsum(probs)[:-1]
        values[ci, :len(scens)] = device.strategies[scens]

    cls = scen_to_class[sample_scenario(device, seed, rep_ids)]

    rec_keys = rng.stream_keys(seed, rng.TAG_RECOMMEND, rep_ids)
    u = rng.uniforms(rec_keys[None, :], np.arange(N)[:, None])     # (N, R)

    # the pick is the number of the class's thresholds at or below u
    pick = np.zeros(u.shape, dtype=np.min_scalar_type(width))
    for th in thresholds[cls].T:
        pick += th <= u
    return values[cls, pick], cls


# ---------------------------------------------------------------------------
# deviation gaps
# ---------------------------------------------------------------------------

def _player_costs(model: ModelSpec, grid: TimeGrid, steps):
    """Costs of the deviating player's (1 + G, R) state, the recommendation
    in row 0 and the G candidates below, along ``steps`` (a
    :func:`ccemfg.engine.stream` of it): the running cost added per step,
    the terminal cost at the horizon.  Returns (j_rec (R,), j_dev (R, G)).
    """
    times, run = grid.times, 0.0
    for i, x, mv, a in steps:
        if a is not None:
            run = run + np.asarray(model.running_cost(times[i], x, mv, a))
            del x, mv, a        # not alive while the next step is taken
    # priced once the stream has ended and freed what it held
    cost = run * grid.dt + np.asarray(model.terminal_cost(x, mv))
    return cost[0], np.ascontiguousarray(cost[1:].T)


def _nplayer_chunk(args):
    """Costs of the recommendation and of every candidate for player 0.

    Player 0 is one (1 + G, R) state, its recommended actions in row 0 and
    the G candidates below, priced by :func:`_player_costs`.  When the drift
    ignores the measure the state steps alone, on player 0's own walk, and
    the recommended ensemble advances beside it one grid point per measure,
    for its player sums s: row 0 reads s / N, the ensemble's own view, and
    row g (s - x[0] + x[g]) / N.  Otherwise each candidate is a whole
    deviated ensemble in one (1 + G, N, R) stream, priced by player 0.
    """
    (model, device, grid, N, seed, candidates, off, count) = args
    rep_ids = off + np.arange(count)
    actions, cls = recommended_actions(device, seed, rep_ids, N)
    x0, rows = ensemble_noise(model, grid, seed, rep_ids, N)
    own = np.empty((1 + candidates.size, count))          # player 0's actions
    own[0], own[1:] = actions[0], candidates[:, None]
    if drift_reads_measure(model):
        actions = np.repeat(actions[None], own.shape[0], axis=0)
        actions[:, 0] = own                               # (1 + G, N, R)
        ensembles = stream(model, grid,
                           np.repeat(x0[None], own.shape[0], axis=0), rows,
                           actions, empirical_measure(N))
        steps = ((i, x[:, 0], MeasureView(mv.mean[:, 0],
                                          mv.second_moment[:, 0]),
                  None if a is None else own)
                 for i, x, mv, a in ensembles)
    else:
        # the drift ignores the measure, so the ensemble's stream carries its
        # player sums in the view's place
        ensemble = stream(model, grid, x0, rows, actions,
                          lambda i, x: (sum_rows(x), sum_rows(x * x)))

        def measure(i, x):
            s1, s2 = next(ensemble)[2]            # the sums at grid point i
            mv = np.empty((2,) + x.shape)         # mean, second moment
            mv[:, 0] = s1[0], s2[0]
            np.add(x[1:], s1 - x[0], out=mv[0, 1:])
            np.multiply(x[1:], x[1:], out=mv[1, 1:])
            mv[1, 1:] += s2 - x[0] ** 2
            mv /= N
            return MeasureView(*mv)

        x0, own_rows = ensemble_noise(model, grid, seed, rep_ids, 1)
        steps = stream(model, grid, np.broadcast_to(x0, own.shape), own_rows,
                       own, measure)
    j_rec, j_dev = _player_costs(model, grid, steps)
    return j_rec, j_dev, cls


def _assemble_gap(model, j_rec, j_dev, candidates, oracle=None) -> GapReport:
    reps = j_rec.shape[0]

    def se(v):              # over the replications, NaN when reps < 2
        return (v.std(axis=0, ddof=1) / np.sqrt(reps) if reps > 1
                else np.full(v.shape[1:], np.nan))

    imp = model.sign * (j_rec[:, None] - j_dev)   # (R, G) improvements
    imp_means, imp_ses = imp.mean(axis=0), se(imp)
    best = int(np.argmax(imp_means))
    raw, raw_se = float(imp_means[best]), float(imp_ses[best])
    half = 1.96 * raw_se
    return GapReport(j_rec=CostEstimate(float(j_rec.mean()), float(se(j_rec)),
                                        reps),
                     best_deviation=float(candidates[best]),
                     epsilon_hat=max(0.0, raw),
                     epsilon_ci=(raw - half, raw + half), raw_gap=raw,
                     raw_se=raw_se, candidates=candidates,
                     improvement_means=imp_means, improvement_ses=imp_ses,
                     oracle=oracle)


def cce_gap_nplayer(model: ModelSpec, device: CorrelationDevice, N: int,
                    deviations=21, reps: int = 2000, seed: int = 0,
                    grid: Optional[TimeGrid] = None, workers: int = 1,
                    oracle: Optional[float] = None) -> GapReport:
    """Deviation gap of player 1 in the N-player game under the device.

    By symmetry only player 1 (index 0) deviates.  The G constant-action
    candidates reuse each replication's noise; when the model's drift
    ignores the measure only the deviator's path is re-simulated.  Under
    :func:`ccemfg.model.exact_terminal` every player steps once to T.
    """
    N = check_count("N", N, 2)
    candidates = default_deviation_grid(model, deviations)
    # 1 + G whole ensembles, or one beside player 0's 1 + G rows on its walk
    whole, G = drift_reads_measure(model), candidates.size
    return _gap(_nplayer_chunk, model, device, (N,), candidates,
                (1 + G) * N if whole else N + 1 + G, N if whole else N + 1,
                reps, seed, grid, workers, oracle)


def _gap(chunk, model, device, extra, candidates, state, walked, reps, seed,
         grid, workers, oracle) -> GapReport:
    """Both gaps: ``chunk`` over the jobs ``(model, device, grid, *extra,
    seed, candidates, offset, count)``, sized by :func:`_jobs`."""
    workers = check_count("workers", workers, 0)
    grid = grid or TimeGrid(model.horizon, 200)
    check_run(model, grid, reps=reps)
    if exact_terminal(model):
        grid = TimeGrid(grid.horizon, 1)
    jobs = [(model, device, grid, *extra, seed, candidates, off, cnt)
            for off, cnt in _jobs(reps, 1, grid.steps, state, walked,
                                  candidates.size)]
    parts = list(_map_jobs(chunk, jobs, workers))
    j_rec = np.concatenate([p[0] for p in parts])
    j_dev = np.concatenate([p[1] for p in parts])
    return _assemble_gap(model, j_rec, j_dev, candidates, oracle=oracle)


# ---------------------------------------------------------------------------
# mean field gap
# ---------------------------------------------------------------------------

def _mf_chunk(args):
    """Costs of the recommendation and of every candidate for the
    representative player against the flows of the drawn scenarios.

    The recommendation (row 0) and the G constant candidates of every
    replication step as one (1 + G, R) state on player 0's noise
    (:func:`ccemfg.correlation.follow_scenarios`), priced by
    :func:`_player_costs`; no paths are stored.
    """
    (model, device, grid, seed, candidates, off, count) = args
    rep_ids = off + np.arange(count)
    scen = sample_scenario(device, seed, rep_ids)
    x0, rows = ensemble_noise(model, grid, seed, rep_ids, 1)
    j_rec, j_dev = _player_costs(model, grid, follow_scenarios(
        model, grid, device, scen, x0, rows, candidates))
    return j_rec, j_dev, scen


def mean_field_gap_mc(model: ModelSpec, device: CorrelationDevice,
                      deviations=21, reps: int = 4000, seed: int = 0,
                      grid: Optional[TimeGrid] = None, workers: int = 1,
                      oracle: Optional[float] = None) -> GapReport:
    """Deviation gap of the representative player against the device's
    exogenous flows (mean field optimality check).

    Each replication draws a scenario and the noise of player 0 of that
    replication in the N-player engine; the recommendation and the G
    constant candidates share that noise and are stepped together, with
    their costs accumulated as they go (see :func:`_mf_chunk`).  A chunk
    holds no paths; under :func:`ccemfg.model.exact_terminal` the state
    steps once to T.
    """
    candidates = default_deviation_grid(model, deviations)
    # player 0's 1 + G rows on its own walk
    return _gap(_mf_chunk, model, device, (), candidates,
                1 + candidates.size, 1, reps, seed, grid, workers, oracle)


# ---------------------------------------------------------------------------
# propagation of chaos
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PocResult:
    """Decay of sup_t E[W2^2(empirical, declared flow)] in N."""

    Ns: tuple
    overall: np.ndarray                 # (len(Ns),)
    per_class: dict                     # label -> (len(Ns),)
    per_time: dict                      # N -> (steps+1,) mean W2^2 curves


def _poc_chunk(args):
    """Per-replication W2^2 curves between the empirical measures of the
    ensembles at every N in ``Ns`` and the drawn class's flow.

    Every random input of player j in replication r is keyed by (seed, r,
    j), so the ensemble at N is the first N players of the ensemble at
    max(Ns) whenever the drift does not read the measure, and then no
    measure is computed.  One ensemble of max(Ns) players is streamed; at
    each grid point each prefix ``x[:N]`` is sorted over the players, and
    its quantiles are compared with that time's row of the class table.
    ``table`` is (steps + 1, points, classes).  Returns the curves,
    (len(Ns), R, steps + 1), and the class of each replication; no paths
    are kept.

    A step works in arrays made once: each prefix is sorted in a (max(Ns),
    R) one, its rows at the quantile ranks are gathered into a (points, R)
    one, and the drawn classes' table entries are gathered into another.
    """
    (model, device, grid, Ns, seed, table, off, count) = args
    rep_ids = off + np.arange(count)
    actions, cls = recommended_actions(device, seed, rep_ids, Ns[-1])
    x0, rows = ensemble_noise(model, grid, seed, rep_ids, Ns[-1])
    n_pts = table.shape[1]
    q_idx = [quantile_ranks(N, n_pts) for N in Ns]
    d2 = np.empty((len(Ns), count, grid.steps + 1))
    measure = (empirical_measure(Ns[-1]) if drift_reads_measure(model)
               else lambda i, x: None)
    srt = np.empty((Ns[-1], count))
    ref, diff2 = np.empty((2, n_pts, count))
    for i, x, _, _ in stream(model, grid, x0, rows, actions, measure):
        # every index is in range; with mode="raise" take would fill a
        # temporary and copy it into out
        np.take(table[i], cls, axis=1, out=ref, mode="clip")
        for k, N in enumerate(Ns):
            np.copyto(srt[:N], x[:N])
            srt[:N].sort(axis=0)
            np.take(srt[:N], q_idx[k], axis=0, out=diff2, mode="clip")
            diff2 -= ref
            np.square(diff2, out=diff2)
            d2[k, :, i] = sum_rows(diff2)[0] / n_pts
    return d2, cls


def poc_curve(model: ModelSpec, device: CorrelationDevice,
              Ns: Sequence[int], reps: int = 200, seed: int = 0,
              grid: Optional[TimeGrid] = None, workers: int = 1) -> PocResult:
    """sup_t of the replication-averaged squared W2 between the empirical
    measure flow and the scenario's declared flow, for each N.  A flow
    class that no replication draws raises ``ValueError``.

    When the drift does not read the measure, one ensemble of max(Ns)
    players serves every N (see :func:`_poc_chunk`); otherwise each N is
    streamed on its own.  The jobs split the replications into ``workers``
    chunks (at most :func:`usable_cpus`), smaller if :func:`_jobs`
    requires it.  Each replication's curve is added to its class's sum in
    replication order, so the result does not depend on the chunking or
    on the number of workers.
    """
    workers = check_count("workers", workers, 0)
    Ns = [check_count("Ns", N) for N in Ns]
    if not Ns or any(m >= n for m, n in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be a nonempty, strictly increasing "
                         f"sequence of player counts >= 1, got {Ns}")
    grid = grid or TimeGrid(model.horizon, 200)
    check_run(model, grid, reps=reps)
    classes = device.flow_classes()
    labels = list(classes)
    table = np.stack([classes[lab]["flow"].quantile_table(grid.times)
                      for lab in labels], axis=-1)   # (steps + 1, points, C)
    # the slices of Ns that share one ensemble
    groups = ([slice(i, i + 1) for i in range(len(Ns))]
              if drift_reads_measure(model) else [slice(0, len(Ns))])
    jobs, rows = [], []
    pieces = max(1, min(workers, usable_cpus()))
    for g in groups:
        # the ensemble of the group's largest N, a sorted copy of it and the
        # gather at the table's points, and one curve per N of the group
        for off, cnt in _jobs(reps, pieces, grid.steps,
                              2 * Ns[g][-1] + table.shape[1], Ns[g][-1],
                              curves=len(Ns[g]) * (grid.steps + 1)):
            jobs.append((model, device, grid, Ns[g], seed, table, off, cnt))
            rows.append(g)

    # per (N, class): the sum of the curves, added in replication order
    # (``add.at`` is unbuffered), and the number of replications
    sums = np.zeros((len(Ns), len(labels), grid.steps + 1))
    counts = np.zeros((len(Ns), len(labels)), dtype=np.int64)
    for g, (d2, cls) in zip(rows, _map_jobs(_poc_chunk, jobs, workers)):
        np.add.at(sums[g], (slice(None), cls), d2)
        counts[g] += np.bincount(cls, minlength=len(labels))
    for lab, cnt in zip(labels, counts[0]):
        if not cnt:
            raise ValueError(f"flow class {lab} received no samples; "
                             "increase reps")
    # all classes: their sums added in label order
    per_time = sum_rows(sums)[:, 0] / reps                # (len(Ns), steps + 1)
    per_class = sums / counts[..., None]
    overall = per_time.max(axis=1)
    return PocResult(Ns=tuple(Ns), overall=overall,
                     per_class={lab: per_class[:, ci].max(axis=1)
                                for ci, lab in enumerate(labels)},
                     per_time={N: per_time[i] for i, N in enumerate(Ns)})
