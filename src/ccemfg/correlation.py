"""Finite correlation devices: the mediator's lottery over (strategy, flow)
pairs, recommendation sampling, and verification of the consistency
condition by conditioning on the realized flow.

Conditioning on the flow is implemented as grouping by flow label, which is
valid precisely because every shipped device has finitely many distinct
flows; devices with a continuum of flows are out of scope.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng
from .analytic import DeviceProbs, _check_probabilities, consistency_weights
from .engine import TimeGrid, check_count, check_run, ensemble_noise, stream
from .flows import GaussianMixtureFlow, device_flow
from .metrics import quantile_ranks
from .model import (MeasureView, ModelSpec, check_interval,
                    drift_reads_measure)

# null_band's multiple of sqrt(max_t E[W2^2(t)]).  Exact flow samples drawn
# anew at each time, as the pilots were (white and two-component flows,
# counts 200 and 2000, 200 runs each), had a sup-W2 of median 1.6 to 1.7
# and at most 2.95 such units; the pilot band read 4.4 to 5.8 (seeds 0-199).
BAND_FACTOR = 5.0
# the values of j (the binomial laws) in one block of null_expectation
_NULL_ROWS = 32


@dataclass(frozen=True)
class Scenario:
    probability: float
    strategy: float              # the recommended constant action
    flow: object                 # measure flow carrying a .label
    label: str = ""


@dataclass(frozen=True)
class CorrelationDevice:
    """The mediator's lottery over scenarios.  Raises ``ValueError`` unless
    the probabilities are finite and nonnegative and sum to 1 (the rule of
    :class:`ccemfg.analytic.DeviceProbs`) and every strategy is a finite
    real (a constant action).  Keeps only the scenarios of positive
    probability, so every scenario and every flow class can be drawn."""

    scenarios: tuple

    def __post_init__(self):
        if len(self.scenarios) == 0:
            raise ValueError("device needs at least one scenario")
        _check_probabilities([s.probability for s in self.scenarios])
        for k, s in enumerate(self.scenarios):
            if not (isinstance(s.strategy, numbers.Real)
                    and math.isfinite(s.strategy)):
                raise ValueError(f"scenario {s.label or k}: the strategy must "
                                 f"be a finite real action, got {s.strategy!r}")
        object.__setattr__(self, "scenarios", tuple(
            s for s in self.scenarios if s.probability > 0))

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([s.probability for s in self.scenarios])

    @property
    def strategies(self) -> np.ndarray:
        return np.array([s.strategy for s in self.scenarios], dtype=np.float64)

    def flow_classes(self) -> dict:
        """Distinct flows with their total probability and scenario indices,
        keyed by flow label (``flow<k>`` for the k-th unlabelled flow
        object), in first-appearance order."""
        classes, unlabelled = {}, {}
        for idx, s in enumerate(self.scenarios):
            lab = getattr(s.flow, "label", "") or unlabelled.setdefault(
                id(s.flow), f"flow{len(unlabelled)}")
            entry = classes.setdefault(lab, {"flow": s.flow, "probability": 0.0,
                                             "scenarios": []})
            entry["probability"] += s.probability
            entry["scenarios"].append(idx)
        return classes


def build_example_device(p: DeviceProbs, a: float, b: float) -> CorrelationDevice:
    """The four-outcome device of the bang-bang instance.

    Pairs the constant controls b / a with the two consistent mixture
    flows; outcomes with zero probability are dropped, so corner devices
    degenerate to a single scenario.
    """
    check_interval(a, b)
    a1, a2 = consistency_weights(p)
    flows = {}
    if a1 is not None:
        flows[1] = device_flow(a1, a, b, label="mu1")
    if a2 is not None:
        flows[2] = device_flow(a2, a, b, label="mu2")
    table = [("u+", b, 1, p.p11), ("u+", b, 2, p.p12),
             ("u-", a, 1, p.p21), ("u-", a, 2, p.p22)]
    scenarios = []
    for strat_label, action, col, prob in table:
        if prob <= 0.0:
            continue
        scenarios.append(Scenario(probability=prob, strategy=float(action),
                                  flow=flows[col],
                                  label=f"({strat_label},mu{col})"))
    return CorrelationDevice(scenarios=tuple(scenarios))


def sample_scenario(device: CorrelationDevice, seed: int,
                    rep_ids) -> np.ndarray:
    """The lottery: i.i.d. scenario indices, one per replication id.

    Replication r takes draw r of a dedicated counter stream, so its
    scenario does not depend on which other ids are drawn with it.
    """
    rep_ids = np.asarray(rep_ids)
    if rep_ids.size < 1:
        raise ValueError("need at least one replication id")
    key = rng.stream_key(seed, rng.TAG_SCENARIO)
    u = rng.uniforms(key, rep_ids)
    edges = np.cumsum(device.probabilities)
    edges[-1] = 1.0 + 1e-15
    return np.searchsorted(edges, u, side="right").astype(np.int64)


@dataclass(frozen=True)
class ClassReport:
    label: str
    probability: float
    count: int
    times: np.ndarray
    w2: np.ndarray
    flagged: bool = False        # fewer than 100 pooled samples
    # quantile table of the declared flow on ``times``
    table: Optional[np.ndarray] = field(default=None, repr=False,
                                        compare=False)

    @property
    def sup_w2(self) -> float:
        return float(np.max(self.w2))


@dataclass(frozen=True)
class ConsistencyReport:
    classes: tuple
    reps: int
    seed: int


def follow_scenarios(model: ModelSpec, grid: TimeGrid,
                     device: CorrelationDevice, scen: np.ndarray,
                     x0: np.ndarray, w_rows, candidates=(), views=True):
    """Step the representative player of every replication, in one
    (1 + G, R) state, through the scenario the lottery drew for it.

    ``scen``: each replication's scenario; ``x0``, ``w_rows``: the
    one-player :func:`ccemfg.engine.ensemble_noise`, whose (1, R) rows
    broadcast over the state.  Row 0 takes the scenario's recommended
    action and rows 1..G the ``candidates``, on the same noise.  Each drawn
    flow is viewed once at all grid points, into (steps + 1, S) tables of
    means and second moments; the measure at a step gathers each
    replication's column.  With ``views`` False, for a caller whose model
    reads no measure, no flow is viewed and the measure is None.  Yields
    as :func:`ccemfg.engine.stream`.
    """
    candidates = np.asarray(candidates, dtype=np.float64)
    a = np.empty((1 + candidates.size, scen.size))
    a[0], a[1:] = device.strategies[scen], candidates[:, None]
    if views:
        # np.unique would import numpy.ma on its first call, 1 MiB
        drawn = np.flatnonzero(np.bincount(scen))
        col = np.searchsorted(drawn, scen)          # table column per rep
        flows = [device.scenarios[s].flow.view(grid.times) for s in drawn]
        means = np.stack([v.mean for v in flows], axis=1)
        seconds = np.stack([v.second_moment for v in flows], axis=1)

    def measure(i, x):
        return MeasureView(mean=means[i, col], second_moment=seconds[i, col])

    return stream(model, grid, np.broadcast_to(x0, a.shape), w_rows, a,
                  measure if views else lambda i, x: None)


def verify_consistency(model: ModelSpec, device: CorrelationDevice,
                       grid: TimeGrid, reps: int, seed: int) -> ConsistencyReport:
    """Compare, per flow class and per time, the pooled law of the
    representative state against the declared flow (1-d W2).

    Each replication follows its drawn scenario (:func:`follow_scenarios`);
    at each grid point a class's states are sorted in a buffer made once,
    and their empirical quantiles (at ranks found once) compared with that
    time's row of its flow's quantile table.  A flow without one raises, so
    does a class with no samples; classes with fewer than 100 samples are
    flagged.
    """
    check_run(model, grid, reps=reps)
    scen = sample_scenario(device, seed, np.arange(reps))
    times = grid.times
    reports, scored = [], []
    for label, entry in device.flow_classes().items():
        if not hasattr(entry["flow"], "quantile_table"):
            raise ValueError(f"flow class {label} has no quantile table")
        members = np.flatnonzero(np.isin(scen, entry["scenarios"]))
        if members.size == 0:
            raise ValueError(f"flow class {label} received no samples; "
                             "increase reps")
        table = entry["flow"].quantile_table(times)
        reports.append(ClassReport(
            label=label, probability=float(entry["probability"]),
            count=members.size, times=times, w2=np.empty(times.size),
            flagged=members.size < 100, table=table))
        scored.append((reports[-1], members, np.empty(members.size),
                       quantile_ranks(members.size, table.shape[1])))

    x0, rows = ensemble_noise(model, grid, seed, np.arange(reps), 1)
    # the scoring reads no measure, and an action drift none either
    for i, x, _, _ in follow_scenarios(model, grid, device, scen, x0, rows,
                                       views=drift_reads_measure(model)):
        for cl, members, srt, ranks in scored:
            np.take(x[0], members, out=srt)
            srt.sort()
            d = srt[ranks]                  # the empirical quantiles
            d -= cl.table[i]
            d *= d
            cl.w2[i] = np.sqrt(np.mean(d))
    return ConsistencyReport(classes=tuple(reports), reps=reps, seed=seed)


def null_expectation(table: np.ndarray, count: int) -> np.ndarray:
    """E[W2^2(t)] for each row t of ``table`` (n_t, n), whose rows must be
    nondecreasing: the expected squared W2 between ``count`` i.i.d. draws
    of the row's table law (each entry of probability 1/n) and the row.

    The draws' empirical quantile at level i is ``T[t, idx_(k_i)]``, the
    ``k_i = quantile_ranks(count, n)[i]``-th of the sorted uniform indices,
    and ``S(i, j) = P(idx_(k_i) <= j) = P(Bin(count, (j+1)/n) >= k_i + 1)``.
    So ``n E[t] = sum_ij (S(i, j) - S(i, j-1)) (T[t, j] - T[t, i])^2``,
    summed here by parts in j, ``_NULL_ROWS`` values of j at a time.  A
    block's binomial pmfs come from one log-factorial table, on the window
    of x that holds all but 2**-64 of each of its laws' mass.  S is 1 for
    the columns i with k_i + 1 at most the window's lowest x and 0 above
    its highest, so each block's sum over i is an ``einsum`` (which, unlike
    a matrix product, wakes no BLAS threads) over the columns in between
    alone: about 10 n / sqrt(count) of them where p = 1/2, not n.
    """
    count = check_count("count", count)
    if table.ndim != 2 or table.shape[1] < 1:
        raise ValueError(f"table must be (n_t, n), n >= 1, got {table.shape}")
    n = table.shape[1]
    k = quantile_ranks(count, n) + 1            # S(i, j) = P(X_j >= k[i])
    log_fact = np.zeros(count + 1)
    np.cumsum(np.log(np.arange(1.0, count + 1)), out=log_fact[1:])
    log_choose = log_fact[-1] - log_fact - log_fact[::-1]
    # Bernstein's inequality, a Chernoff bound: each tail of X_j beyond t
    # from its mean holds at most exp(-t^2 / (2 (var + t / 3))), which is
    # exp(-L) = 2**-65 at this t, also where p = 1/n makes it Poisson-like
    p = np.arange(1, n) / n                     # X_j ~ Bin(count, p[j])
    L = 65.0 * math.log(2.0)
    t = L / 3.0 + np.sqrt(L * L / 9.0 + 2.0 * L * count * p * (1.0 - p))
    x_lo = np.maximum(np.ceil(count * p - t), 0.0).astype(np.int64)
    x_hi = np.minimum(np.floor(count * p + t), count).astype(np.int64)
    # by parts: (T[t, n-1] - T[t, i])^2 less, for each j < n - 1,
    # S(i, j) (T[t, j+1] - T[t, j]) (T[t, j+1] + T[t, j] - 2 T[t, i])
    out = table[:, -1:] - table
    out = np.einsum("ti,ti->t", out, out)
    for j0 in range(0, n - 1, _NULL_ROWS):
        j1 = min(j0 + _NULL_ROWS, n - 1)
        lo_x, hi_x = int(x_lo[j0:j1].min()), int(x_hi[j0:j1].max())
        pj = p[j0:j1, None]
        # Bin(count, p) log-pmfs at x = hi_x, hi_x - 1, ..., lo_x.  exp is
        # ten times slower where it underflows, and a mass below
        # exp(-708), the smallest normal double, changes no sum.
        pmf = (np.log(pj) - np.log1p(-pj)) * np.arange(hi_x, lo_x - 1, -1.0)
        pmf += log_choose[lo_x:hi_x + 1][::-1]
        pmf += count * np.log1p(-pj)
        np.maximum(pmf, -708.0, out=pmf)
        np.exp(pmf, out=pmf)
        # summed from the top and scaled by the totals, so S is exactly 1
        # where the rest of the pmf is below rounding
        np.cumsum(pmf, axis=1, out=pmf)
        a, b = np.searchsorted(k, [lo_x, hi_x], side="right")
        s = pmf[:, hi_x - k[a:b]]                   # S(i, j) in row j - j0
        s /= pmf[:, -1:]
        del pmf
        term = np.einsum("ti,ji->tj", table[:, a:b], s)
        term += table[:, :a].sum(axis=1)[:, None]  # sum_i S(i, j) T[t, i]
        lo, hi = table[:, j0:j1], table[:, j0 + 1:j1 + 1]
        term *= 2.0
        term -= (hi + lo) * (a + s.sum(axis=1))
        term *= hi - lo
        out += term.sum(axis=1)
    return out / n


def null_band(flow: GaussianMixtureFlow, times: np.ndarray, count: int,
              seed=None, *, table: Optional[np.ndarray] = None) -> float:
    """Threshold for sup-t W2 under the null, ``count`` samples of the flow
    itself: ``BAND_FACTOR`` times sqrt(max_t :func:`null_expectation`) of
    ``table``, the flow's quantile table on ``times`` (built if not given),
    of shape ``(len(times), n_pts)``.  The band is exact, so ``seed`` is
    ignored; it is kept for the callers that pass it.  Raises
    ``ValueError`` on a bad ``count`` or ``table``.
    """
    if table is None:
        table = flow.quantile_table(times)
    if table.shape[:1] != (len(times),):
        raise ValueError(f"table needs {len(times)} rows, got {table.shape}")
    return BAND_FACTOR * float(np.sqrt(null_expectation(table, count).max()))
