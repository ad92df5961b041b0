"""Finite correlation devices: the mediator's lottery over (strategy, flow)
pairs, recommendation sampling, and verification of the consistency
condition by conditioning on the realized flow.

Conditioning on the flow is implemented as grouping by flow label, which is
valid precisely because every shipped device has finitely many distinct
flows; devices with a continuum of flows are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng
from .analytic import PROB_TOL, DeviceProbs, consistency_weights
from .engine import (TimeGrid, check_run, ensemble_noise, stream,
                     strategy_rule)
from .flows import GaussianMixtureFlow, device_flow
from .metrics import empirical_quantiles, quantile_ranks
from .model import MeasureView, ModelSpec

# the null band is _FACTOR times the median sup-W2 of _PILOTS null pilots
_PILOTS = 20
_FACTOR = 3.0


@dataclass(frozen=True)
class Scenario:
    probability: float
    strategy: object             # action rule or constant
    flow: object                 # measure flow carrying a .label
    label: str = ""


@dataclass(frozen=True)
class CorrelationDevice:
    scenarios: tuple

    def __post_init__(self):
        if len(self.scenarios) == 0:
            raise ValueError("device needs at least one scenario")
        probs = np.array([s.probability for s in self.scenarios])
        if np.any(probs < -PROB_TOL):
            raise ValueError("scenario probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > PROB_TOL:
            raise ValueError("scenario probabilities must sum to 1")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([s.probability for s in self.scenarios])

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
    if not a < 0.0 < b:
        raise ValueError("need a < 0 < b")
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
                     x0: np.ndarray, w_rows, candidates=()):
    """Step the representative player of every replication, in one
    (1 + G, R) state, through the scenario the lottery drew for it.

    ``scen``: each replication's scenario; ``x0``, ``w_rows``: the
    one-player :func:`ccemfg.engine.ensemble_noise`, whose (1, R) rows
    broadcast over the state.  Row 0 follows the scenario strategy and rows
    1..G the constant ``candidates``, on the same noise.  Each drawn flow is
    viewed once at all grid points, into (steps + 1, S) tables of means and
    second moments; the measure at a step gathers each replication's
    column, and a strategy sees its own flow's view.  Yields as
    :func:`ccemfg.engine.stream`; the yielded actions are overwritten at
    the next step.
    """
    candidates = np.asarray(candidates, dtype=np.float64)
    drawn = np.unique(scen)
    col = np.searchsorted(drawn, scen)              # table column per rep
    views = [device.scenarios[s].flow.view(grid.times) for s in drawn]
    means = np.stack([v.mean for v in views], axis=1)
    seconds = np.stack([v.second_moment for v in views], axis=1)
    rules = [(np.flatnonzero(col == c),
              strategy_rule(device.scenarios[s].strategy, grid))
             for c, s in enumerate(drawn)]
    a = np.empty((1 + candidates.size, scen.size))
    a[1:] = candidates[:, None]

    def recommend(i, x, mv):
        for c, (idx, rule) in enumerate(rules):
            a[0, idx] = rule(i, x[0, idx], MeasureView(
                mean=means[i, c], second_moment=seconds[i, c]))
        return a

    def measure(i, x):
        return MeasureView(mean=means[i, col], second_moment=seconds[i, col])

    return stream(model, grid, np.broadcast_to(x0, a.shape), w_rows,
                  recommend, measure)


def verify_consistency(model: ModelSpec, device: CorrelationDevice,
                       grid: TimeGrid, reps: int, seed: int) -> ConsistencyReport:
    """Compare, per flow class and per time, the pooled law of the
    representative state against the declared flow (1-d W2).

    Each replication follows its drawn scenario (:func:`follow_scenarios`);
    at each grid point a class's states are sorted and compared with that
    time's row of its flow's quantile table.  A flow without one raises, so
    does a positive-probability class with no samples; classes with fewer
    than 100 samples are flagged.
    """
    check_run(model, grid, reps=reps)
    scen = sample_scenario(device, seed, np.arange(reps))
    times = grid.times
    reports, members_of = [], []
    for label, entry in device.flow_classes().items():
        if not hasattr(entry["flow"], "quantile_table"):
            raise ValueError(f"flow class {label} has no quantile table")
        members = np.flatnonzero(np.isin(scen, entry["scenarios"]))
        if members.size == 0:
            if entry["probability"] > 0:
                raise ValueError(f"flow class {label} received no samples; "
                                 "increase reps")
            continue
        reports.append(ClassReport(
            label=label, probability=float(entry["probability"]),
            count=members.size, times=times, w2=np.empty(times.size),
            flagged=members.size < 100,
            table=entry["flow"].quantile_table(times)))
        members_of.append(members)

    x0, rows = ensemble_noise(model, grid, seed, np.arange(reps), 1)
    for i, x, _, _ in follow_scenarios(model, grid, device, scen, x0, rows):
        for cl, members in zip(reports, members_of):
            eq = empirical_quantiles(np.sort(x[0, members]))
            cl.w2[i] = np.sqrt(np.mean((eq - cl.table[i]) ** 2))
    return ConsistencyReport(classes=tuple(reports), reps=reps, seed=seed)


def null_band(flow: GaussianMixtureFlow, times: np.ndarray, count: int,
              seed: int, *, table: Optional[np.ndarray] = None) -> float:
    """Pilot-calibrated threshold for sup-t W2 under the null (samples drawn
    from the flow itself).  Returns ``_FACTOR`` (3) times the median over
    ``_PILOTS`` (20) pilots of the sup-t W2 between ``count`` samples and the
    flow's quantile table on ``times``.  ``table``: that table, if already
    built; its shape must be ``(len(times), n_pts)`` with ``n_pts`` a power
    of two in [2, 2**16].

    A pilot samples by inverse CDF straight from the table: sample ``c`` of
    time row ``t`` is ``table[t, idx]``, where ``idx`` is field
    ``t * count + c`` of :func:`ccemfg.rng.bit_fields` on pilot ``p``'s
    stream ``(seed, TAG_PROBE, p)``, ``log2(n_pts)`` bits wide (7 indices
    per 64-bit draw at 512 points), so every index is exactly uniform.
    Each row of the table is nondecreasing (``mixture_quantile_table``
    ends with a running maximum along the levels), so sorting the indices
    of a row sorts its samples, equal indices giving equal values.  Hence
    each row of indices is sorted in place and only the ``n_pts`` order
    statistics that :func:`empirical_quantiles` would pick are gathered;
    the band is the same to the last bit as gathering and sorting the
    floats.  Raises ``ValueError`` unless ``count`` is at least 1 and
    ``table`` has the shape above.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if table is None:
        table = flow.quantile_table(times)
    n_t = len(times)
    if table.ndim != 2 or table.shape[0] != n_t:
        raise ValueError(f"table must have shape ({n_t}, n_pts), "
                         f"got {table.shape}")
    n_pts = table.shape[1]
    if not (2 <= n_pts <= 2**16 and n_pts & (n_pts - 1) == 0):
        raise ValueError(f"table width must be a power of two in "
                         f"[2, 2**16], got {n_pts}")
    bits = n_pts.bit_length() - 1
    rows = np.arange(n_t)[:, None]
    picks = quantile_ranks(count, n_pts)
    sups = []
    for p in range(_PILOTS):
        key = rng.stream_key(seed, rng.TAG_PROBE, p)
        idx = rng.bit_fields(key, n_t * count, bits).reshape(n_t, count)
        idx.sort(axis=1)
        eq = table[rows, idx[:, picks]]               # (T, n_pts)
        # a new array, not eq's buffer: eq is in F order, which would change
        # the order in which each row mean adds up
        sq = eq - table
        del eq                        # a pilot holds two (T, n_pts) arrays
        np.square(sq, out=sq)
        sups.append(float(np.max(np.sqrt(np.mean(sq, axis=1)))))
    return _FACTOR * float(np.median(sups))
