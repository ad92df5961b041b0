"""In-memory span recorder for the traced benchmark run.

The recorder replaces public functions of the ``ccemfg`` modules with thin
wrappers that record a span (name, start, end, parent) around each call and
add counts at the same boundary.  Nothing under ``src/`` changes: the
wrappers are installed on module and class attributes before a traced
workload and removed afterwards.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

ESTIMATORS = ("equilibrium.cce_gap_nplayer", "equilibrium.mean_field_gap_mc",
              "equilibrium.poc_curve")


class Recorder:
    def __init__(self):
        self.spans = []              # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self.quantile_keys = set()
        self.missing = set()
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a recording wrapper until ``unwrap``.
        A boundary the library no longer has is listed in ``missing``."""
        orig = vars(owner).get(attr) if owner is not None else None
        if orig is None:
            self.missing.add(f"{name} ({attr})")
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = orig(*args, **kwargs)
            if count is not None:
                count(self, args, out)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def unwrap(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def totals(self):
        """Per span name: (total seconds, self seconds, call count).  Self
        time is a span's duration minus the part its direct children cover
        (children of one parent run one after another, so that is their
        summed duration)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += end - start
            agg[1] += end - start - child[i]
            agg[2] += 1
        return out

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


# -- counts taken at the wrapped boundaries ---------------------------------

def _count_draws(rec, args, out):
    rec.counts["rng.draws"] += out.size


def _count_normals(rec, args, out):
    rec.counts["pathgen.normals"] += out.size


def _count_paths(rec, args, out):
    rec.counts["pathgen.bytes_computed"] += out.nbytes


def _count_quantile_table(rec, args, out):
    flow, times = args[0], args[1]
    rec.counts["flows.quantile_table_calls"] += 1
    rec.quantile_keys.add((flow.weights.tobytes(), flow.drift_rates.tobytes(),
                           float(flow.x0), np.asarray(times).tobytes(),
                           out.shape[1]))


def _count_cdf_evals(rec, args, out):
    """Mixture-CDF evaluations of one bisection, computed from its inputs:
    the bracket starts at twice ``span`` and halves until BISECT_TOL."""
    from ccemfg.metrics import BISECT_TOL

    m = np.asarray(args[1], dtype=np.float64)
    s = np.asarray(args[2], dtype=np.float64)
    span = float(np.max(np.abs(m)) + 10.0 * np.max(s) + 1.0)
    iters = max(0, math.ceil(math.log2(2.0 * span / BISECT_TOL)))
    rec.counts["metrics.cdf_evals"] += iters * out.size


def _count_estimate(rec, args, out):
    rec.counts["equilibrium.candidate_evals"] += \
        out.candidates.size * out.j_rec.reps
    if out.oracle is not None and out.raw_se > 0:
        z = abs(out.raw_gap - out.oracle) / out.raw_se
        rec.counts["equilibrium.oracle_z"] = max(
            rec.counts["equilibrium.oracle_z"], z)


def _count_mkv(rec, args, out):
    rec.counts["engine.mkv_iterations"] += out.iterations


def _count_written(rec, args, out):
    rec.counts["analytic.bytes_written"] += os.path.getsize(args[1])


# (owner under ``ccemfg``, attribute, span name, count taken on return)
BOUNDARIES = [
    ("rng", "uniforms", "rng.uniforms", _count_draws),
    ("_pathgen_py", "uniforms", "rng.uniforms", _count_draws),
    ("_pathgen_py", "norm_quantile", "pathgen.norm_quantile", _count_normals),
    ("backend", "brownian_paths", "pathgen.brownian_paths", _count_paths),
    ("flows.GaussianMixtureFlow", "quantile_table", "flows.quantile_table",
     _count_quantile_table),
    ("flows.GaussianMixtureFlow", "view", "flows.view", None),
    ("flows.ParticleFlow", "view", "flows.view", None),
    ("flows", "mixture_quantile_table", "metrics.mixture_quantile_table",
     _count_cdf_evals),
    ("correlation", "empirical_quantiles", "metrics.empirical_quantiles",
     None),
    ("cli", "verify_consistency", "correlation.verify_consistency", None),
    ("cli", "null_band", "correlation.null_band", None),
    ("cli", "cce_gap_nplayer", "equilibrium.cce_gap_nplayer", _count_estimate),
    ("cli", "mean_field_gap_mc", "equilibrium.mean_field_gap_mc",
     _count_estimate),
    ("cli", "poc_curve", "equilibrium.poc_curve", None),
    ("cli", "mckean_vlasov_fixed_point", "engine.mckean_vlasov_fixed_point",
     _count_mkv),
    ("cli", "region_sweep", "analytic.region_sweep", None),
    ("analytic.RegionGrid", "to_csv", "analytic.write", _count_written),
    ("analytic.RegionGrid", "to_pgm", "analytic.write", _count_written),
]


def _owner(path):
    module, _, cls = path.partition(".")
    try:
        owner = importlib.import_module("ccemfg." + module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


def install(rec):
    """Wrap the public layer boundaries of the library.  The CLI imports
    its entry points by name, so those are wrapped in ``ccemfg.cli``."""
    for owner, attr, name, count in BOUNDARIES:
        rec.wrap(_owner(owner), attr, name, count)


def layer_metrics(rec):
    """Per-layer numbers of one traced repetition of a workload."""
    t = rec.totals()

    def total(name):
        return t[name][0] if name in t else 0.0

    def self_(*names):
        return sum(t[n][1] for n in names if n in t)

    nq_s = total("pathgen.norm_quantile")
    calls = rec.counts["flows.quantile_table_calls"]
    distinct = len(rec.quantile_keys)
    return {
        "rng.uniforms_s": total("rng.uniforms"),
        "rng.draws": rec.counts["rng.draws"],
        "pathgen.brownian_paths_s": total("pathgen.brownian_paths"),
        "pathgen.norm_quantile_s": nq_s,
        "pathgen.normals_per_s": (rec.counts["pathgen.normals"] / nq_s
                                  if nq_s > 0 else 0.0),
        "pathgen.self_s": self_("pathgen.brownian_paths"),
        "pathgen.bytes_computed": rec.counts["pathgen.bytes_computed"],
        "engine.mkv_iterations": rec.counts["engine.mkv_iterations"],
        "equilibrium.self_s": self_(*ESTIMATORS),
        "equilibrium.chunks": sum(
            1 for name, _, _, parent in rec.spans
            if name == "pathgen.brownian_paths" and parent >= 0
            and rec.spans[parent][0].startswith("equilibrium.")),
        "equilibrium.candidate_evals":
            rec.counts["equilibrium.candidate_evals"],
        "equilibrium.oracle_z": rec.counts["equilibrium.oracle_z"],
        "flows.quantile_table_calls": calls,
        "flows.quantile_table_distinct": distinct,
        "flows.quantile_table_useful": distinct / calls if calls else 0.0,
        "flows.quantile_table_s": total("flows.quantile_table"),
        "flows.view_calls": t["flows.view"][2] if "flows.view" in t else 0,
        "flows.view_s": total("flows.view"),
        "metrics.mixture_quantile_table_s":
            total("metrics.mixture_quantile_table"),
        "metrics.cdf_evals": rec.counts["metrics.cdf_evals"],
        "metrics.empirical_quantiles_s": total("metrics.empirical_quantiles"),
        "correlation.null_band_s": total("correlation.null_band"),
        "correlation.self_s": self_("correlation.verify_consistency",
                                    "correlation.null_band"),
        "analytic.region_sweep_s": total("analytic.region_sweep"),
        "analytic.write_s": total("analytic.write"),
        "analytic.bytes_written": rec.counts["analytic.bytes_written"],
        "cli.self_s": self_("cli.main"),
    }
