"""One benchmark process for one workload.

It imports the library from ``src/`` (numpy backend unless the compiled
extension is importable), runs the workload's CLI calls through
``ccemfg.cli.main`` again and again for a time budget, and checks every
output against the exact answer from ``ccemfg.analytic``.  Its last stdout
line is one JSON object with the metrics, the call counts and the
environment.  ``run.py`` starts one fresh interpreter per workload, so the
peak resident set belongs to this workload and its pool workers alone.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --out DIR [--spans FILE] [--size full|tiny]
    python3 perfbench/workload.py --setup-only --workload NAME --seed N
"""

import time

_START = time.perf_counter()   # setup_s counts from here: imports included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from ccemfg import analytic, cli, correlation, engine  # noqa: E402
from ccemfg.equilibrium import poc_curve  # noqa: E402
from ccemfg.model import build_bang_bang_model  # noqa: E402

import spans  # noqa: E402

# CLI calls of each workload (``--seed`` and ``--out`` are appended), and
# the shape at which the traced run times the public engine entry point.
# "full" is the measured size; "tiny" only proves that every metric is
# emitted (selftest.py).
WORKLOADS = {
    "nplayer_gap": {
        "full": [["gap", "--p", "0.5,0.3,0.2,0", "--N", "200", "--reps",
                  "500", "--steps", "200", "--workers", "1"]],
        "tiny": [["gap", "--p", "0.5,0.3,0.2,0", "--N", "20", "--reps",
                  "60", "--steps", "20", "--workers", "1"]],
        "engine": {"full": ("ensemble", 200, 100),
                   "tiny": ("ensemble", 20, 20)},
    },
    "representative": {
        "full": [["mfgap", "--p", "0.5,0.3,0.2,0", "--reps", "1000",
                  "--workers", "1"],
                 ["consistency", "--p", "0.5,0,0,0.5", "--reps", "4000"],
                 ["mkv", "--particles", "10000", "--max-iters", "10"]],
        "tiny": [["mfgap", "--p", "0.5,0.3,0.2,0", "--reps", "400",
                  "--steps", "20", "--workers", "1"],
                 ["consistency", "--p", "0.5,0,0,0.5", "--reps", "2000",
                  "--steps", "20"],
                 ["mkv", "--particles", "10000", "--max-iters", "10",
                  "--steps", "20"]],
        "engine": {"full": ("representative", 1, 1000),
                   "tiny": ("representative", 1, 400)},
    },
    "poc_parallel": {
        "full": [["poc", "--p", "1,0,0,0", "--N", "50,100,200,400", "--reps",
                  "100", "--workers", "2"]],
        "tiny": [["poc", "--p", "1,0,0,0", "--N", "10,20,40,80", "--reps",
                  "40", "--steps", "20", "--workers", "2"]],
        "engine": {"full": ("ensemble", 400, 50),
                   "tiny": ("ensemble", 80, 10)},
    },
    "region_raster": {
        "full": [["region", "--resolution", "201", "--alpha", "0,0.5,1"]],
        "tiny": [["region", "--resolution", "21", "--alpha", "0,0.5,1"]],
        "engine": {"full": None, "tiny": None},
    },
}

SE_TARGET = 0.01          # time_to_se_s projects the time to this std error
REGION_SPOT_CHECKS = 64   # cells per raster re-derived with cce_margin


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


def _body_digest(paths):
    """Digest of the output files without their ``#`` config header lines."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for line in fh:
                if not line.startswith(b"#"):
                    h.update(line)
    return h.hexdigest()


class Call:
    """One CLI invocation with its exact oracle."""

    def __init__(self, argv, seed, out_dir, index):
        self.name = argv[0]
        self.base = os.path.join(out_dir, f"{index}_{self.name}")
        self.argv = argv + ["--seed", str(seed), "--out", self.base]
        self.cfg = cli.resolve_config(self.argv)
        cfg = self.cfg
        self.model = build_bang_bang_model(cfg.a, cfg.b, cfg.c, cfg.T)
        self.probs = analytic.DeviceProbs(*cfg.p)
        self.device = correlation.build_example_device(self.probs, cfg.a,
                                                       cfg.b)
        self.grid = engine.TimeGrid(cfg.T, cfg.steps)
        self.oracle = None
        if self.name == "gap":
            self.oracle = {N: analytic.finite_n_gap_oracle(
                self.probs, cfg.a, cfg.b, cfg.c, cfg.T, N) for N in cfg.N}
        elif self.name == "mfgap":
            margin = analytic.cce_margin(self.probs, cfg.a, cfg.b)
            self.oracle = cfg.c * cfg.T * cfg.T * max(0.0, -margin)
        self._bands = {}

    def with_workers(self, workers):
        argv = list(self.argv)
        if "--workers" in argv:
            argv[argv.index("--workers") + 1] = str(workers)
        return argv

    def outputs(self):
        if self.name == "region":
            return [f"{self.base}_alpha{a:g}.{ext}"
                    for a in self.cfg.alpha for ext in ("csv", "pgm")]
        if self.name == "mkv":
            return [self.base + ".csv", self.base + "_trace.csv"]
        return [self.base + ".csv"]

    def check(self):
        """Problems found in the outputs, and the standard error the
        estimator reported (None for calls without one)."""
        return getattr(self, "_check_" + self.name)()

    def _check_gap(self):
        problems, ses = [], []
        for row in _read_rows(self.base + ".csv"):
            N = int(row["N"])
            raw, se = float(row["raw_gap"]), float(row["raw_se"])
            ses.append(se)
            if not abs(raw - self.oracle[N]) <= 4.0 * se:
                problems.append(f"gap N={N}: raw {raw} vs oracle "
                                f"{self.oracle[N]} exceeds 4 se ({se})")
        return problems, max(ses)

    def _check_mfgap(self):
        (row,) = _read_rows(self.base + ".csv")
        raw, se = float(row["raw_gap"]), float(row["raw_se"])
        if abs(raw - self.oracle) <= 4.0 * se:
            return [], se
        return [f"mfgap: raw {raw} vs oracle {self.oracle} exceeds 4 se "
                f"({se})"], se

    def _check_consistency(self):
        sup, count = {}, {}
        for row in _read_rows(self.base + ".csv"):
            lab = row["class"]
            sup[lab] = max(sup.get(lab, 0.0), float(row["w2"]))
            count[lab] = int(row["count"])
        classes = self.device.flow_classes()
        problems = []
        if set(sup) != set(classes):
            problems.append(f"consistency: classes {sorted(sup)} != "
                            f"{sorted(classes)}")
        for lab in sup.keys() & classes.keys():
            key = (lab, count[lab])
            if key not in self._bands:
                self._bands[key] = correlation.null_band(
                    classes[lab]["flow"], self.grid.times, count[lab],
                    self.cfg.seed)
            if not sup[lab] <= min(self._bands[key], 0.15):
                problems.append(f"consistency {lab}: sup W2 {sup[lab]} above "
                                f"min(null band {self._bands[key]}, 0.15)")
        return problems, None

    def _check_mkv(self):
        cfg = self.cfg
        last = _read_rows(self.base + ".csv")[-1]
        dists = [float(r["w2_to_previous"])
                 for r in _read_rows(self.base + "_trace.csv")]
        action = cfg.b if cfg.action is None else cfg.action
        mean, var = float(last["mean"]), float(last["var"])
        problems = []
        if not dists or not dists[-1] < cfg.tol:
            problems.append(f"mkv did not converge: {dists}")
        if not abs(mean - action * cfg.T) < 0.05:
            problems.append(f"mkv terminal mean {mean} != {action * cfg.T}")
        if not abs(var - cfg.T) / cfg.T < 0.1:
            problems.append(f"mkv terminal var {var} != {cfg.T}")
        return problems, None

    def _check_poc(self):
        vals = [(int(r["N"]), float(r["sup_w2_sq"]))
                for r in _read_rows(self.base + ".csv") if r["class"] == "all"]
        vals.sort()
        v = [x for _, x in vals]
        problems = []
        if [N for N, _ in vals] != sorted(self.cfg.N):
            problems.append(f"poc: rows for N={[N for N, _ in vals]}")
        elif not all(b < a for a, b in zip(v, v[1:])):
            problems.append(f"poc curve not strictly decreasing: {vals}")
        elif not v[-1] < 0.5 * v[0]:
            problems.append(f"poc: value at N={vals[-1][0]} not below half "
                            f"the value at N={vals[0][0]}: {vals}")
        return problems, None

    def _check_region(self):
        cfg = self.cfg
        res = cfg.resolution
        picker = np.random.default_rng(cfg.seed)
        problems = []
        for alpha in cfg.alpha:
            path = f"{self.base}_alpha{alpha:g}"
            cells = np.loadtxt(path + ".csv", delimiter=",", skiprows=2,
                               ndmin=2)
            p11, p22, p12, p21, _, _, _, margin, is_cce = cells.T
            if cells.shape[0] != res * (res + 1) // 2:
                problems.append(f"region alpha={alpha:g}: {cells.shape[0]} "
                                "feasible cells")
            if not np.array_equal(is_cce == 1, margin >= -1e-12):
                problems.append(f"region alpha={alpha:g}: is_cce disagrees "
                                "with margin >= -1e-12")
            for i in picker.choice(cells.shape[0], REGION_SPOT_CHECKS):
                exact = analytic.cce_margin(analytic.DeviceProbs(
                    p11[i], p12[i], p21[i], p22[i]), cfg.a, cfg.b)
                if abs(exact - margin[i]) > 1e-12:
                    problems.append(f"region alpha={alpha:g}: margin "
                                    f"{margin[i]} != cce_margin {exact}")
                    break
            with open(path + ".pgm") as fh:
                rows = [ln for ln in fh.read().splitlines()
                        if not ln.startswith("#")][3:]
            shade = np.array([[int(v) for v in r.split()] for r in rows])
            # rows run from p22 = 1 down, so p11 + p22 = 1 is the diagonal
            if shade.shape != (res, res) or not np.all(np.diag(shade) == 255):
                problems.append(f"region alpha={alpha:g}: diagonal not white")
        return problems, None


class Runner:
    """Runs calls, counts attempts and failures, pins output digests."""

    def __init__(self, calls):
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def run_call(self, call, argv, recorder=None):
        """Run one CLI call; returns (seconds, std error or None)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                if recorder is None:
                    rc = cli.main(argv)
                else:                   # checks below stay out of the trace
                    spans.install(recorder)
                    try:
                        with recorder.span("cli.main"):
                            rc = cli.main(argv)
                    finally:
                        recorder.unwrap()
        except Exception:                       # a crash is a failed call
            rc = "exception: " + traceback.format_exc()
        dt = time.perf_counter() - t0
        self.attempted += 1
        problems, se = [], None
        if rc != 0:
            problems.append(f"{call.name} exited {rc}: {err.getvalue()}")
        else:
            try:
                problems, se = call.check()
                digest = _body_digest(call.outputs())
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"{call.name}: unreadable output ({exc!r})")
            else:
                first = self.digests.setdefault(call.base, digest)
                if digest != first:
                    problems.append(f"{call.name}: output differs from the "
                                    "first run at the same seed")
        if problems:
            self.failed += 1
            for p in problems:
                print("FAILED " + " ".join(argv) + ": " + p, file=sys.stderr)
        return dt, se

    def rep(self, workers=None, recorder=None):
        """One pass over the workload; returns (seconds, time_to_se_s)."""
        total = to_se = 0.0
        for call in self.calls:
            argv = call.argv if workers is None else call.with_workers(workers)
            dt, se = self.run_call(call, argv, recorder)
            total += dt
            if se is not None:
                to_se += dt * (se / SE_TARGET) ** 2
        return total, to_se


def _engine_rate(shape, call):
    """States per second of the public engine entry point at one shape,
    counting only the engine's own time (path generation is a child span)."""
    if shape is None:
        return 0.0, 0
    kind, N, reps = shape
    rec = spans.Recorder()
    spans.install(rec)
    try:
        grid, seed = call.grid, call.cfg.seed
        if kind == "ensemble":
            actions = np.where(np.arange(reps * N).reshape(reps, N) % 2,
                               call.cfg.a, call.cfg.b)
            with rec.span("engine"):
                engine.simulate_ensemble(call.model, grid, actions, N, reps,
                                         seed)
        else:
            flow = call.device.scenarios[0].flow
            with rec.span("engine"):
                engine.simulate_representative(call.model, grid, flow,
                                               call.cfg.b, reps, seed)
    finally:
        rec.unwrap()
    updates = reps * N * grid.steps
    return updates / rec.totals()["engine"][1], updates


def _environment():
    try:
        from ccemfg import backend
        active = backend.active_backend()
        available = list(backend.available_backends())
    except ImportError:         # one numpy implementation, no selector
        active, available = "python", ["python"]
    return {"backend": active, "available_backends": available,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def _peak_rss_mb():
    """Largest resident set of this process and of any waited-for child
    (the process-pool workers), in MiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def measure(runner, seconds):
    """Untraced end-to-end run: repeat the workload for ``seconds``."""
    times = []
    t_end = time.perf_counter() + seconds
    while len(times) < 2 or time.perf_counter() < t_end:
        times.append(runner.rep()[0])
    return {"run_s": _median(times), "peak_rss_mb": _peak_rss_mb()}, times


def measure_traced(runner, seconds, engine_shape, spans_path):
    """Traced run with one worker.  Each pass runs the workload untraced and
    then traced, so ``trace.overhead_s`` compares like with like."""
    call0 = runner.calls[0]
    pool = call0.cfg.workers if call0.name == "poc" else 0
    plain, traced, to_se, layers = [], [], [], []
    parallel, imbalance = [], []
    dumps, untraced = [], set()
    t_end = time.perf_counter() + seconds
    runner.rep(workers=1)       # warm-up: the first untraced pass is not cold
    while not traced or time.perf_counter() < t_end:
        t, s = runner.rep(workers=1)
        plain.append(t)
        to_se.append(s)
        if pool > 1:
            parallel.append(runner.rep(workers=pool)[0])
            per_n = []
            for N in call0.cfg.N:
                t0 = time.perf_counter()
                poc_curve(call0.model, call0.device, [N], reps=call0.cfg.reps,
                          seed=call0.cfg.seed, grid=call0.grid, workers=1)
                per_n.append(time.perf_counter() - t0)
            imbalance.append(max(per_n) / statistics.mean(per_n))
        rec = spans.Recorder()
        traced.append(runner.rep(workers=1, recorder=rec)[0])
        layers.append(spans.layer_metrics(rec))
        dumps.append(rec.dump())
        untraced.update(rec.missing)
    metrics = {k: _median([m[k] for m in layers]) for k in layers[0]}
    rate, updates = _engine_rate(engine_shape, call0)
    metrics.update({
        "engine.states_per_s": rate,
        "engine.state_updates": updates,
        "equilibrium.time_to_se_s": _median(to_se),
        "equilibrium.pool_efficiency":
            _median(plain) / (pool * _median(parallel)) if pool > 1 else 0.0,
        "equilibrium.pool_imbalance": _median(imbalance),
        "trace.overhead_s": _median(traced) - _median(plain),
    })
    if untraced:
        print("not traced, missing from the library: "
              + ", ".join(sorted(untraced)), file=sys.stderr)
    if spans_path:
        with open(spans_path, "w") as fh:
            json.dump(dumps, fh)
    return metrics, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", default=".")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    spec = WORKLOADS[args.workload]
    calls = [Call(a, args.seed, args.out, i)
             for i, a in enumerate(spec[args.size])]
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    runner = Runner(calls)
    if args.trace:
        metrics, reps = measure_traced(runner, args.seconds,
                                       spec["engine"][args.size], args.spans)
    else:
        metrics, reps = measure(runner, args.seconds)
    print(json.dumps({"metrics": metrics, "rep_seconds": reps,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "setup_s": setup_s,
                      "env": _environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
