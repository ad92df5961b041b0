"""ccemfg benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` with no build step.  With ``--trace 0`` it reports the end-to-end
metrics of BENCHMARK.json (set-up time sampled in fresh interpreters, the
median wall time of the workload's CLI calls, peak resident memory); with
``--trace 1`` it reports the per-layer metrics from a separate traced run.
Every CLI output is checked against its exact oracle; a failed check, a
non-zero exit or an output that changes between runs at the same seed is a
failed call.  The last stdout line is the JSON result; the line before it
records the seed, the environment and the source version, and is also
appended to ``.perfbench_out/results.jsonl`` for ``compare.py``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6          # fresh set-up interpreters, plus the run's own
DEADLINE_S = 170.0        # the whole run ends well inside 180 s


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_version():
    """Commit when the checkout is a git work tree, and a digest of the
    library sources either way."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ccemfg").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": h.hexdigest()}


def run_child(argv, env, deadline):
    """Run a workload.py process in its own session; kill the whole
    session (pool workers included) if it outlives ``deadline``.  Returns
    the JSON object on its last stdout line."""
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py")] + argv,
                            stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"workload.py {' '.join(argv)} ran past the deadline")
    if proc.returncode != 0:
        fail(f"workload.py {' '.join(argv)} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"workload.py {' '.join(argv)} printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smallest inputs, for selftest.py only")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "ccemfg" / "cli.py").is_file():
        fail(f"no ccemfg sources under {ROOT / 'src'}; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    out_dir = ROOT / ".perfbench_out"
    tmp = out_dir / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]

    def probe():
        return run_child(common + ["--setup-only"], env, deadline)["setup_s"]

    # set-up samples are taken before and after the measured run, so that
    # they span the same stretch of machine load as the run itself
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setup = [probe() for _ in range(probes // 2)]
        res = run_child(common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(tmp), "--spans",
            str(out_dir / f"spans-{args.workload}-seed{args.seed}.json")],
            env, deadline)
        setup.append(res["setup_s"])
        setup += [probe() for _ in range(probes - probes // 2)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    values = dict(res["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setup)
    if set(values) != set(units):
        fail(f"emitted metrics {sorted(values)} differ from BENCHMARK.json "
             f"{sorted(units)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "size": args.size,
              "seconds": args.seconds, "setup_samples": setup,
              "rep_seconds": res["rep_seconds"],
              "env": dict(res["env"], **source_version()),
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    with open(out_dir / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
