"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the smallest inputs, untraced and
traced, and checks that each run exits 0, passes its oracle checks and
prints exactly the metrics BENCHMARK.json declares for that mode, each with
its declared unit.  Takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                 "--seed", "1", "--seconds", "0", "--trace", str(trace),
                 "--size", "tiny"],
                capture_output=True, text=True, timeout=180)
            where = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(res)}")
            if not (res["correct"] and res["failed"] == 0
                    and res["attempted"] >= 1):
                problems.append(f"{where}: checks failed: {proc.stderr}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} != declared {want}")
            print(f"{where}: {len(got)} metrics, {res['attempted']} calls")
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
