"""Compare benchmark results of two versions of the code.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds the records run.py appends to ``.perfbench_out/results.jsonl``
(move it aside after measuring one version).  For every workload and metric
the script prints both medians, the quartile spread of each side as a share
of its median, and the change.  An end-to-end metric whose median got worse
by more than its bound in BENCHMARK.json is marked WORSE and makes the exit
code 1.  Results taken on different backends, sizes or run lengths are not
compared: the script exits 2.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    setups = {(r["env"]["backend"], r["size"], r["seconds"])
              for r in before + after}
    if len(setups) != 1:
        print(f"refusing to compare results taken under different "
              f"(backend, size, seconds): {sorted(setups)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]
              + spec["per_layer"]}

    def series(records):
        out = {}
        for r in records:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], name), []).append(m["value"])
        return out

    b, a = series(before), series(after)
    worse = False
    for key in sorted(b.keys() & a.keys()):
        workload, name = key
        mb, ma = statistics.median(b[key]), statistics.median(a[key])
        change = (ma - mb) / mb if mb else float("nan")
        verdict = ""
        if name in e2e:
            loss = change if better[name] == "lower" else -change
            if loss > e2e[name]["bound"]:
                verdict, worse = "WORSE", True
        print(f"{workload:16s} {name:34s} {mb:12.6g} (n={len(b[key])}, "
              f"iqr {spread(b[key]):.3f}) -> {ma:12.6g} (n={len(a[key])}, "
              f"iqr {spread(a[key]):.3f})  {change:+.3f} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
