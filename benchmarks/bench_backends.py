"""Throughput of the numpy path-generation kernels.

Run as ``PYTHONPATH=src python3 benchmarks/bench_backends.py``.  Prints the
rate of the inverse normal CDF on a large batch and of Brownian path
generation on a block of streams, best of five runs each.
"""

import time

import numpy as np

from ccemfg import _pathgen_py
from ccemfg.engine import noise_keys


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    p = (np.arange(2_000_000) + 0.5) / 2_000_000
    keys = noise_keys(0, np.arange(2000), np.arange(8))
    steps, horizon = 200, 2.0

    tq = _best_of(lambda: _pathgen_py.norm_quantile(p))
    tp = _best_of(lambda: _pathgen_py.brownian_paths(keys, steps, horizon))
    n_state = keys.size * (steps + 1)
    print(f"norm_quantile {p.size / tq / 1e6:7.1f} M/s ({tq * 1e3:6.1f} ms)   "
          f"brownian_paths {n_state / tp / 1e6:7.1f} M states/s "
          f"({tp * 1e3:6.1f} ms)")


if __name__ == "__main__":
    main()
