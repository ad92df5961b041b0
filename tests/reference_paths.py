"""Whole Brownian paths collected from the streamed bridge walk, the
reference that the tests' path-storing copies of the estimators read."""

import numpy as np

from ccemfg._pathgen_py import brownian_rows


def brownian_paths(keys, steps: int, horizon: float) -> np.ndarray:
    """Brownian paths on the uniform grid, one per stream key.

    Returns an array of shape ``keys.shape + (steps + 1,)`` with
    W[..., 0] = 0, collected from ``brownian_rows`` into a time-major
    buffer, so the result is a view with time on the last axis that is
    not C-contiguous.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    w = np.empty((steps + 1,) + keys.shape)
    for i, row in enumerate(brownian_rows(keys, steps, horizon)):
        w[i] = row
    return np.moveaxis(w, 0, -1)
