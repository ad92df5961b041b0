"""Closed-form machinery for the bang-bang instance.

A four-outcome lottery with probabilities p_ij recommends the constant
control b (rows i=1) or a (rows i=2) together with one of two mixture
flows (columns j).  After imposing consistency of the flows, the no-gain
condition for unilateral deviations reduces to nonnegativity of an affine
function h*m + k over the action interval [a, b]; this module computes h,
k and that margin, the equilibrium-region sweep and the exact mean field
and finite-N gap oracles.

Zero-mass columns: every fraction with a vanishing denominator contributes
0, the continuity limit, which makes all formulas total on the closed
probability simplex.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import check_count
from .model import check_game, check_interval

PROB_TOL = 1e-12
MARGIN_TOL = 1e-12


def _check_probabilities(probs) -> None:
    """The rule of a lottery's probabilities, here and in
    :class:`ccemfg.correlation.CorrelationDevice`: ``ValueError`` unless
    each is finite and at least -PROB_TOL and they sum to 1 within
    PROB_TOL."""
    probs = np.asarray(probs, dtype=np.float64)
    if not np.all(np.isfinite(probs)):
        raise ValueError("probabilities must be finite")
    if np.any(probs < -PROB_TOL):
        raise ValueError("probabilities must be nonnegative")
    if abs(probs.sum() - 1.0) > PROB_TOL:
        raise ValueError("probabilities must sum to 1")


@dataclass(frozen=True)
class DeviceProbs:
    """Probabilities of the four (strategy, flow) outcomes."""

    p11: float
    p12: float
    p21: float
    p22: float

    def __post_init__(self):
        _check_probabilities(self.as_tuple())

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p11, self.p12, self.p21, self.p22)

    @property
    def column_masses(self) -> tuple[float, float]:
        return (self.p11 + self.p21, self.p12 + self.p22)

    @property
    def row_masses(self) -> tuple[float, float]:
        return (self.p11 + self.p12, self.p21 + self.p22)


def consistency_weights(p: DeviceProbs) -> tuple[Optional[float], Optional[float]]:
    """Mixture weights (a1, a2) making the two flows consistent.

    a_j = p_1j / (p_1j + p_2j); a zero-mass column yields None (that flow
    never occurs).
    """
    c1, c2 = p.column_masses
    a1 = p.p11 / c1 if c1 > 0.0 else None
    a2 = p.p12 / c2 if c2 > 0.0 else None
    return a1, a2


def _ratio(num, den):
    den = np.asarray(den, dtype=np.float64)
    num = np.asarray(num, dtype=np.float64)
    out = np.zeros(np.broadcast(num, den).shape)
    np.divide(num, den, out=out, where=den > 0.0)
    return out


def _hk_arrays(p11, p12, p21, p22, a: float, b: float):
    """Raw slope/intercept formulas, vectorized; zero-mass columns -> 0."""
    c1 = p11 + p21
    c2 = p12 + p22
    h = (-b * (_ratio(p11 * p11 + p21 * p11, c1)
               + _ratio(p12 * p12 + p12 * p22, c2))
         - a * (_ratio(p21 * p21 + p21 * p11, c1)
                + _ratio(p22 * p22 + p12 * p22, c2)))
    k = (b * b * (_ratio(p11 * p11, c1) + _ratio(p12 * p12, c2))
         + a * a * (_ratio(p21 * p21, c1) + _ratio(p22 * p22, c2))
         + 2.0 * a * b * (_ratio(p11 * p21, c1) + _ratio(p12 * p22, c2)))
    return h, k


def _margin(h, k, a: float, b: float):
    """min over [a, b] of h*m + k, at an endpoint since it is affine in m:
    the device is an equilibrium iff it is >= 0."""
    return np.minimum(h * a + k, h * b + k)


def cce_margin(p: DeviceProbs, a: float, b: float) -> float:
    """min over [a, b] of h*m + k; the device is an equilibrium iff >= 0."""
    check_interval(a, b)
    return float(_margin(*_hk_arrays(p.p11, p.p12, p.p21, p.p22, a, b), a, b))


DEFAULT_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


_CSV_BLOCK = 2048                # rows per write in write_csv
_SHORT_COLUMN = 24               # columns shorter than this skip np.unique
_SHADES = np.array(["0", "255", "128"], dtype=object)   # not, cce, infeasible


def _format_column(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strings for the values of an array and the index of each value's
    string among them: ``.17g`` for float64, else ``str``.  A column of at
    least ``_SHORT_COLUMN`` values formats each distinct value once, told
    apart by bit pattern, not by ``==`` (-0.0 and 0.0 compare equal but
    print as "-0" and "0"); a shorter one formats value by value, where
    ``np.unique`` would cost more than it saves."""
    floats = values.dtype == np.float64
    if values.size < _SHORT_COLUMN:
        keys, inverse = values, np.arange(values.size)
    else:
        keys, inverse = np.unique(values.view(np.int64) if floats else values,
                                  return_inverse=True)
        keys = keys.view(np.float64) if floats else keys
    strings = (map(float.__format__, keys.tolist(), itertools.repeat(".17g"))
               if floats else map(str, keys.tolist()))
    return np.array(list(strings), dtype=object), inverse.astype(np.int32)


def _header_line(header: Optional[dict]) -> str:
    """The ``# {json}`` line of every output file, read by ``--config``."""
    return "" if header is None else (
        "# " + json.dumps(header, sort_keys=True) + "\n")


@contextlib.contextmanager
def _rewrite(path):
    """Open ``path`` for writing text as ``open(path, "w")`` does, but cut
    the file at the final position on exit, also when the body raises,
    instead of truncating it to zero at the open.

    The file keeps its inode, mode and links, and a symlink is followed.
    On ext4 (``auto_da_alloc``) a truncate to zero makes the close flush
    the file's data, and the next truncate of the file waits for that
    write: a rerun into the same ``--out`` can stall for tens of ms per
    file.  A file cut at a nonzero size is not flushed, and neither a
    temporary file renamed over the output (flushed too) nor an unlink
    (which would replace a symlink) is used.  A process killed before the
    cut leaves the new bytes followed by the old file's tail.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        try:
            yield fh
        finally:
            fh.truncate()


def write_csv(path, header: Optional[dict], names, columns) -> None:
    """The header line (unless ``header`` is None), the column ``names``,
    then a row per entry of the ``columns``, ``_CSV_BLOCK`` rows a write.
    :func:`_format_column` prints a value ``f"{v:.17g}" if isinstance(v,
    float) else str(v)``, so a float reads back exactly.  The columns are
    formatted before ``path`` is opened, so one that fails to format leaves
    the file as it was."""
    cols = [_format_column(np.asarray(c)) for c in columns]
    n = cols[0][1].size if cols else 0
    width = 2 * len(cols)                   # cells and separators per row
    with _rewrite(path) as fh:
        fh.write(_header_line(header) + ",".join(names) + "\n")
        for s in range(0, n, _CSV_BLOCK):
            rows = min(_CSV_BLOCK, n - s)
            cells = [","] * (width * rows)
            cells[width - 1::width] = ["\n"] * rows
            for c, (table, index) in enumerate(cols):
                cells[2 * c::width] = table[index[s:s + rows]].tolist()
            fh.write("".join(cells))


@dataclass(frozen=True)
class RegionGrid:
    """Equilibrium-region sweep over (p11, p22) at a fixed mixing alpha.

    Cells with p11 + p22 > 1 fall outside the simplex and are marked
    infeasible (gray in the raster) rather than classified.
    """

    resolution: int
    alpha: float
    a: float
    b: float
    p11: np.ndarray
    p22: np.ndarray
    p12: np.ndarray
    p21: np.ndarray
    h: np.ndarray
    k: np.ndarray
    margin: np.ndarray
    feasible: np.ndarray

    @property
    def is_cce(self) -> np.ndarray:
        return self.feasible & (self.margin >= -MARGIN_TOL)

    def to_csv(self, path, header: Optional[dict] = None) -> None:
        """One row per feasible cell, in i-major (p11-major) order."""
        f = self.feasible
        write_csv(path, header, ["p11", "p22", "p12", "p21", "alpha", "h",
                                 "k", "margin", "is_cce"],
                  [self.p11[f], self.p22[f], self.p12[f], self.p21[f],
                   np.full(f.sum(), self.alpha), self.h[f], self.k[f],
                   self.margin[f], self.is_cce[f].view(np.uint8)])

    def to_pgm(self, path, header: Optional[dict] = None) -> None:
        """ASCII (P2) raster: white=equilibrium, black=not, gray=infeasible.

        Shades are 255, 0 and 128, space-separated, one image row per
        line.  Rows run from p22 = 1 at the top down to p22 = 0 and columns
        from p11 = 0 to 1, so the image is oriented like a standard plot of
        the (p11, p22) square.
        """
        n = self.resolution
        shade = np.where(self.feasible, self.is_cce.view(np.uint8), 2)
        with _rewrite(path) as fh:
            fh.write(f"P2\n{_header_line(header)}{n} {n}\n255\n")
            fh.writelines(" ".join(row) + "\n"
                          for row in _SHADES[shade.T[::-1]].tolist())


def region_sweep(resolution: int, alpha: float, a: float, b: float) -> RegionGrid:
    """Sweep the (p11, p22) square at mixing parameter alpha.

    The leftover mass r = 1 - p11 - p22 is split between the off-diagonal
    outcomes: p12 = alpha*r above the p11 = p22 diagonal and the symmetric
    swap below it, so the sweep is transpose-symmetric for b = -a.
    """
    check_interval(a, b)
    resolution = check_count("resolution", resolution, 2)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    n = resolution - 1
    i, j = np.meshgrid(np.arange(resolution), np.arange(resolution),
                       indexing="ij")
    p11 = i / n
    p22 = j / n
    r = (n - i - j) / n                       # exact 0 on the anti-diagonal
    feasible = n - i - j >= 0
    r = np.where(feasible, r, 0.0)
    above = j >= i                            # p22 >= p11
    p12 = np.where(above, alpha * r, (1.0 - alpha) * r)
    p21 = np.where(above, (1.0 - alpha) * r, alpha * r)
    h, k = _hk_arrays(p11, p12, p21, p22, a, b)
    return RegionGrid(resolution=resolution, alpha=float(alpha),
                      a=float(a), b=float(b), p11=p11, p22=p22,
                      p12=p12, p21=p21, h=h, k=k, margin=_margin(h, k, a, b),
                      feasible=feasible)


def _flow_means(p: DeviceProbs, a: float, b: float) -> tuple[float, float]:
    """Per-unit-time means of the two consistent flows; 0 for dead columns."""
    a1, a2 = consistency_weights(p)
    m1 = a1 * b + (1.0 - a1) * a if a1 is not None else 0.0
    m2 = a2 * b + (1.0 - a2) * a if a2 is not None else 0.0
    return m1, m2


def mean_field_gap_oracle(p: DeviceProbs, a: float, b: float, c: float,
                          T: float) -> float:
    """Exact mean field deviation gap over constant controls: the better
    endpoint deviation's gain, c*T^2 * max(0, -cce_margin(p, a, b))."""
    check_game(a, b, c, T)
    return c * T * T * max(0.0, -cce_margin(p, a, b))


def finite_n_gap_oracle(p: DeviceProbs, a: float, b: float, c: float, T: float,
                        N: int) -> float:
    """Exact N-player deviation gap over constant controls.

    Closed-form Gaussian integration of the terminal payoff under the
    recommendation (players conditionally i.i.d. given the flow) and under
    a constant deviation m of player 1.  The deviation's payoff is a
    quadratic in m with leading coefficient c T**2 / N > 0, so its vertex
    is the minimum and the supremum over [a, b] is attained at a or b.
    """
    check_game(a, b, c, T)
    N = check_count("N", N, 2)
    q_plus, q_minus = p.row_masses
    u_bar = q_plus * b + q_minus * a
    e_u2 = q_plus * b * b + q_minus * a * a
    m1, m2 = _flow_means(p, a, b)
    c1, c2 = p.column_masses
    e_cond2 = c1 * m1 * m1 + c2 * m2 * m2

    frac = (N - 1) / N
    j_rec = c * ((T * T * e_u2 + T) / N + frac * T * T * e_cond2)

    def j_dev(m):
        return c * ((T * T * m * m + T) / N + frac * T * T * m * u_bar)

    return max(0.0, max(j_dev(a), j_dev(b)) - j_rec)
