"""Closed-form example machinery, cross-checked against an independent
rational-arithmetic evaluation of the raw slope/intercept formulas and
against reference copies of the payoffs and the diagonal forms."""

import json
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccemfg import analytic
from ccemfg.analytic import (DeviceProbs, cce_margin, consistency_weights,
                             finite_n_gap_oracle, mean_field_gap_oracle,
                             region_sweep, write_csv, RegionGrid, _CSV_BLOCK,
                             _SHORT_COLUMN, _hk_arrays)


def hk(p, a, b):
    """(h, k) of a device from the raw formulas the margin is built on."""
    return tuple(float(v) for v in _hk_arrays(*p.as_tuple(), a, b))


def diagonal_hk(p11, a, b):
    """(h, k) of a diagonal device (p12 = p21 = 0), simplified by hand
    (reference)."""
    return -b * p11 - a * (1.0 - p11), b * b * p11 + a * a * (1.0 - p11)


def mean_field_payoffs(p, a, b, c, T, m_beta):
    """Mean field payoffs of the recommendation and of a deviation with mean
    action m_beta, from the consistent flows' means (reference).  They
    satisfy J_rec - J_dev = c*T^2*(h*m_beta + k) up to roundoff."""
    means = [w * b + (1.0 - w) * a if w is not None else 0.0
             for w in consistency_weights(p)]
    c1, c2 = p.column_masses
    scale = c * T * T
    j_rec = scale * (p.p11 * b * means[0] + p.p12 * b * means[1]
                     + p.p21 * a * means[0] + p.p22 * a * means[1])
    j_dev = scale * m_beta * (c1 * means[0] + c2 * means[1])
    return j_rec, j_dev


def hk_rational(p11, p12, p21, p22, a, b):
    """Term-by-term rational evaluation of the raw formulas (oracle)."""
    p11, p12, p21, p22 = (Fraction(v) for v in (p11, p12, p21, p22))
    a, b = Fraction(a), Fraction(b)
    c1, c2 = p11 + p21, p12 + p22

    def r(num, den):
        return num / den if den > 0 else Fraction(0)

    h = (-b * (r(p11 * p11 + p21 * p11, c1) + r(p12 * p12 + p12 * p22, c2))
         - a * (r(p21 * p21 + p21 * p11, c1) + r(p22 * p22 + p12 * p22, c2)))
    k = (b * b * (r(p11 * p11, c1) + r(p12 * p12, c2))
         + a * a * (r(p21 * p21, c1) + r(p22 * p22, c2))
         + 2 * a * b * (r(p11 * p21, c1) + r(p12 * p22, c2)))
    return h, k


def random_device(rng):
    w = rng.random(4)
    w /= w.sum()
    return DeviceProbs(*w)


def random_rational_device(rng, denom=64):
    counts = rng.multinomial(denom, [0.25] * 4)
    return tuple(Fraction(int(c), denom) for c in counts)


def test_device_probs_validation():
    DeviceProbs(0.5, 0.3, 0.2, 0.0)
    with pytest.raises(ValueError):
        DeviceProbs(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        DeviceProbs(0.5, 0.3, 0.2, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_device_probs_refuse_non_finite_values(bad):
    # DeviceProbs(nan, 0, 0, 1) was accepted, and its margin read 0.0, an
    # equilibrium
    for pos in range(4):
        vals = [0.0, 0.0, 0.0, 1.0]
        vals[pos] = bad
        with pytest.raises(ValueError, match="probabilities must be finite"):
            DeviceProbs(*vals)


def test_consistency_weights_examples():
    assert consistency_weights(DeviceProbs(0.25, 0.25, 0.25, 0.25)) == (0.5, 0.5)
    assert consistency_weights(DeviceProbs(1, 0, 0, 0)) == (1.0, None)
    a1, a2 = consistency_weights(DeviceProbs(0.5, 0.3, 0.2, 0.0))
    assert abs(a1 - 5 / 7) < 1e-15 and a2 == 1.0


def test_hk_against_rational_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        frac = random_rational_device(rng)
        p = DeviceProbs(*(float(v) for v in frac))
        h, k = hk(p, -1.0, 1.0)
        h_ref, k_ref = hk_rational(*frac, Fraction(-1), Fraction(1))
        assert abs(h - float(h_ref)) < 1e-13
        assert abs(k - float(k_ref)) < 1e-13


def test_hk_corner_values():
    assert hk(DeviceProbs(1, 0, 0, 0), -1.5, 2.5) == (-2.5, 2.5**2)
    assert hk(DeviceProbs(0, 0, 0, 1), -1.5, 2.5) == (1.5, 1.5**2)


def test_hk_black_witness_value():
    h, k = hk(DeviceProbs(0.5, 0.3, 0.2, 0.0), -1.0, 1.0)
    h_ref, k_ref = hk_rational(Fraction(1, 2), Fraction(3, 10),
                               Fraction(1, 5), Fraction(0), -1, 1)
    assert (h_ref, k_ref) == (Fraction(-3, 5), Fraction(3, 7))
    assert abs(h + 3 / 5) < 1e-15 and abs(k - 3 / 7) < 1e-15


def test_hk_simplified_forms_agree():
    # h = -b*q_plus - a*q_minus and k = sum_j c_j * mbar_j^2
    rng = np.random.default_rng(1)
    for _ in range(10000):
        p = random_device(rng)
        a, b = -1.3, 0.7
        h, k = hk(p, a, b)
        qp, qm = p.row_masses
        h_simpl = -b * qp - a * qm
        a1, a2 = consistency_weights(p)
        c1, c2 = p.column_masses
        k_simpl = 0.0
        for cj, aj in ((c1, a1), (c2, a2)):
            if aj is not None:
                k_simpl += cj * (aj * b + (1 - aj) * a) ** 2
        assert abs(h - h_simpl) < 1e-12
        assert abs(k - k_simpl) < 1e-12


def test_diagonal_hk_matches_full_formula_exactly():
    # the raw formulas divide p11^2 by p11, which costs one rounding; the
    # two forms agree to a couple of ulps, not bitwise
    for p11 in np.linspace(0, 1, 101):
        full = hk(DeviceProbs(p11, 0.0, 0.0, 1.0 - p11), -2.0, 3.0)
        diag = diagonal_hk(p11, -2.0, 3.0)
        assert abs(full[0] - diag[0]) < 1e-14
        assert abs(full[1] - diag[1]) < 1e-13
    assert diagonal_hk(1.0, -2.0, 3.0) == (-3.0, 9.0)
    assert diagonal_hk(0.0, -2.0, 3.0) == (2.0, 4.0)
    assert diagonal_hk(0.5, -1.0, 1.0) == (0.0, 1.0)


def test_margin_corner_devices_zero():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = -rng.uniform(0.1, 5.0)
        b = rng.uniform(0.1, 5.0)
        assert abs(cce_margin(DeviceProbs(1, 0, 0, 0), a, b)) < 1e-12
        assert abs(cce_margin(DeviceProbs(0, 0, 0, 1), a, b)) < 1e-12


def test_margin_black_witness():
    m = cce_margin(DeviceProbs(0.5, 0.3, 0.2, 0.0), -1.0, 1.0)
    assert abs(m + 6 / 35) < 1e-15


def test_margin_interval_validation():
    with pytest.raises(ValueError):
        cce_margin(DeviceProbs(1, 0, 0, 0), 0.5, 1.0)


@pytest.mark.parametrize("a, b", [(-np.inf, 1.0), (-1.0, np.inf),
                                  (np.nan, 1.0), (-1.0, np.nan)])
def test_non_finite_interval_rejected(a, b):
    # region_sweep at b = inf wrote NaN rasters
    p = DeviceProbs(0.5, 0.3, 0.2, 0.0)
    for call in (lambda: cce_margin(p, a, b),
                 lambda: region_sweep(5, 0.5, a, b),
                 lambda: finite_n_gap_oracle(p, a, b, 1.0, 2.0, 10)):
        with pytest.raises(ValueError, match="< inf"):
            call()


@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
@pytest.mark.parametrize("arg", ["c", "T"])
def test_oracles_reject_bad_scale_and_horizon(arg, value):
    # finite_n_gap_oracle at c = -1, T = inf read 0.0, an equilibrium
    p = DeviceProbs(0.5, 0.3, 0.2, 0.0)
    game = {"c": 1.0, "T": 2.0, arg: value}
    for call in (lambda: mean_field_gap_oracle(p, -1, 1, **game),
                 lambda: finite_n_gap_oracle(p, -1, 1, N=10, **game)):
        with pytest.raises(ValueError, match="0 < c < inf and 0 < T < inf"):
            call()


def test_margin_swap_invariance_for_symmetric_interval():
    # the swap (p11, p12, p21, p22) -> (p22, p21, p12, p11) trades the roles
    # of b and a = -b
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = random_device(rng)
        m1 = cce_margin(p, -1.0, 1.0)
        m2 = cce_margin(DeviceProbs(*p.as_tuple()[::-1]), -1.0, 1.0)
        assert abs(m1 - m2) < 1e-12


def test_margin_continuity_in_p():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = random_device(rng)
        base = cce_margin(p, -1.0, 1.0)
        delta = 1e-6
        shift = np.array([delta, -delta, 0.0, 0.0])
        vals = np.array(p.as_tuple()) + shift
        if np.any(vals < 0):
            continue
        moved = cce_margin(DeviceProbs(*vals), -1.0, 1.0)
        # continuity away from zero-mass columns; C covers the 1/c_j terms
        c1, c2 = p.column_masses
        if min(c1, c2) > 0.05:
            assert abs(moved - base) < 1e3 * 2 * delta


def test_region_sweep_diagonal_identity():
    # cells with p11 + p22 = 1 carry p12 = p21 = 0 (the figure's dashed
    # diagonal); they sit on the anti-diagonal of the index grid
    grid = region_sweep(1001, 0.5, -1.0, 1.0)
    diag = np.arange(1001)
    anti = 1000 - diag
    margins = grid.margin[diag, anti]
    p11 = grid.p11[diag, anti]
    assert np.all(grid.p12[diag, anti] == 0.0)
    assert np.all(grid.p21[diag, anti] == 0.0)
    assert np.max(np.abs(margins - (1.0 - np.abs(1.0 - 2.0 * p11)))) < 1e-12
    assert np.all(margins >= -1e-12)


def test_region_sweep_has_both_colors():
    for alpha in (0.0, 0.5, 1.0):
        grid = region_sweep(101, alpha, -1.0, 1.0)
        cce = grid.is_cce[grid.feasible]
        margins = grid.margin[grid.feasible]
        assert np.any(cce) and np.any(~cce)
        assert np.any(margins > 1e-6) and np.any(margins < -1e-6)


def test_region_sweep_transpose_symmetry_exact():
    for alpha in (0.0, 0.3, 0.5, 1.0):
        grid = region_sweep(101, alpha, -1.0, 1.0)
        assert np.array_equal(grid.margin, grid.margin.T)
        assert np.array_equal(grid.feasible, grid.feasible.T)


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-1.0, 2.0)])
def test_region_sweep_margin_is_cce_margin_bitwise(a, b):
    # both take the one margin rule on the same h and k
    grid = region_sweep(51, 0.3, a, b)
    f = grid.feasible
    want = np.array([cce_margin(DeviceProbs(*cell), a, b) for cell in
                     zip(grid.p11[f], grid.p12[f], grid.p21[f], grid.p22[f])])
    assert np.array_equal(grid.margin[f].view(np.int64), want.view(np.int64))


def test_region_sweep_infeasible_cells():
    grid = region_sweep(11, 0.5, -1.0, 1.0)
    i, j = np.meshgrid(np.arange(11), np.arange(11), indexing="ij")
    assert np.array_equal(grid.feasible, i + j <= 10)


def test_mean_field_payoffs_corner():
    j_rec, j_dev = mean_field_payoffs(DeviceProbs(1, 0, 0, 0), -1, 1, 1, 2, 1.0)
    assert j_rec == 4.0 and j_dev == 4.0


def test_mean_field_payoffs_black_device():
    j_rec, j_dev = mean_field_payoffs(DeviceProbs(0.5, 0.3, 0.2, 0.0),
                                      -1, 1, 1, 2, 1.0)
    assert abs((j_dev - j_rec) - 24 / 35) < 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_mean_field_payoff_identity(seed):
    rng = np.random.default_rng(seed)
    p = random_device(rng)
    a, b = -rng.uniform(0.2, 3), rng.uniform(0.2, 3)
    c, T = rng.uniform(0.1, 4), rng.uniform(0.1, 4)
    m_beta = rng.uniform(a, b)
    j_rec, j_dev = mean_field_payoffs(p, a, b, c, T, m_beta)
    h, k = hk(p, a, b)
    assert abs((j_rec - j_dev) - c * T * T * (h * m_beta + k)) < 1e-10


@pytest.mark.parametrize("a, b, c, T", [(-1.0, 1.0, 1.0, 2.0),
                                        (-0.5, 2.0, 1.5, 1.0)])
def test_mean_field_gap_oracle_is_the_best_endpoint_deviation(a, b, c, T):
    """Over the devices of region grids: the payoff of the better endpoint
    deviation minus the recommendation's, clipped at 0."""
    gaps = []
    for alpha in (0.0, 0.5, 1.0):
        grid = region_sweep(21, alpha, a, b)
        f = grid.feasible
        for cell in zip(grid.p11[f], grid.p12[f], grid.p21[f], grid.p22[f]):
            p = DeviceProbs(*cell)
            j_rec, j_a = mean_field_payoffs(p, a, b, c, T, a)
            j_b = mean_field_payoffs(p, a, b, c, T, b)[1]
            want = max(0.0, max(j_a, j_b) - j_rec)
            gaps.append(mean_field_gap_oracle(p, a, b, c, T))
            assert abs(gaps[-1] - want) <= 1e-12, (cell, gaps[-1], want)
    assert min(gaps) == 0.0 and max(gaps) > 0.1


def test_finite_n_oracle_corner_is_exactly_zero():
    # corner devices recommend the optimizer itself, so the gap vanishes at
    # every N (which also makes the decrease-with-N check degenerate there)
    p = DeviceProbs(1, 0, 0, 0)
    e10 = finite_n_gap_oracle(p, -1, 1, 1, 2, 10)
    e1000 = finite_n_gap_oracle(p, -1, 1, 1, 2, 1000)
    assert e10 == 0.0 and e1000 == 0.0 and e1000 <= e10


def test_finite_n_oracle_approaches_limit_monotonically():
    # in this example the finite-N gap never decreases toward the limit:
    # white devices sit at 0 for every N (the 1/N self-term m^2 - E[u^2] is
    # never positive on [a, b]) and black devices increase to the limit;
    # what shrinks with N is the distance to the limit
    p = DeviceProbs(0.5, 0.3, 0.2, 0.0)
    e_inf = 4 * max(0.0, -cce_margin(p, -1, 1))
    gaps = [abs(finite_n_gap_oracle(p, -1, 1, 1, 2, N) - e_inf)
            for N in (10, 100, 1000, 10000)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    for N in (10, 100, 1000):
        assert finite_n_gap_oracle(DeviceProbs(0.5, 0, 0, 0.5),
                                   -1, 1, 1, 2, N) == 0.0


def test_finite_n_oracle_is_the_better_endpoint_gain():
    """A deviation beta gains c T^2 [(beta^2 - E[u^2]) / N + (N - 1) / N
    (beta u_bar - E[m^2])], a quadratic in beta with leading coefficient
    c T^2 / N > 0: on random devices, asymmetric boxes and N from 2 to
    1000, no beta inside [a, b], its vertex included, beats both
    endpoints, and the oracle is the larger endpoint gain, clipped at 0."""
    rng = np.random.default_rng(11)
    c, T = 1.5, 2.0
    for _ in range(30):
        p = random_device(rng)
        for a, b in ((-1.0, 1.0), (-1.0, 2.0), (-3.0, 0.5)):
            u_bar = (p.p11 + p.p12) * b + (p.p21 + p.p22) * a
            e_u2 = (p.p11 + p.p12) * b * b + (p.p21 + p.p22) * a * a
            # each column's flow moves at its conditional mean action
            e_m2 = sum((hi * b + lo * a) ** 2 / (hi + lo)
                       for hi, lo in ((p.p11, p.p21), (p.p12, p.p22))
                       if hi + lo > 0)
            for N in (2, 3, 5, 50, 1000):
                def gain(beta):
                    return c * T * T * ((beta * beta - e_u2) / N + (N - 1)
                                        / N * (beta * u_bar - e_m2))

                vertex = -(N - 1) * u_bar / 2
                betas = np.append(np.linspace(a, b, 201),
                                  min(max(vertex, a), b))
                ends = max(gain(a), gain(b))
                assert gain(betas).max() <= ends + 1e-12, (p, a, b, N)
                got = finite_n_gap_oracle(p, a, b, c, T, N)
                assert abs(got - max(0.0, ends)) <= 1e-12, (p, a, b, N)


def test_finite_n_oracle_is_exact_and_not_monotone_on_an_asymmetric_game():
    """At a = -1, b = 2 the 1/N term (beta^2 - E[u^2]) / N does not vanish
    at the endpoints, as it does at a = -b: on the cell (0.15, 0, 0.7, 0.15)
    the best endpoint switches from b to a and eps_N is not monotone in N.
    The reference is exact, in rationals, from the device's moments."""
    p11, p12, p21, p22 = (Fraction(v, 100) for v in (15, 0, 70, 15))
    a, b, c, T = Fraction(-1), Fraction(2), 1, 2
    u_bar = (p11 + p12) * b + (p21 + p22) * a
    e_u2 = (p11 + p12) * b * b + (p21 + p22) * a * a
    e_m2 = sum((hi * b + lo * a) ** 2 / (hi + lo)
               for hi, lo in ((p11, p21), (p12, p22)) if hi + lo > 0)

    def eps(N):
        return max(0, *(c * T * T * ((beta * beta - e_u2) / N + Fraction(
            N - 1, N) * (beta * u_bar - e_m2)) for beta in (a, b)))

    want = {2: Fraction(189, 85), 3: 0, 5: Fraction(27, 85),
            50: Fraction(27, 34)}
    p = DeviceProbs(0.15, 0.0, 0.7, 0.15)
    for N, e in want.items():
        assert eps(N) == e
        got = finite_n_gap_oracle(p, -1.0, 2.0, 1.0, 2.0, N)
        assert abs(got - float(e)) <= 1e-12, (N, got, e)
    e_inf = max(0, *(c * T * T * (beta * u_bar - e_m2) for beta in (a, b)))
    assert e_inf == Fraction(72, 85)
    assert abs(mean_field_gap_oracle(p, -1.0, 2.0, 1.0, 2.0)
               - float(e_inf)) <= 1e-12


@pytest.mark.parametrize("count", [2.5, 10.0, True, np.float64(10.0)])
def test_region_and_finite_n_oracle_refuse_non_integer_counts(count):
    # region_sweep(2.5, ...) swept cells outside the simplex, and
    # finite_n_gap_oracle(..., N=10.5) returned a gap
    p = DeviceProbs(0.5, 0.3, 0.2, 0.0)
    with pytest.raises(ValueError, match="resolution must be an integer"):
        region_sweep(count, 0.5, -1.0, 1.0)
    with pytest.raises(ValueError, match="N must be an integer"):
        finite_n_gap_oracle(p, -1.0, 1.0, 1.0, 2.0, count)
    with pytest.raises(ValueError, match="at least 2"):
        region_sweep(1, 0.5, -1.0, 1.0)
    with pytest.raises(ValueError, match="at least 2"):
        finite_n_gap_oracle(p, -1.0, 1.0, 1.0, 2.0, 1)


def test_region_and_finite_n_oracle_take_numpy_integers():
    p = DeviceProbs(0.5, 0.3, 0.2, 0.0)
    got = region_sweep(np.int64(11), 0.5, -1.0, 1.0)
    assert got.resolution == 11
    assert np.array_equal(got.margin, region_sweep(11, 0.5, -1.0, 1.0).margin)
    assert (finite_n_gap_oracle(p, -1.0, 1.0, 1.0, 2.0, np.int32(10))
            == finite_n_gap_oracle(p, -1.0, 1.0, 1.0, 2.0, 10))


def test_finite_n_oracle_black_limit():
    p = DeviceProbs(0.5, 0.3, 0.2, 0.0)
    e = finite_n_gap_oracle(p, -1, 1, 1, 2, 10**7)
    assert abs(e - 24 / 35) < 1e-5


def test_finite_n_oracle_limit_matches_margin_formula():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = random_device(rng)
        a, b = -rng.uniform(0.2, 2), rng.uniform(0.2, 2)
        c, T = rng.uniform(0.5, 2), rng.uniform(0.5, 3)
        e_inf = c * T * T * max(0.0, -cce_margin(p, a, b))
        e_n = finite_n_gap_oracle(p, a, b, c, T, 10**7)
        assert abs(e_n - e_inf) < 1e-6 * max(1.0, e_inf)


def test_finite_n_oracle_rate():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = random_device(rng)
        e_inf = 2 * 4 * max(0.0, -cce_margin(p, -1, 1))
        for N in (10, 100, 1000):
            e_n = finite_n_gap_oracle(p, -1, 1, 2, 2, N)
            assert abs(e_n - e_inf) < 100.0 / N


def test_region_csv_and_pgm_serialization(tmp_path):
    grid = region_sweep(11, 0.5, -1.0, 1.0)
    csv = tmp_path / "r.csv"
    pgm = tmp_path / "r.pgm"
    grid.to_csv(csv, header={"seed": 0})
    grid.to_pgm(pgm, header={"seed": 0})
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "p11,p22,p12,p21,alpha,h,k,margin,is_cce"
    assert len(lines) == 2 + int(grid.feasible.sum())
    body = pgm.read_text().splitlines()
    assert body[0] == "P2" and body[1].startswith("# ")
    assert body[2] == "11 11" and body[3] == "255"
    vals = np.array(" ".join(body[4:]).split(), dtype=int)
    assert set(np.unique(vals)) <= {0, 128, 255}
    assert (vals == 128).sum() == 121 - int(grid.feasible.sum())


def _ref_to_csv(grid, path, header):
    """The cell-by-cell CSV writer the block writer replaced (reference)."""
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        fh.write("p11,p22,p12,p21,alpha,h,k,margin,is_cce\n")
        cce = grid.is_cce
        n = grid.resolution
        for i in range(n):
            for j in range(n):
                if not grid.feasible[i, j]:
                    continue
                fh.write(f"{grid.p11[i, j]:.17g},{grid.p22[i, j]:.17g},"
                         f"{grid.p12[i, j]:.17g},{grid.p21[i, j]:.17g},"
                         f"{grid.alpha:.17g},{grid.h[i, j]:.17g},"
                         f"{grid.k[i, j]:.17g},{grid.margin[i, j]:.17g},"
                         f"{int(cce[i, j])}\n")


def _ref_to_pgm(grid, path, header):
    """The cell-by-cell PGM writer the row writer replaced (reference)."""
    n = grid.resolution
    shade = np.where(grid.feasible, np.where(grid.is_cce, 255, 0), 128)
    with open(path, "w") as fh:
        fh.write("P2\n")
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        fh.write(f"{n} {n}\n255\n")
        for j in range(n - 1, -1, -1):
            fh.write(" ".join(str(int(shade[i, j])) for i in range(n)) + "\n")


def _assert_writers_match_reference(grid, tmp_path):
    header = {"alpha": [grid.alpha], "seed": 0}
    for ext, new, ref in (("csv", grid.to_csv, _ref_to_csv),
                          ("pgm", grid.to_pgm, _ref_to_pgm)):
        got, want = tmp_path / f"got.{ext}", tmp_path / f"want.{ext}"
        new(got, header=header)
        ref(grid, want, header)
        assert got.read_bytes() == want.read_bytes(), ext


@pytest.mark.parametrize("resolution", [2, 3, 11, 201])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_region_writers_match_cell_by_cell_reference(resolution, alpha,
                                                     tmp_path):
    grid = region_sweep(resolution, alpha, -1.0, 1.0)
    _assert_writers_match_reference(grid, tmp_path)


def test_region_writers_keep_signed_zero_and_adjacent_floats(tmp_path):
    """-0.0 and 0.0 compare equal but print as "-0" and "0"; the smallest
    subnormals and two floats one ulp apart must not collapse either."""
    vals = np.array([-0.0, 0.0, 5e-324, -5e-324, 0.1,
                     np.nextafter(0.1, 1.0), 1.0 / 3.0, -1.0 / 3.0, 1.0])
    rng = np.random.default_rng(3)
    cols = {name: rng.permutation(vals).reshape(3, 3)
            for name in ("p11", "p22", "p12", "p21", "h", "k", "margin")}
    feasible = np.array([[True, True, True], [True, False, True],
                         [True, True, False]])
    grid = RegionGrid(resolution=3, alpha=0.5, a=-1.0, b=1.0,
                      feasible=feasible, **cols)
    _assert_writers_match_reference(grid, tmp_path)
    body = (tmp_path / "got.csv").read_text().splitlines()[2:]
    fields = {v for line in body for v in line.split(",")}
    assert {"-0", "0", "0.10000000000000001",
            "0.10000000000000002"} <= fields


def test_region_writers_keep_signed_zero_and_adjacent_floats_across_blocks(
        tmp_path):
    """-0.0 and one-ulp-above-0.1 first occur in a later block of each
    column than 0.0 and 0.1 do; no block may take the other's string."""
    n = 64
    vals = np.array([0.0, 0.1, -0.0, np.nextafter(0.1, 1.0)])
    rng = np.random.default_rng(4)
    first = _CSV_BLOCK                     # cells before the second block
    cols = {}
    for name in ("p11", "p22", "p12", "p21", "h", "k", "margin"):
        col = np.concatenate([rng.choice(vals[:2], first),
                              rng.choice(vals, n * n - first)])
        cols[name] = col.reshape(n, n)
    feasible = np.ones((n, n), dtype=bool)
    feasible[-1, ::3] = False              # past the first block only
    grid = RegionGrid(resolution=n, alpha=0.5, a=-1.0, b=1.0,
                      feasible=feasible, **cols)
    assert feasible.sum() > _CSV_BLOCK
    _assert_writers_match_reference(grid, tmp_path)
    body = (tmp_path / "got.csv").read_text().splitlines()[2:]
    for col in (0, 1, 2, 3, 5, 6, 7):
        head = {line.split(",")[col] for line in body[:first]}
        tail = {line.split(",")[col] for line in body[first:]}
        assert head == {"0", "0.10000000000000001"}
        assert tail == {"-0", "0", "0.10000000000000001",
                        "0.10000000000000002"}


def _ref_write_csv(path, header, names, rows):
    """The per-value estimator-table writer that write_csv replaced
    (reference)."""
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


_AWKWARD_FLOATS = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                   -5e-324, 0.1, float(np.nextafter(0.1, 1.0)), 1.0 / 3.0]


@pytest.mark.parametrize("n", [0, 1, _SHORT_COLUMN - 1, _SHORT_COLUMN,
                               2 * _CSV_BLOCK + 5])
def test_write_csv_matches_the_per_value_rule(n, tmp_path):
    """Each column holds one kind of value: numpy floats, Python floats,
    Python ints, numpy ints, bools and labels, with -0.0 next to 0.0, both
    signs of nan and inf, the smallest subnormal and two floats one ulp
    apart.  Columns shorter than ``_SHORT_COLUMN`` are formatted value by
    value, longer ones by their distinct values."""
    rng = np.random.default_rng(5)
    floats = rng.choice(np.array(_AWKWARD_FLOATS), n)
    columns = [floats,
               [float(v) for v in rng.permutation(floats)],
               [int(v) for v in rng.integers(-2**62, 2**62, n)],
               rng.integers(-5, 5, n, dtype=np.int64),
               rng.integers(0, 2, n).astype(bool),
               [("all", "mu1", "(u+,mu2)")[i % 3] for i in range(n)]]
    names = ["x", "y", "i", "j", "flag", "class"]
    header = {"command": "gap", "p": [0.5, 0.3, 0.2, 0.0], "action": None}
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(got, header, names, columns)
    # the reference sees each column's own elements, numpy scalars included
    _ref_write_csv(want, header, names, zip(*(list(c) for c in columns)))
    assert got.read_bytes() == want.read_bytes()
    assert len(got.read_text().splitlines()) == 2 + n
    if n > _CSV_BLOCK:
        fields = {v for line in got.read_text().splitlines()[2:]
                  for v in line.split(",")[:2]}
        assert {"-0", "0", "nan", "inf", "-inf", "4.9406564584124654e-324",
                "0.10000000000000001", "0.10000000000000002"} <= fields


def test_write_csv_without_header(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, None, ["t", "n"], [np.array([0.5, -0.0]), [1, 2]])
    assert path.read_text() == "t,n\n0.5,1\n-0,2\n"


def _region_outputs(resolution, base):
    grid = region_sweep(resolution, 0.5, -1.0, 1.0)
    header = {"resolution": resolution}
    grid.to_csv(f"{base}.csv", header=header)
    grid.to_pgm(f"{base}.pgm", header=header)
    write_csv(f"{base}_t.csv", header, ["t", "n"],
              [np.linspace(0.0, 1.0, resolution), range(resolution)])
    return [Path(f"{base}{ext}") for ext in (".csv", ".pgm", "_t.csv")]


def test_outputs_rewritten_over_longer_files_hold_exactly_the_new_bytes(
        tmp_path):
    """A rerun into the same paths cuts the longer files of a larger run
    at the end of the new output."""
    old_sizes = [os.path.getsize(p)
                 for p in _region_outputs(21, tmp_path / "out")]
    got = _region_outputs(11, tmp_path / "out")
    want = _region_outputs(11, tmp_path / "fresh")
    for g, w, old in zip(got, want, old_sizes):
        assert g.read_bytes() == w.read_bytes()
        assert os.path.getsize(g) < old


def test_outputs_rewrite_the_file_in_place_through_links(tmp_path):
    """The file keeps its inode, mode and hard links, and a symlink at the
    path has its target rewritten, as ``open(path, "w")`` would."""
    paths = _region_outputs(21, tmp_path / "out")
    for p in paths:
        os.chmod(p, 0o640)
        os.link(p, f"{p}.link")
    target = _region_outputs(21, tmp_path / "target")
    syms = [tmp_path / t.name.replace("target", "sym") for t in target]
    for t, sym in zip(target, syms):
        sym.symlink_to(t)
    before = [os.stat(p) for p in paths]
    got = _region_outputs(11, tmp_path / "out")
    _region_outputs(11, tmp_path / "sym")
    want = _region_outputs(11, tmp_path / "fresh")
    for g, b, w, t, sym in zip(got, before, want, target, syms):
        after = os.stat(g)
        assert (after.st_ino, after.st_mode, after.st_nlink) == (
            b.st_ino, b.st_mode, 2)
        body = w.read_bytes()
        assert Path(f"{g}.link").read_bytes() == body
        assert sym.is_symlink() and t.read_bytes() == body


def test_write_csv_leaves_the_file_alone_when_a_column_fails_to_format(
        tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("old contents\n")
    with pytest.raises(ValueError):
        write_csv(path, {"seed": 0}, ["t", "ragged"],
                  [[0.5, 1.0], [[1, 2], [3]]])
    assert path.read_text() == "old contents\n"


def test_write_csv_that_fails_in_a_later_block_leaves_no_old_bytes(
        tmp_path, monkeypatch):
    """A label that the file's encoding refuses makes the second block's
    write raise: the file holds the header and the first block, and none
    of the longer old file after them."""
    monkeypatch.setattr(analytic, "_CSV_BLOCK", 2)
    path, first = tmp_path / "t.csv", tmp_path / "first.csv"
    path.write_text("x" * 10_000)
    header = {"seed": 0}
    labels = ["a", "b", "c\ud800", "d", "e"]
    with pytest.raises(UnicodeEncodeError):
        write_csv(path, header, ["n", "label"], [range(5), labels])
    write_csv(first, header, ["n", "label"], [range(2), labels[:2]])
    assert path.read_bytes() == first.read_bytes()
