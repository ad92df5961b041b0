"""End-to-end acceptance checks: eleven criteria, one pass/fail line each
(run with ``pytest -s tests/test_acceptance.py`` to see the lines).

Criteria 05 and 06 run the gap estimators along the Euler grid
(``EULER``), criterion 05 re-simulating the deviator alone; criterion 11
runs the one step across [0, T] that the shipped model's rules allow, at
a player count the Euler grid cannot reach in a test."""

import dataclasses
import functools
import itertools

import numpy as np

from ccemfg.analytic import (DeviceProbs, cce_margin, finite_n_gap_oracle,
                             region_sweep)
from ccemfg.correlation import (CorrelationDevice, Scenario,
                                build_example_device, verify_consistency)
from ccemfg.engine import TimeGrid, mckean_vlasov_fixed_point
from ccemfg.equilibrium import cce_gap_nplayer, mean_field_gap_mc, poc_curve
from ccemfg.flows import device_flow
from ccemfg.model import build_bang_bang_model

MODEL = build_bang_bang_model(-1.0, 1.0, 1.0, 2.0)
# the same game with its running cost wrapped, which hides from
# exact_terminal that the running cost is zero: the gap estimators then step
# it along the grid.  The drift stays the action, so drift_reads_measure
# still lets the N-player gap re-simulate the deviator alone (a partial
# pickles, so worker pools can run it)
EULER = dataclasses.replace(MODEL,
                            running_cost=functools.partial(MODEL.running_cost))
GRID = TimeGrid(2.0, 200)


def _report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_corner_equilibria_exact():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        a = -rng.uniform(0.05, 5.0)
        b = rng.uniform(0.05, 5.0)
        worst = max(worst,
                    abs(cce_margin(DeviceProbs(1, 0, 0, 0), a, b)),
                    abs(cce_margin(DeviceProbs(0, 0, 0, 1), a, b)))
    _report(1, worst < 1e-12,
            f"corner-device margins vanish; max |margin| = {worst:.2e}")


def test_criterion_02_diagonal_whiteness():
    p11 = np.linspace(0.0, 1.0, 1001)
    margins = np.array([cce_margin(DeviceProbs(v, 0.0, 0.0, 1.0 - v), -1, 1)
                        for v in p11])
    expected = 1.0 - np.abs(1.0 - 2.0 * p11)
    dev = float(np.max(np.abs(margins - expected)))
    ok = dev < 1e-12 and bool(np.all(margins >= -1e-12))
    _report(2, ok, f"diagonal margin = 1-|1-2*p11| >= 0; max dev {dev:.2e}")


def test_criterion_03_non_cce_witness():
    from fractions import Fraction

    # independent rational evaluation of the raw slope/intercept formulas
    p11, p12, p21, p22 = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5),
                          Fraction(0))
    a, b = Fraction(-1), Fraction(1)
    c1, c2 = p11 + p21, p12 + p22

    def r(num, den):
        return num / den if den > 0 else Fraction(0)

    h = (-b * (r(p11 * p11 + p21 * p11, c1) + r(p12 * p12 + p12 * p22, c2))
         - a * (r(p21 * p21 + p21 * p11, c1) + r(p22 * p22 + p12 * p22, c2)))
    k = (b * b * (r(p11 * p11, c1) + r(p12 * p12, c2))
         + a * a * (r(p21 * p21, c1) + r(p22 * p22, c2))
         + 2 * a * b * (r(p11 * p21, c1) + r(p12 * p22, c2)))
    rational_margin = min(h * a + k, h * b + k)

    m = cce_margin(DeviceProbs(0.5, 0.3, 0.2, 0.0), -1.0, 1.0)
    ok = (rational_margin == Fraction(-6, 35)
          and abs(m - float(rational_margin)) < 1e-12
          and abs(m + 6 / 35) < 1e-12)
    _report(3, ok, f"margin(0.5,0.3,0.2,0) = {m:.12f} = -6/35 "
                   "(rational cross-check agrees)")


def test_criterion_04_region_reproduction():
    ok = True
    details = []
    for alpha in (0.0, 0.5, 1.0):
        grid = region_sweep(101, alpha, -1.0, 1.0)
        # the dashed diagonal of the raster: p12 = p21 = 0 <=> p11 + p22 = 1
        diag = np.arange(101)
        diag_white = bool(np.all(grid.is_cce[diag, 100 - diag]))
        feas = grid.feasible
        both = bool(np.any(grid.is_cce & feas)) and bool(np.any(~grid.is_cce & feas))
        sym = bool(np.array_equal(grid.margin, grid.margin.T))
        ok = ok and diag_white and both and sym
        details.append(f"alpha={alpha:g}: diag-white={diag_white} "
                       f"both-colors={both} swap-exact={sym}")
    _report(4, ok, "; ".join(details))


def test_criterion_05_nplayer_gap_vs_oracle():
    devices = {"white(1,0,0,0)": DeviceProbs(1, 0, 0, 0),
               "black(.5,.3,.2,0)": DeviceProbs(0.5, 0.3, 0.2, 0.0)}
    lines = []
    ok = True
    limit = finite_n_gap_oracle(DeviceProbs(0.5, 0.3, 0.2, 0.0),
                                -1, 1, 1, 2, 10**9)
    ok = ok and abs(limit - 24 / 35) < 1e-6
    for name, p in devices.items():
        device = build_example_device(p, -1.0, 1.0)
        for N in (50, 200, 500):
            oracle = finite_n_gap_oracle(p, -1, 1, 1, 2, N)
            rep = cce_gap_nplayer(EULER, device, N=N, deviations=21,
                                  reps=2000, seed=11, grid=GRID)
            dev = abs(rep.raw_gap - oracle)
            hit = dev <= 2 * rep.raw_se + 1e-14
            ok = ok and hit
            lines.append(f"{name} N={N}: est {rep.raw_gap:.4f} "
                         f"oracle {oracle:.4f} |z|<=2: {hit}")
    _report(5, ok, "; ".join(lines) + f"; black limit {limit:.4f} = 24/35")


def test_criterion_06_mean_field_gap_vs_margin():
    # devices spanning white (boundary, margin = 0) and black (margin < 0)
    devices = [DeviceProbs(1, 0, 0, 0), DeviceProbs(0, 0, 0, 1),
               DeviceProbs(0.25, 0.25, 0.25, 0.25),
               DeviceProbs(0.5, 0.3, 0.2, 0.0),
               DeviceProbs(0.6, 0.2, 0.2, 0.0)]
    ok = True
    lines = []
    for p in devices:
        margin = cce_margin(p, -1.0, 1.0)
        target = 4.0 * max(0.0, -margin)
        device = build_example_device(p, -1.0, 1.0)
        rep = mean_field_gap_mc(EULER, device, reps=4000, seed=29, grid=GRID)
        hit = abs(rep.raw_gap - target) <= 2 * rep.raw_se + 1e-12
        ok = ok and hit
        lines.append(f"p={p.as_tuple()}: raw {rep.raw_gap:.4f} "
                     f"target {target:.4f} ok={hit}")
    _report(6, ok, "; ".join(lines))


def test_criterion_07_propagation_of_chaos():
    device = build_example_device(DeviceProbs(1, 0, 0, 0), -1.0, 1.0)
    Ns = (50, 100, 200, 400)
    curves = []
    for seed in range(5):
        res = poc_curve(MODEL, device, Ns, reps=200, seed=seed, grid=GRID)
        curves.append(res.overall)
    medians = np.median(np.array(curves), axis=0)
    decreasing = bool(np.all(np.diff(medians) < 0))
    halved = medians[-1] < 0.5 * medians[0]
    _report(7, decreasing and halved,
            f"median sup_t E[W2^2] over 5 seeds: "
            + ", ".join(f"N={n}: {m:.4f}" for n, m in zip(Ns, medians))
            + f"; strictly decreasing={decreasing}, "
              f"value(400) < 0.5*value(50)={halved}")


def test_criterion_08_consistency_check():
    device = build_example_device(DeviceProbs(0.5, 0, 0, 0.5), -1.0, 1.0)
    rep = verify_consistency(MODEL, device, GRID, reps=10**4, seed=17)
    sups = {c.label: c.sup_w2 for c in rep.classes}
    consistent_ok = all(v <= 0.15 for v in sups.values())

    # deliberately inconsistent: the all-b control paired with the all-a flow
    bad = CorrelationDevice(scenarios=(
        Scenario(1.0, 1.0, device_flow(0.0, -1.0, 1.0, label="mu-")),))
    bad_rep = verify_consistency(MODEL, bad, GRID, reps=2000, seed=17)
    bad_sup = bad_rep.classes[0].sup_w2
    ok = consistent_ok and bad_sup >= 2.0
    _report(8, ok,
            f"consistent device sup_t W2 per class "
            + ", ".join(f"{k}={v:.3f}" for k, v in sups.items())
            + f" (<= 0.15); inconsistent device sup_t W2 = {bad_sup:.2f} (>= 2)")


def test_criterion_09_mckean_vlasov_fixed_point():
    res = mckean_vlasov_fixed_point(MODEL, GRID, 1.0, particles=10**4,
                                    max_iters=10, tol=0.02, seed=19)
    mean_T = res.mean[-1]
    var_T = res.var[-1]
    ok = (res.converged and res.iterations <= 10
          and abs(mean_T - 2.0) < 0.05 and abs(var_T - 2.0) / 2.0 < 0.1)
    _report(9, ok, f"converged in {res.iterations} iterations; "
                   f"mean_T = {mean_T:.4f} (target 2), var_T = {var_T:.4f}")


def test_criterion_10_metric_oracle():
    gen = np.random.default_rng(23)
    worst = 0.0
    for _ in range(1000):
        n = int(gen.integers(1, 7))
        x = gen.normal(size=n) * gen.uniform(0.1, 4)
        y = gen.normal(size=n) * gen.uniform(0.1, 4) + gen.normal()
        best = np.inf
        for perm in itertools.permutations(range(n)):
            best = min(best, float(np.mean((x - y[list(perm)]) ** 2)))
        # the sorted coupling: order statistics matched in order
        sorted_w2 = np.sqrt(np.mean((np.sort(x) - np.sort(y)) ** 2))
        worst = max(worst, abs(sorted_w2 - np.sqrt(best)))
    _report(10, worst < 1e-12,
            f"sorted coupling = assignment optimum on 1000 instances; "
            f"max dev {worst:.2e}")


def test_criterion_11_large_n_gap_exact_terminal():
    p = DeviceProbs(0.5, 0.3, 0.2, 0.0)
    N = 10_000
    device = build_example_device(p, -1.0, 1.0)
    oracle = finite_n_gap_oracle(p, -1, 1, 1, 2, N)
    rep = cce_gap_nplayer(MODEL, device, N=N, deviations=21, reps=1000,
                          seed=11, grid=GRID)
    z = (rep.raw_gap - oracle) / rep.raw_se
    _report(11, abs(z) <= 3,
            f"black(.5,.3,.2,0) N={N} sampled at the horizon: est "
            f"{rep.raw_gap:.4f} oracle {oracle:.4f} (24/35 = "
            f"{24 / 35:.4f}), z = {z:.2f}, |z| <= 3")
