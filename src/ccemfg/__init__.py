"""Coarse correlated equilibria for symmetric stochastic differential
games and their mean field limit, with a fully explicit bang-bang
instance: closed-form equilibrium-region tests, Monte Carlo gap
estimation, propagation-of-chaos and consistency diagnostics."""

from .analytic import (AffineCoeffs, DeviceProbs, RegionGrid, cce_margin,
                       consistency_weights, diagonal_hk, finite_n_gap_oracle,
                       hk_coefficients, mean_field_payoffs, region_sweep,
                       worst_case_deviation)
from .correlation import (ConsistencyReport, CorrelationDevice, Scenario,
                          build_example_device, null_band, sample_scenario,
                          verify_consistency)
from .engine import (MkvResult, SimulationError, TimeGrid,
                     mckean_vlasov_fixed_point, simulate_ensemble,
                     simulate_representative)
from .equilibrium import (CostEstimate, GapReport, PocResult, cce_gap_nplayer,
                          mean_field_gap_mc, poc_curve)
from .flows import GaussianMixtureFlow, device_flow
from .model import (ActionBox, GaussianInitial, MeasureView, ModelSpec,
                    PointMass, build_bang_bang_model)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
