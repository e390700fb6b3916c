"""Thermal two-point functions of a scalar field under a switched mass shift.

The package is organized by what each layer computes:

* :mod:`thermalquench.thermal` - thermal coefficients, their beta-derivative
  tower, dispersions, and the shifted inverse temperature;
* :mod:`thermalquench.combinatorics` - Eulerian rows, set partitions and
  cumulant inversion;
* :mod:`thermalquench.modes` - the switched-frequency mode equation,
  switching integrals, Bogoliubov data, ergodic averages;
* :mod:`thermalquench.spectral` - quasi-free states as spectral data and
  packet pairings, including the finite-switching-scale time-domain pairing;
* :mod:`thermalquench.series` - the order-by-order series and its
  resummation to the shifted thermal state;
* :mod:`thermalquench.cli` - reproducible experiment driver.
"""

from .combinatorics import (
    EulerianRow,
    connected_from_moments,
    eulerian_row_by_enumeration,
    eulerian_row_recursive,
    moments_from_connected,
)
from .modes import (
    BogoliubovPair,
    IntegratorError,
    ModeTrajectory,
    SwitchingProfile,
    bogoliubov,
    ergodic_averages,
    ergodic_limits,
    solve_modes,
    sudden_quench_pair,
    switch_integral_limit,
    switch_integrals,
)
from .series import (
    ResummationReport,
    SeriesTerm,
    nth_order_term,
    verify_resummation,
)
from .spectral import (
    PairingPlan,
    QuadratureSpec,
    SpectralState,
    TestPacket,
    adiabatic,
    adiabatic_classical,
    free_kms,
    ness_classical,
    pair,
    pair_finite_mu,
    pair_report,
    pairing_plan,
)
from .thermal import (
    DispersionPair,
    ThermalParams,
    bose_coefficient,
    bose_derivative,
    dispersion,
    shifted_beta,
)

__version__ = "0.1.0"

__all__ = [
    "BogoliubovPair",
    "DispersionPair",
    "EulerianRow",
    "IntegratorError",
    "ModeTrajectory",
    "PairingPlan",
    "QuadratureSpec",
    "ResummationReport",
    "SeriesTerm",
    "SpectralState",
    "SwitchingProfile",
    "TestPacket",
    "ThermalParams",
    "adiabatic",
    "adiabatic_classical",
    "bogoliubov",
    "bose_coefficient",
    "bose_derivative",
    "connected_from_moments",
    "dispersion",
    "ergodic_averages",
    "ergodic_limits",
    "eulerian_row_by_enumeration",
    "eulerian_row_recursive",
    "free_kms",
    "moments_from_connected",
    "ness_classical",
    "nth_order_term",
    "pair",
    "pair_finite_mu",
    "pair_report",
    "pairing_plan",
    "shifted_beta",
    "solve_modes",
    "sudden_quench_pair",
    "switch_integral_limit",
    "switch_integrals",
    "verify_resummation",
]
