"""Two-electron 2D quantum dot: polynomial states of the radial problem.

Pipeline: map the relative-motion radial equation onto the biconfluent Heun
form, locate the trap frequencies where the series solution terminates
(integer determinant recurrence + Descartes root isolation), assemble and
normalize the resulting wavefunctions, and cross-check every analytic state
against an independent spectral eigensolver of the self-adjoint radial
equation (a Galerkin solve in a Gaussian-weighted half-range polynomial
basis).
"""

from .model import (
    HeunParams,
    MagneticConfig,
    RadialProblem,
    SystemConfig,
    energy_center_of_mass,
    energy_relative,
    map_magnetic,
    map_to_heun,
    total_energy,
)
from .termination import (
    ClearedPolynomial,
    GammaConvention,
    RootSet,
    TerminationSystem,
    build_gamma_factors,
    coefficient_chain,
    determinant_sequence,
    isolate_roots,
    solve_termination,
)

__version__ = "0.1.0"

__all__ = [
    "HeunParams",
    "MagneticConfig",
    "RadialProblem",
    "SystemConfig",
    "energy_center_of_mass",
    "energy_relative",
    "map_magnetic",
    "map_to_heun",
    "total_energy",
    "ClearedPolynomial",
    "GammaConvention",
    "RootSet",
    "TerminationSystem",
    "build_gamma_factors",
    "coefficient_chain",
    "determinant_sequence",
    "isolate_roots",
    "solve_termination",
    "__version__",
]
