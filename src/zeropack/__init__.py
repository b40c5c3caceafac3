"""Numerical toolkit for hyperbolic and planar zero-packing densities."""

from .dbar import (
    CorrectionResult,
    GapReport,
    cutoff,
    dbar_cutoff,
    equality_gap,
    minimal_correction,
    project_polynomial,
)
from .errors import (
    ConfigurationError,
    NumericError,
    ZeropackError,
)
from .functionals import (
    DEFAULT_RESOLUTION,
    DensityReport,
    FunctionalSpec,
    boundary_mass,
    default_grid,
    density,
    gradient,
)
from .lattice_sigma import (
    Lattice,
    QuasiperiodicCandidate,
    abrikosov_candidate,
    cell_average_density,
    lattice_normalize,
    sigma,
    theta_scan,
)
from .optimize import MinimizeResult, OptimizerConfig, degree_schedule, minimize
from .poly import ComplexPolynomial, poly_eval
from .quadrature import QuadratureGrid, build_grid, integrate

__version__ = "0.1.0"

__all__ = [
    "ComplexPolynomial",
    "ConfigurationError",
    "CorrectionResult",
    "DEFAULT_RESOLUTION",
    "DensityReport",
    "FunctionalSpec",
    "GapReport",
    "Lattice",
    "MinimizeResult",
    "NumericError",
    "OptimizerConfig",
    "QuadratureGrid",
    "QuasiperiodicCandidate",
    "ZeropackError",
    "abrikosov_candidate",
    "boundary_mass",
    "build_grid",
    "cell_average_density",
    "cutoff",
    "dbar_cutoff",
    "default_grid",
    "degree_schedule",
    "density",
    "equality_gap",
    "gradient",
    "integrate",
    "lattice_normalize",
    "minimal_correction",
    "minimize",
    "poly_eval",
    "project_polynomial",
    "sigma",
    "theta_scan",
    "__version__",
]
