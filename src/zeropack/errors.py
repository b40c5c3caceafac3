"""Exception types shared across the package."""


class ZeropackError(ValueError):
    """Base class for all zeropack errors."""


class InvalidRegionError(ZeropackError):
    """Degenerate or malformed integration region."""


class InvalidLatticeError(ZeropackError):
    """Lattice basis is degenerate or wrongly oriented."""


class NumericError(ZeropackError):
    """Non-finite value encountered during quadrature or in a report.

    Carries the offending quadrature node, if any, in ``.node``.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class ConfigurationError(ZeropackError):
    """Incompatible combination of spec, weight and grid."""


class ConditioningError(ZeropackError):
    """A normal-equations solve failed; try a finer grid or lower degree."""


class NormalizationError(ZeropackError):
    """Lattice is not normalized for the requested exponent."""
