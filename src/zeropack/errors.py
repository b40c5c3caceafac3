"""Exception types shared across the package: one per CLI exit code."""


class ZeropackError(ValueError):
    """Base class for all zeropack errors."""


class ConfigurationError(ZeropackError):
    """Input the package cannot take: bad panel edges, a bad lattice, spec, grid or file (CLI exit 4)."""


class NumericError(ZeropackError):
    """A numerical failure on valid input: a non-finite value or an underflowing solve (CLI exit 5).

    Carries the offending quadrature node, if any, in ``.node``.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node
