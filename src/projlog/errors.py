"""Exception hierarchy.

ValidationError maps to CLI exit code 2 (bad inputs or configuration),
NumericError and its four guards to exit code 3 (a computation failed to
converge or a discretisation was too coarse to trust).
"""


class ProjlogError(Exception):
    """Base class for all library errors."""


class ValidationError(ProjlogError):
    """Invalid input data or configuration."""


class NumericError(ProjlogError):
    """A numerical procedure failed its own quality contract."""


class SingularStencil(NumericError):
    """An unsmoothed (eps = 0) MA density was asked for within 10h of an atom:
    ma_density's singular guard."""


class NegativeDensity(NumericError):
    """Computed density is negative beyond the noise tolerance (step too large)."""


class GridTooCoarse(NumericError):
    """Grid self-check failed; results at this resolution are not trustworthy."""


class NonConvergent(NumericError):
    """Adaptive quadrature or a Monte Carlo estimate did not reach a finite,
    trustworthy value."""
