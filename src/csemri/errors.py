"""Exception types shared across the package.

Every concrete error derives from exactly one of :class:`InputError` (the
CLI exits 2) and :class:`NumericalError` (the CLI exits 3), and keeps a
builtin base so that callers can also catch it as that builtin.
"""


class CsemriError(Exception):
    """Base class for all package errors."""


class InputError(CsemriError):
    """An input, argument or file that the package cannot accept."""


class NumericalError(CsemriError):
    """A computation that failed on an accepted input."""


class DimensionError(InputError, ValueError):
    """Array or model dimensions are incompatible."""


class InvalidSpecies(InputError, ValueError):
    """Species definition violates the spectrum invariants."""


class CombinatorialLimit(NumericalError, RuntimeError):
    """An enumeration would exceed the configured guard."""


class PolynomialDegreeLimit(NumericalError, RuntimeError):
    """A determinant polynomial exceeds the configured degree guard."""


class RankDeficient(NumericalError, RuntimeError):
    """A matrix required to be full-rank is numerically rank-deficient."""


class OverflowRisk(NumericalError, FloatingPointError):
    """Evaluating exp(2*pi*i*xi*t) would overflow IEEE doubles."""


class DomainError(InputError, ValueError):
    """Scalar argument outside the mathematical domain of the function."""


class DegenerateCurvature(NumericalError, RuntimeError):
    """The residual has no curvature at the requested point."""


class NonBracketed(NumericalError, RuntimeError):
    """A scalar root search found no sign change inside the search cap."""


class NonConvergence(NumericalError, RuntimeError):
    """An iterative projection failed to reach its tolerance."""


class SpecError(InputError, ValueError):
    """Malformed phantom or configuration specification."""
