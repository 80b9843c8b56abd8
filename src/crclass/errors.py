"""Error taxonomy shared across the library.

ValidationError and its subclasses mean the user's input is at fault and
map to CLI exit status 1. InternalAssertion means a mathematical invariant
the library guarantees was violated; it maps to exit status 2.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Input fails a manifold or point invariant."""


class RealityError(ValidationError):
    """A graphing function is not fixed by conjugation."""


class DimensionError(ValidationError):
    """Dimensions out of the supported range or inconsistent."""


class BasePointError(ValidationError):
    """The base point is invalid or sits on a singular locus."""


class FrameSingularError(ValidationError):
    """The Cramer denominator det(i*I + Phi_u) vanishes."""


class DependentFrameError(ValidationError):
    """Frame fields are generically dependent: a frame-change matrix is
    singular, or fields to decompose against have generic rank below
    their count."""


class NotInSpanError(ValueError):
    """Decomposition target lies outside the span of the frame."""


class RankMismatchError(ValidationError):
    """An operation required a specific generic Levi rank."""


class DegreeOverflowError(ValidationError):
    """A polynomial's total degree would exceed poly.MAX_DEGREE."""


class InternalAssertion(AssertionError):
    """A guaranteed invariant failed; indicates a bug, not bad input."""
