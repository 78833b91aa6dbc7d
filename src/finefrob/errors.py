"""Exception hierarchy with stable machine-readable codes.

Every error carries a ``code`` attribute (its class name) that is preserved
verbatim in CLI error objects, so callers can dispatch on it without parsing
messages.  ``InputError`` subclasses signal malformed input (CLI exit 1);
``DomainError`` subclasses signal violated mathematical preconditions
(CLI exit 2).
"""

from __future__ import annotations

__all__ = [
    "FinefrobError",
    "InputError",
    "DomainError",
    "SchemaMismatch",
    "CharTwo",
    "NotPrime",
    "MixedExtension",
    "NotImaginary",
    "UnorderedGroundField",
    "ZeroPolynomial",
    "ConstantPolynomial",
    "DivisionByZeroPoly",
    "BothZero",
    "DegreeTooLarge",
    "CapExceeded",
    "FactorizationFailed",
    "NotQuadratic",
    "Reducible",
    "NotKRegular",
    "DimensionMismatch",
    "FieldMismatch",
    "NotInvertible",
    "NoModularInverse",
    "ZeroMatrix",
    "NotSemisimple",
    "SplittingBoundExceeded",
    "InvalidDecomposition",
    "NegativeNormComponent",
    "NotConvergent",
    "NotInOmegaHat",
    "UnknownRadius",
    "TrivialKindUnsupported",
]


class FinefrobError(Exception):
    """Base class for all library errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class InputError(FinefrobError):
    """Malformed or inconsistent input data (not a mathematical precondition)."""


class DomainError(FinefrobError):
    """A mathematical precondition of the requested operation is violated."""


# --- input / schema ---------------------------------------------------------

class SchemaMismatch(InputError):
    """A JSON document does not match the expected schema."""


class NotPrime(InputError):
    """The requested prime-field modulus is not prime."""


# --- scalars and extensions -------------------------------------------------

class CharTwo(DomainError):
    """Ground fields of characteristic 2 are outside scope."""


class MixedExtension(DomainError):
    """Arithmetic between elements of distinct quadratic extensions."""


class NotImaginary(DomainError):
    """Real/imaginary split requested for an element that is not non-real."""


class UnorderedGroundField(DomainError):
    """An order-dependent operation was requested over an unordered field."""


# --- polynomials ------------------------------------------------------------

class ZeroPolynomial(DomainError):
    """The zero polynomial is not accepted here."""


class ConstantPolynomial(DomainError):
    """A nonconstant polynomial is required."""


class DivisionByZeroPoly(DomainError):
    """Polynomial division by the zero polynomial."""


class BothZero(DomainError):
    """gcd(0, 0) is undefined."""


class DegreeTooLarge(DomainError):
    """Degree exceeds the supported factorization bound."""


class CapExceeded(DomainError):
    """A requested size (series terms, precision) exceeds its supported cap."""


class FactorizationFailed(DomainError):
    """The factor search could not complete."""


class NotQuadratic(DomainError):
    """A degree-2 polynomial is required."""


class Reducible(DomainError):
    """An irreducible polynomial is required."""


class NotKRegular(DomainError):
    """An irreducible-factor degree is divisible by the characteristic."""


# --- matrices ---------------------------------------------------------------

class DimensionMismatch(DomainError):
    """Operands have incompatible dimensions."""


class FieldMismatch(DomainError):
    """Operands live over different ground fields."""


class NotInvertible(DomainError):
    """The matrix is singular."""


class NoModularInverse(DomainError):
    """An element of the quotient ring is not invertible."""


# --- decompositions ---------------------------------------------------------

class ZeroMatrix(DomainError):
    """The zero matrix has no fine decomposition."""


class NotSemisimple(DomainError):
    """The matrix is not semisimple."""


class SplittingBoundExceeded(DomainError):
    """Some irreducible factor of the minimal polynomial has degree > 2."""


class InvalidDecomposition(DomainError):
    """A decomposition record violates its defining identities."""


class NegativeNormComponent(DomainError):
    """Normalization requires every quadratic component to have n > 0."""


# --- series over valued fields ---------------------------------------------

class NotConvergent(DomainError):
    """The series does not converge at the requested point."""


class NotInOmegaHat(DomainError):
    """Eigenvalue data leaves the certified convergence domain."""


class UnknownRadius(DomainError):
    """A convergence radius is required but was not declared."""


class TrivialKindUnsupported(DomainError):
    """The trivial absolute value supports no convergence analysis here."""
