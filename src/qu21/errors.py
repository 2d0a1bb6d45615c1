"""Exception types shared across the package."""


class QAlgebraError(Exception):
    """Base class for all package-specific errors."""


class InvalidSignature(QAlgebraError):
    """Signature integers violate the admissibility inequalities."""


class ConstraintViolation(QAlgebraError):
    """A basis label violates one of its defining inequalities."""


class LabelOutOfDomain(QAlgebraError):
    """A label does not belong to the stated representation."""


class PatternViolation(QAlgebraError):
    """A triangular pattern violates its betweenness conditions."""


class WeightMismatch(QAlgebraError):
    """Two labels expected to share a weight do not."""


class EmptyWeightSpace(QAlgebraError):
    """No basis labels exist at the requested weight."""


class NegativeFactorial(QAlgebraError):
    """q-factorial of a negative integer was requested where it is undefined."""


class RadicalIncompatible(QAlgebraError):
    """Exact addition of radicals whose ratio is not a rational square."""
