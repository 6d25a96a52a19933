"""Exception taxonomy shared across the package, and the value checks that
config validation shares."""

import math
from numbers import Integral, Real


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class SingularSystemError(ValueError):
    """Normal equations are rank-deficient; a positive ridge is required."""


class SchemaError(ValueError):
    """Feature schema is malformed or does not match the data."""


class DataError(ValueError):
    """Cohort data violates a structural invariant (range, labels, types)."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class NotTrainedError(RuntimeError):
    """A trained model was required but none is available."""


def is_integer(value) -> bool:
    """An integer that is not a bool (JSON ``true`` is no count)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A finite real number that is not a bool (JSON ``NaN`` and
    ``Infinity`` parse to floats)."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
