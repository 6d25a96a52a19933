"""Exception taxonomy shared across the package, and the one config check:
``check_values`` judges values by a table of rules."""

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


def check_values(values: dict, rules: dict, label: str) -> None:
    """Raise ``ConfigError`` on the first key of ``rules`` whose value in
    ``values`` fails its rule; keys absent from ``values`` are not judged. A
    rule is a pair: what the value must be, in words, and a predicate."""
    for key, (what, check) in rules.items():
        if key in values and not check(values[key]):
            raise ConfigError(f"{label} {key!r} must be {what}, got {values[key]!r}")


def integer(least: int, most=math.inf):
    what = f"an integer >= {least}" if most == math.inf else f"an integer in [{least}, {most}]"
    return what, lambda v: is_integer(v) and least <= v <= most


def number(interval: str = ""):
    """A finite number, in ``interval`` if given; "[0, 1)" holds 0 and not 1."""
    if not interval:
        return "a finite number", is_finite_real
    lo, hi = map(float, interval[1:-1].split(","))
    closed = interval[0] == "[", interval[-1] == "]"
    return (f"a finite number in {interval}", lambda v: is_finite_real(v)
            and (lo < v or closed[0] and v == lo) and (v < hi or closed[1] and v == hi))


def one_of(*options):
    return "one of " + ", ".join(map(repr, options)), lambda v: v in options


def optional(rule):
    return f"{rule[0]} or null", lambda v: v is None or rule[1](v)


def grid(rule):
    """A nonempty list of values that each pass ``rule``; null is no grid."""
    return (f"null or a nonempty list of values each {rule[0]}", lambda v: v is None or (
        isinstance(v, (list, tuple)) and len(v) > 0 and all(map(rule[1], v))))
