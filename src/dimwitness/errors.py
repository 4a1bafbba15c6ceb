"""Exception types shared across the package.

The CLI maps these onto exit codes (domain/usage -> 2, resource -> 3);
NumericalIntegrityError signals an internal consistency failure that should
never occur in a correct build and is deliberately left uncaught, except by
appendix-check, which reports a failed certification as a FAIL line.
"""


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class ResourceError(RuntimeError):
    """A requested computation exceeds a configured size or memory budget.

    `needed` is the least point count that the refusal established for a
    net: the covering floor (math.inf past float range), 10 k^2 + 2 from
    the geodesic search, a kept net's size, or max_points + 1 when the
    insertion reaches the cap.  It is None where no point count would do,
    as for the hull's facet bound or a budget that is not a net's.
    """

    def __init__(self, message: str, needed=None):
        super().__init__(message)
        self.needed = needed


class NumericalIntegrityError(ArithmeticError):
    """A quantity violated a numerical invariant (e.g. a stray imaginary part)."""


def as_integer(name: str, value) -> int:
    """`value` as an int, or DomainError unless it is a whole number: None,
    strings, NaN, inf and 2.5 are refused, 3.0 is 3."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


def check_open_unit(name: str, value) -> None:
    """DomainError unless `value` is a number in (0, 1): NaN and strings are not."""
    try:
        if 0.0 < value < 1.0:
            return
    except TypeError:
        pass
    raise DomainError(f"{name} must lie in (0, 1)")
