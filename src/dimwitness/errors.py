"""Exception types shared across the package.

The CLI maps these onto exit codes (domain/usage -> 2, resource -> 3);
NumericalIntegrityError signals an internal consistency failure that should
never occur in a correct build and is deliberately left uncaught, except by
appendix-check, which reports a failed certification as a FAIL line.
"""


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class ResourceError(RuntimeError):
    """A requested computation exceeds a configured size or memory budget."""


class NumericalIntegrityError(ArithmeticError):
    """A quantity violated a numerical invariant (e.g. a stray imaginary part)."""
