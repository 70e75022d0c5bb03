"""Error types and the int and variable-count argument checks shared across the package."""

__all__ = [
    "NotAdmissibleError",
    "NotStableError",
    "MalformedDiagramError",
    "InconsistentDiagramError",
    "NeedsCapError",
    "IdealParseError",
]


class NotAdmissibleError(ValueError):
    """Sequence is not the Hilbert function of any Artinian quotient."""


class NotStableError(ValueError):
    """Monomial ideal is not stable, so the closed-form resolution does not apply."""


class MalformedDiagramError(ValueError):
    """Betti diagram has an empty column below its projective dimension."""


class InconsistentDiagramError(ValueError):
    """Diagram's alternating numerator does not come from a Hilbert function."""


class NeedsCapError(ValueError):
    """Quotient is not Artinian; a degree cap is required to bound the computation."""


class IdealParseError(ValueError):
    """Monomial ideal text could not be parsed."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def _check_int(name, value, least=None):
    """Raise ValueError unless value is an int, not a bool, and at least least when that is given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_vars(n):
    """Raise ValueError unless n is an int, not a bool, of at least 1: a variable count."""
    _check_int("n", n)
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")


def _check_ints(name, values):
    """values as a tuple, after _check_int(name, value) on each of them."""
    values = tuple(values)
    for value in values:
        _check_int(name, value)
    return values
