"""Error types shared across the package."""


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
