"""Exception types shared across the library."""


class MoeError(Exception):
    """Base class for all moelab errors."""


class InvalidArgumentError(MoeError, ValueError):
    """An argument violates an operation's preconditions."""


class AssumptionError(MoeError, ValueError):
    """A measure violates one of the modelling assumptions U.1-U.4.

    Attributes:
        violations: list of short strings naming the violated assumptions,
            e.g. ["U.2 (pinned last component)", "U.3 (distinct experts)"].
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("assumption check failed: " + "; ".join(self.violations))


class DegenerateDataError(MoeError, RuntimeError):
    """A sample produced a numerically impossible mixture likelihood."""

    def __init__(self, sample_index):
        self.sample_index = int(sample_index)
        super().__init__(f"degenerate likelihood at sample index {self.sample_index}")


class InsufficientDataError(MoeError, ValueError):
    """Too few usable points for the requested computation."""


class UnsupportedValueError(MoeError, ValueError):
    """A value outside the supported table was requested."""
