"""Exception hierarchy shared by every module in the package.

Errors are split by what the caller can do about them: fix the arguments
(ArgumentError and friends), raise a budget (ResourceLimitError), relax a
tolerance (PrecisionError), or treat the result as a mathematical
finding (never an exception -- mismatches are reported in result objects).
"""


class TaucharError(Exception):
    """Base class for all package-specific errors."""


class ArgumentError(TaucharError, ValueError):
    """An argument violates a documented precondition."""


class ClassificationError(ArgumentError):
    """A modulus was passed to a branch it does not belong to."""


class ResourceLimitError(TaucharError):
    """A requested computation exceeds the configured budget.

    The message always names the budget that was exceeded and its value, so
    the caller knows which knob to turn.
    """


class PrecisionError(TaucharError):
    """A tolerance is tighter than the error that could be certified.

    Carries ``achievable``: the best certified bound that *was* reachable.
    """

    def __init__(self, message: str, achievable: float | None = None):
        super().__init__(message)
        self.achievable = achievable


class OverflowHardError(TaucharError, OverflowError):
    """Exact integer coefficients left the 64-bit window; results were discarded."""


class UndecidablePointError(TaucharError):
    """A near-curve distance fell inside the guard band around the threshold.

    Carries ``points``: the offending integers, so the caller can re-run with
    a different threshold instead of trusting a silent misclassification.
    """

    def __init__(self, message: str, points: list[int]):
        super().__init__(message)
        self.points = points
