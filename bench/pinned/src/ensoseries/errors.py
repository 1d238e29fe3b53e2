"""Exception and warning types shared across the package.

The CLI maps these onto exit codes: ``UsageError`` exits with 2, any
``NumericError`` with 3.
"""


class UsageError(ValueError):
    """A caller broke a precondition (mismatched operands, bad arguments)."""


class NumericError(ArithmeticError):
    """Base class for runtime numeric failures (overflow, singular model, domain)."""


class SeriesOverflowError(NumericError):
    """A computed coefficient left the trusted range.

    Raised as soon as a coefficient is non-finite or exceeds the magnitude
    guard; continuing would only propagate garbage. ``index`` names the first
    offending coefficient.
    """

    def __init__(self, index: int, value: float, what: str = "coefficient"):
        self.index = index
        self.value = value
        super().__init__(f"{what} {index} overflowed (|{value!r}| beyond trusted range)")


class SingularModelError(NumericError):
    """The delayed model's normalizing factor (1 - beta*sigma) vanished."""


class DomainError(NumericError):
    """Evaluation outside the solution's domain (blow-up region, bad state)."""


class ParameterRangeWarning(UserWarning):
    """Parameters are outside the physically motivated range but still usable."""
