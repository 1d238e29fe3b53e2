"""Exception and warning types shared across the package, the work limits and the value guards.

The CLI maps these onto exit codes: ``UsageError`` exits with 2, any
``NumericError`` with 3.
"""

import math

# Coefficients beyond this magnitude mean the evaluation left the trusted
# region (typically a point outside the series' convergence disc).
COEFF_LIMIT = 1e15

# The most work one solve takes.  MAX_ORDER bounds every truncation order: a
# DTM order, the order n_terms - 1 of an ADM solve (so n_terms reaches
# MAX_ORDER + 1) and a VIM degree cap.  MAX_ITERATIONS bounds the VIM
# steps.  On a 2-core Xeon, transform_delayed takes 0.24 s at order 2000, and
# 1000 coupled VIM iterations at cap 64 take 0.17 s.
MAX_ORDER = 2000
MAX_ITERATIONS = 1000

# The most multiply-adds one vim_solve may ask for (vim._solve_work); the CLI
# asks at most 4,145,204.  Nine dense steps to cap 2000, 9,349,208 of them,
# take 0.25 s on the same Xeon.
MAX_VIM_WORK = 10**7

# The most RK4 steps one call takes, and grid rows the CLI builds; the README
# jobs need about 2e4.  A larger count is refused before any step is taken.
MAX_STEPS = 10**8


class UsageError(ValueError):
    """A caller broke a precondition (mismatched operands, bad arguments)."""


class NumericError(ArithmeticError):
    """Base class for runtime numeric failures (overflow, singular model, domain)."""


class SeriesOverflowError(NumericError):
    """A computed coefficient left the trusted range.

    Raised when a solver finds a coefficient that is non-finite or exceeds the
    magnitude guard, or when a series operation overflows; using it would
    only propagate garbage. ``index`` names the first offending coefficient.
    """

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"coefficient {index} overflowed (|{value!r}| beyond trusted range)")


def require_finite(value, name: str) -> float:
    """``value`` as a float, or :class:`UsageError` naming ``name`` if it is not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise UsageError(f"{name} must be finite, got {value!r}")
    return value


def check_count(count: int, name: str, low: int, high: int) -> int:
    """``count``, or :class:`UsageError` if it lies outside ``low..high``.

    The solvers check their counts this way before they allocate anything.
    """
    if not low <= count <= high:
        raise UsageError(f"{name} must be in {low}..{high}")
    return count


def check_step(step: float) -> None:
    """:class:`UsageError` unless ``step`` is positive and finite."""
    if not 0.0 < step < math.inf:
        raise UsageError(f"step must be positive and finite, got {step!r}")


def step_ratio(span: float, step: float) -> float:
    """``span / step``, refused if it overflows (a step too small for the span)."""
    ratio = span / step
    if ratio == math.inf:
        raise UsageError(f"step {step!r} is too small for a span of {span!r}")
    return ratio


def check_steps(count: int, what: str) -> int:
    """``count``, refused with :class:`UsageError` if it exceeds ``MAX_STEPS``."""
    if count > MAX_STEPS:
        raise UsageError(f"{count:.3g} {what} exceed the limit of {MAX_STEPS:g}")
    return count


def check_coeffs(coeffs):
    """Return ``coeffs`` if all are finite and within ``COEFF_LIMIT`` in magnitude.

    Otherwise raise :class:`SeriesOverflowError` naming the first offender.
    A passing check takes one pass in C: if the magnitudes sum to at most
    the limit, each is within it (NaN and infinities fail that comparison).
    Only otherwise are the coefficients inspected one by one.
    """
    if sum(map(abs, coeffs)) <= COEFF_LIMIT:
        return coeffs
    for k, c in enumerate(coeffs):
        if not -COEFF_LIMIT <= c <= COEFF_LIMIT:
            raise SeriesOverflowError(k, c)
    return coeffs


def check_finite(coeffs):
    """Return ``coeffs`` if all are finite, else raise :class:`SeriesOverflowError`.

    The error names the first coefficient that is not finite.  A passing
    check takes one pass in C: NaN and infinities make the sum of magnitudes
    non-finite.  Only if that sum is not finite (a sum of finite magnitudes
    may overflow too) are the coefficients inspected one by one.
    """
    if not sum(map(abs, coeffs)) < math.inf:
        for k, c in enumerate(coeffs):
            if not math.isfinite(c):
                raise SeriesOverflowError(k, c)
    return coeffs


class SingularModelError(NumericError):
    """The delayed model's normalizing factor (1 - beta*sigma) vanished."""


class DomainError(NumericError):
    """Evaluation outside the solution's domain (blow-up region, bad state)."""


class ParameterRangeWarning(UserWarning):
    """Parameters are outside the physically motivated range but still usable."""
