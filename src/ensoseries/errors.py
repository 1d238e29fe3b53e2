"""Exception and warning types shared across the package, the work limits and the input guards, :func:`real` for reals.

The CLI maps these onto exit codes: ``UsageError`` exits with 2, any
``NumericError`` with 3.
"""

import math
import operator
import sys

# Coefficients beyond COEFF_LIMIT mean the evaluation left the trusted region
# (typically a point outside the series' convergence disc).  Every finite
# float is within FINITE_LIMIT, so only NaN and infinities fail that one.
COEFF_LIMIT = 1e15
FINITE_LIMIT = sys.float_info.max

# The most work one solve takes.  MAX_ORDER bounds every truncation order: a
# DTM order and the order n_terms - 1 of an ADM solve (so n_terms reaches
# MAX_ORDER + 1).  MAX_ITERATIONS bounds the VIM steps, and with them the
# work of a VIM solve, whose degree cap is fixed at 64: 1000 steps take at
# most 4,145,204 multiply-adds.  On a 2-core Xeon, dtm.solve_delayed takes
# 0.2 s at order 2000, and 1000 coupled VIM iterations take 0.17 s.
MAX_ORDER = 2000
MAX_ITERATIONS = 1000

# Each solve count by the name its solver gives it, and its range low..high.
COUNT_LIMITS = {"order": (0, MAX_ORDER), "n_terms": (1, MAX_ORDER + 1), "iterations": (0, MAX_ITERATIONS)}

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


def real(value, name: str) -> float:
    """``value`` as a finite float, or :class:`UsageError` naming ``name``: the one gate of every real that comes in.

    A str, bytes, None or complex is refused, never parsed, as are nan, the infinities, ``Decimal('sNaN')`` and an int
    or ``Fraction`` past the float range; a bool, a ``Decimal`` or an object with ``__float__`` or ``__index__`` passes.
    """
    try:  # a float needs no conversion; ldexp(x, 0) is exact and, like math.isfinite, parses no str
        x = value if value.__class__ is float else math.ldexp(value, 0)
    except TypeError:
        raise UsageError(f"{name} must be a real number, got {value!r}") from None
    except (OverflowError, ValueError) as exc:  # past the float range, or a signalling NaN
        raise UsageError(f"{name} must be finite as a float: {exc}") from None
    if math.isfinite(x):
        return x
    raise UsageError(f"{name} must be finite, got {x!r}")


def check_count(count: int, name: str) -> int:
    """``count`` as an int, or :class:`UsageError` if it is not an integer or lies outside ``COUNT_LIMITS[name]``.

    The solvers check their counts this way before they allocate anything, and work on the int returned.  An
    int, a bool or an object with ``__index__`` passes; a float such as 3.0 is refused, integral or not.
    """
    try:
        count = operator.index(count)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {count!r}") from None
    low, high = COUNT_LIMITS[name]
    if not low <= count <= high:
        raise UsageError(f"{name} must be in {low}..{high}")
    return count


def check_step(step: float) -> float:
    """``step`` as a float, or :class:`UsageError` unless it is a real number, positive and finite."""
    value = step if step.__class__ is float else real(step, "step")
    if not 0.0 < value < math.inf:
        raise UsageError(f"step must be positive and finite, got {value!r}")
    return value


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


def check_coeffs(coeffs, limit=COEFF_LIMIT):
    """Return ``coeffs`` if all are finite and within ``limit`` in magnitude.

    Otherwise raise :class:`SeriesOverflowError` naming the first offender.
    A passing check takes one pass in C: if the magnitudes sum to at most
    the limit, each is within it (NaN and infinities fail that comparison).
    Only otherwise, as when finite magnitudes sum past ``FINITE_LIMIT``, are
    the coefficients inspected one by one.
    """
    if sum(map(abs, coeffs)) <= limit:
        return coeffs
    for k, c in enumerate(coeffs):
        if not -limit <= c <= limit:
            raise SeriesOverflowError(k, c)
    return coeffs


class SingularModelError(NumericError):
    """The delayed model's normalizing factor (1 - beta*sigma) vanished."""


class DomainError(NumericError):
    """Evaluation outside the solution's domain (blow-up region, bad state)."""


class ParameterRangeWarning(UserWarning):
    """Parameters are outside the physically motivated range but still usable."""
