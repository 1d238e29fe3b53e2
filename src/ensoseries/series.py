"""Dense truncated power series about t = 0.

A :class:`SeriesPoly` stores the coefficients of ``sum_k coeffs[k] * t**k``
for ``k = 0..cap`` as a plain tuple of floats, with explicit zeros for absent
degrees.  Every operation is pure and returns a new series truncated at the
same cap; degrees above the cap are silently discarded, mirroring how a
finite Taylor section behaves.  The solvers' caps stay small (64 for VIM by
default, ``errors.MAX_ORDER + 1`` at most), so the quadratic-cost convolution
product is entirely adequate.  A product skips the zero tails of its
operands: its sums run only over the terms below both operands' live degrees
(see :meth:`SeriesPoly.cauchy_mul`), and give the same bits as the full sums.

Coefficients are checked where they come in: the public constructor converts
each one to float and refuses NaN and infinities.  An operation's result is
computed from series that were already checked, so it is wrapped by
:func:`_trusted`, which only confirms in one pass that nothing overflowed.
"""

from __future__ import annotations

from math import copysign

from ._frozen import Frozen
from .errors import SeriesOverflowError, UsageError, check_finite, require_finite


class SeriesPoly(Frozen):
    """Immutable truncated power series; ``coeffs[k]`` multiplies ``t**k``."""

    __slots__ = ("coeffs",)

    def __post_init__(self):
        coeffs = tuple(map(float, self.coeffs))
        if not coeffs:
            raise UsageError("a series needs at least the degree-0 coefficient")
        try:
            check_finite(coeffs)
        except SeriesOverflowError as exc:  # the caller's value, not an overflow
            raise UsageError(f"coefficient {exc.index} is not finite: {exc.value!r}") from None
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def cap(self) -> int:
        """Highest retained degree (inclusive)."""
        return len(self.coeffs) - 1

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, cap: int) -> "SeriesPoly":
        if cap < 0:
            raise UsageError("cap must be >= 0")
        return cls((0.0,) * (cap + 1))

    @classmethod
    def constant(cls, value: float, cap: int) -> "SeriesPoly":
        return cls.monomial(value, 0, cap)

    @classmethod
    def monomial(cls, value: float, degree: int, cap: int) -> "SeriesPoly":
        """Series with ``value`` at ``degree`` and zeros elsewhere."""
        if cap < 0:
            raise UsageError("cap must be >= 0")
        if not 0 <= degree <= cap:
            raise UsageError(f"monomial degree {degree} outside 0..{cap}")
        coeffs = [0.0] * (cap + 1)
        coeffs[degree] = require_finite(value, "value")
        return cls(tuple(coeffs))

    @classmethod
    def from_coeffs(cls, coeffs, cap: int | None = None) -> "SeriesPoly":
        """Build from a coefficient sequence, zero-padding up to ``cap``."""
        coeffs = list(coeffs)
        if cap is None:
            cap = len(coeffs) - 1
        if cap < len(coeffs) - 1:
            raise UsageError(f"cap {cap} smaller than highest given degree {len(coeffs) - 1}")
        coeffs.extend([0.0] * (cap + 1 - len(coeffs)))
        return cls(tuple(coeffs))

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "SeriesPoly") -> None:
        if self.cap != other.cap:
            raise UsageError(f"mixed caps: {self.cap} vs {other.cap}")

    def __add__(self, other: "SeriesPoly") -> "SeriesPoly":
        if not isinstance(other, SeriesPoly):
            return NotImplemented
        self._check_compatible(other)
        return _trusted(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "SeriesPoly") -> "SeriesPoly":
        if not isinstance(other, SeriesPoly):
            return NotImplemented
        self._check_compatible(other)
        return _trusted(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "SeriesPoly":
        return _trusted(tuple(-a for a in self.coeffs))

    def scale(self, factor: float) -> "SeriesPoly":
        factor = require_finite(factor, "factor")
        return _trusted(tuple(factor * a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, SeriesPoly):
            return self.cauchy_mul(other)
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def cauchy_mul(self, other: "SeriesPoly") -> "SeriesPoly":
        """Convolution product, truncated at the shared cap.

        ``result[k] = sum_r self[r] * other[k-r]``, summed left to right from
        0.0; degrees above the cap are dropped.  Each sum runs only over
        ``max(0, k - db) <= r <= min(k, da)``, with ``da`` and ``db`` the live
        degrees of ``self`` and ``other`` (see :func:`_live_degree`), and
        coefficients above ``da + db`` are +0.0.  That is bit for bit the
        full sum: a skipped term is a trailing +0.0 times a finite
        coefficient, so it is +0.0 or -0.0, and a round-to-nearest sum that
        starts at +0.0 is never -0.0, so adding such a term changes no
        partial sum.
        """
        a, b = self.coeffs, other.coeffs
        if len(a) != len(b):
            self._check_compatible(other)
        last = len(a) - 1
        da = _live_degree(a)
        db = da if other is self else _live_degree(b)
        top = min(last, da + db)
        a, rb = a[: da + 1], b[db::-1]  # rb: other[db], other[db-1], ..., other[0]
        out = []
        for k in range(min(top, db) + 1):
            acc = 0.0
            for x, y in zip(a, rb[db - k:]):  # self[0] * other[k], ...
                acc += x * y
            out.append(acc)
        for k in range(db + 1, top + 1):
            acc = 0.0
            for x, y in zip(a[k - db:], rb):  # self[k-db] * other[db], ...
                acc += x * y
            out.append(acc)
        out += [0.0] * (last - top)
        return _trusted(tuple(out))

    def cube(self) -> "SeriesPoly":
        """Triple convolution ``self * self * self`` (truncated)."""
        return self.cauchy_mul(self).cauchy_mul(self)

    def derivative(self) -> "SeriesPoly":
        """Term-wise derivative; the top coefficient becomes zero."""
        a = self.coeffs
        out = [float(k + 1) * a[k + 1] for k in range(len(a) - 1)]
        out.append(0.0)
        return _trusted(tuple(out))

    def antiderivative(self) -> "SeriesPoly":
        """Term-wise antiderivative with zero constant term.

        The degree-cap coefficient of the input would shift past the cap and
        is discarded.
        """
        a = self.coeffs
        out = [0.0]
        for k in range(1, len(a)):
            out.append(a[k - 1] / k)
        return _trusted(tuple(out))

    def eval(self, t: float) -> float:
        """Horner evaluation of the truncated series at ``t``."""
        t = require_finite(t, "t")
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    __call__ = eval


def _live_degree(coeffs: tuple[float, ...]) -> int:
    """Highest index whose coefficient is not +0.0 (0 if there is none).

    Scans down from the top past the +0.0 coefficients.  A -0.0 has its sign
    bit set and counts as live, so that a VIM step's working cap keeps it
    where the dense step would have carried it.
    """
    d = len(coeffs) - 1
    while d and not coeffs[d] and copysign(1.0, coeffs[d]) > 0.0:
        d -= 1
    return d


def _trusted(coeffs: tuple[float, ...]) -> SeriesPoly:
    """Wrap a non-empty tuple of floats computed from already checked series.

    Skips the public constructor and its per-coefficient conversion and
    check; :func:`errors.check_finite` confirms in one pass that nothing
    overflowed, or raises :class:`SeriesOverflowError` naming the first
    non-finite coefficient.
    """
    check_finite(coeffs)
    series = object.__new__(SeriesPoly)
    object.__setattr__(series, "coeffs", coeffs)
    return series
