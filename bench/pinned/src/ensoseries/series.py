"""Dense truncated power series about a fixed expansion point.

A :class:`SeriesPoly` stores the coefficients of
``sum_k coeffs[k] * (t - t0)**k`` for ``k = 0..cap`` as a plain tuple of
floats, with explicit zeros for absent degrees.  Every operation is pure and
returns a new series truncated at the same cap; degrees above the cap are
silently discarded, mirroring how a finite Taylor section behaves.  Caps in
this package stay small (<= 64), so the quadratic-cost convolution product is
entirely adequate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError


def _require_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise UsageError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SeriesPoly:
    """Immutable truncated power series; ``coeffs[k]`` multiplies ``(t - t0)**k``."""

    coeffs: tuple[float, ...]
    t0: float = 0.0

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise UsageError("a series needs at least the degree-0 coefficient")
        for k, c in enumerate(coeffs):
            if not math.isfinite(c):
                raise UsageError(f"coefficient {k} is not finite: {c!r}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "t0", _require_finite(self.t0, "t0"))

    @property
    def cap(self) -> int:
        """Highest retained degree (inclusive)."""
        return len(self.coeffs) - 1

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, cap: int, t0: float = 0.0) -> "SeriesPoly":
        if cap < 0:
            raise UsageError("cap must be >= 0")
        return cls((0.0,) * (cap + 1), t0)

    @classmethod
    def constant(cls, value: float, cap: int, t0: float = 0.0) -> "SeriesPoly":
        return cls.monomial(value, 0, cap, t0)

    @classmethod
    def monomial(cls, value: float, degree: int, cap: int, t0: float = 0.0) -> "SeriesPoly":
        """Series with ``value`` at ``degree`` and zeros elsewhere."""
        if cap < 0:
            raise UsageError("cap must be >= 0")
        if not 0 <= degree <= cap:
            raise UsageError(f"monomial degree {degree} outside 0..{cap}")
        coeffs = [0.0] * (cap + 1)
        coeffs[degree] = _require_finite(value, "value")
        return cls(tuple(coeffs), t0)

    @classmethod
    def from_coeffs(cls, coeffs, cap: int | None = None, t0: float = 0.0) -> "SeriesPoly":
        """Build from a coefficient sequence, zero-padding up to ``cap``."""
        coeffs = list(coeffs)
        if cap is None:
            cap = len(coeffs) - 1
        if cap < len(coeffs) - 1:
            raise UsageError(f"cap {cap} smaller than highest given degree {len(coeffs) - 1}")
        coeffs.extend([0.0] * (cap + 1 - len(coeffs)))
        return cls(tuple(coeffs), t0)

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "SeriesPoly") -> None:
        if self.t0 != other.t0:
            raise UsageError(f"mixed expansion points: {self.t0} vs {other.t0}")
        if self.cap != other.cap:
            raise UsageError(f"mixed caps: {self.cap} vs {other.cap}")

    def __add__(self, other: "SeriesPoly") -> "SeriesPoly":
        if not isinstance(other, SeriesPoly):
            return NotImplemented
        self._check_compatible(other)
        return SeriesPoly(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.t0)

    def __sub__(self, other: "SeriesPoly") -> "SeriesPoly":
        if not isinstance(other, SeriesPoly):
            return NotImplemented
        self._check_compatible(other)
        return SeriesPoly(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.t0)

    def __neg__(self) -> "SeriesPoly":
        return SeriesPoly(tuple(-a for a in self.coeffs), self.t0)

    def scale(self, factor: float) -> "SeriesPoly":
        factor = _require_finite(factor, "factor")
        return SeriesPoly(tuple(factor * a for a in self.coeffs), self.t0)

    def __mul__(self, other):
        if isinstance(other, SeriesPoly):
            return self.cauchy_mul(other)
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def cauchy_mul(self, other: "SeriesPoly") -> "SeriesPoly":
        """Convolution product, truncated at the shared cap.

        ``result[k] = sum_{r=0..k} self[r] * other[k-r]``; degrees above the
        cap are dropped.
        """
        self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(len(a)):
            acc = 0.0
            for r in range(k + 1):
                acc += a[r] * b[k - r]
            out.append(acc)
        return SeriesPoly(tuple(out), self.t0)

    def cube(self) -> "SeriesPoly":
        """Triple convolution ``self * self * self`` (truncated)."""
        return self.cauchy_mul(self).cauchy_mul(self)

    def derivative(self) -> "SeriesPoly":
        """Term-wise derivative; the top coefficient becomes zero."""
        a = self.coeffs
        out = [float(k + 1) * a[k + 1] for k in range(len(a) - 1)]
        out.append(0.0)
        return SeriesPoly(tuple(out), self.t0)

    def antiderivative(self) -> "SeriesPoly":
        """Term-wise antiderivative with zero constant term.

        The degree-cap coefficient of the input would shift past the cap and
        is discarded.
        """
        a = self.coeffs
        out = [0.0]
        for k in range(1, len(a)):
            out.append(a[k - 1] / k)
        return SeriesPoly(tuple(out), self.t0)

    def eval(self, t: float) -> float:
        """Horner evaluation of the truncated series at ``t``."""
        t = _require_finite(t, "t")
        x = t - self.t0
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = eval
