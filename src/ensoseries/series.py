"""Dense truncated power series about t = 0.

A :class:`SeriesPoly` stores the coefficients of ``sum_k coeffs[k] * t**k``
for ``k = 0..cap`` as a plain tuple of floats, with explicit zeros for absent
degrees.  Every operation is pure and returns a new series truncated at the
same cap; degrees above the cap are silently discarded, mirroring how a
finite Taylor section behaves.  The solvers' caps stay small (64 for VIM by
default, ``errors.MAX_ORDER + 1`` at most), so the quadratic-cost convolution
product is entirely adequate.  A product skips the zero tails of its
operands: its sums run only over the terms below both operands' live degrees
(see :func:`_product`), and give the same bits as the full sums.
Where four sums start at the same term, one loop feeds all four, each in
its own order, so the bits are those of one sum at a time.  Each step of
that loop reads one new coefficient of the second operand and slides the
three it read before down a window of locals.  No sum uses ``sum``,
``math.fsum`` or ``math.sumprod``, which round otherwise from 3.12.
:func:`_product` and :func:`_cube` work on plain coefficient tuples, so
:mod:`vim` steps call them without building a series per product;
:meth:`SeriesPoly.cauchy_mul` and :meth:`SeriesPoly.cube` run the same
kernels.

Coefficients are checked where they come in: the public constructor converts
each one to float and refuses NaN and infinities.  An operation's result is
computed from series that were already checked, so it is wrapped by
:func:`_trusted`, which only confirms in one pass that nothing overflowed;
both run the solvers' guard, :func:`errors.check_coeffs`, at ``FINITE_LIMIT``.
:func:`_wrap` wraps a tuple that its caller has checked already.
"""

from __future__ import annotations

from math import copysign

from ._frozen import Frozen
from .errors import FINITE_LIMIT, SeriesOverflowError, UsageError, check_coeffs, require_finite


class SeriesPoly(Frozen):
    """Immutable truncated power series; ``coeffs[k]`` multiplies ``t**k``."""

    __slots__ = ("coeffs",)

    def __post_init__(self):
        coeffs = tuple(map(float, self.coeffs))
        if not coeffs:
            raise UsageError("a series needs at least the degree-0 coefficient")
        try:
            check_coeffs(coeffs, FINITE_LIMIT)
        except SeriesOverflowError as exc:  # the caller's value, not an overflow
            raise UsageError(f"coefficient {exc.index} is not finite: {exc.value!r}") from None
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def cap(self) -> int:
        """Highest retained degree (inclusive)."""
        return len(self.coeffs) - 1

    # -- constructors -------------------------------------------------

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
        0.0 over the terms below both operands' live degrees only, which is
        bit for bit the full sum (see :func:`_product`).
        """
        self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        return _trusted(_product(a, b, _live_degree(a), _live_degree(b)))

    def cube(self) -> "SeriesPoly":
        """Triple convolution ``self * self * self`` (truncated); see :func:`_cube`."""
        return _wrap(_cube(self.coeffs, _live_degree(self.coeffs)))

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


def _product(a: tuple[float, ...], b: tuple[float, ...], da: int, db: int) -> tuple[float, ...]:
    """Convolution product of two coefficient tuples of one length, truncated at their cap.

    ``result[k] = sum_r a[r] * b[k-r]``, summed left to right from 0.0;
    degrees above the cap are dropped.  Each sum runs only over
    ``max(0, k - db) <= r <= min(k, da)``, and coefficients above ``da + db``
    are +0.0.  ``da`` and ``db`` are the caller's live degrees of ``a`` and
    ``b`` (see :func:`_live_degree`), or any larger index up to the cap.
    That is bit for bit the full sum: a skipped term is a trailing +0.0 times
    a finite coefficient, so it is +0.0 or -0.0, and a round-to-nearest sum
    that starts at +0.0 is never -0.0, so adding such a term changes no
    partial sum.

    While ``k + 3 <= min(top, da, db)`` (``top = min(cap, da + db)``), the
    sums of coefficients k..k+3 all start at r = 0: one sweep over
    ``a[0..k]`` feeds all four.  Step r reads one new value, ``b[k-r]``;
    the three others, ``b[k+1-r]`` to ``b[k+3-r]``, are the window of the
    step before, moved down one place (seeded with ``b[k+1..k+3]``).  Then
    the terms with r > k follow in ascending r (``a[k+1]*b[0]`` to k+1,
    ``a[k+1]*b[1]`` and ``a[k+2]*b[0]`` to k+2, ``a[k+1]*b[2]``,
    ``a[k+2]*b[1]`` and ``a[k+3]*b[0]`` to k+3).
    Each sum keeps its terms, their order and its +0.0 start, so the bits
    are those of one coefficient per sweep.  The result is not checked.
    """
    last = len(a) - 1
    top = min(last, da + db)
    a, rb = a[: da + 1], b[db::-1]  # rb: b[db], b[db-1], ..., b[0]
    out = []
    blocked = min(top, da, db) - 2  # out[k..k+3] share r = 0..k while k + 3 <= min(top, da, db)
    if blocked > 0:
        b0, b1, b2 = b[0], b[1], b[2]
    for k in range(0, blocked, 4):
        s0 = s1 = s2 = s3 = 0.0
        y1, y2, y3 = b[k + 1], b[k + 2], b[k + 3]  # b[k+1-r], b[k+2-r], b[k+3-r] at r = 0
        for x, y0 in zip(a, rb[db - k:]):  # a[r], b[k-r] for r = 0..k
            s0 += x * y0
            s1 += x * y1
            s2 += x * y2
            s3 += x * y3
            y1, y2, y3 = y0, y1, y2
        a1, a2 = a[k + 1], a[k + 2]
        out += (s0, s1 + a1 * b0, s2 + a1 * b1 + a2 * b0, s3 + a1 * b2 + a2 * b1 + a[k + 3] * b0)
    for k in range(len(out), min(top, db) + 1):
        acc = 0.0
        for x, y in zip(a, rb[db - k:]):  # a[0] * b[k], ...
            acc += x * y
        out.append(acc)
    for k in range(db + 1, top + 1):
        acc = 0.0
        for x, y in zip(a[k - db:], rb):  # a[k-db] * b[db], ...
            acc += x * y
        out.append(acc)
    out += [0.0] * (last - top)
    return tuple(out)


def _cube(H: tuple[float, ...], d: int) -> tuple[float, ...]:
    """The checked coefficients of ``H * H * H`` for finite ``H``, truncated at its cap.

    Bit for bit the two products ``cauchy_mul`` would chain: ``d`` is the
    caller's live degree of ``H``, or any larger index up to its cap, and the
    square's live degree is at most ``2*d``.  The square is checked before it
    is multiplied by ``H``, as that chain checks it, so an overflow names the
    same index.
    """
    S = check_coeffs(_product(H, H, d, d), FINITE_LIMIT)
    return check_coeffs(_product(S, H, min(len(H) - 1, 2 * d), d), FINITE_LIMIT)


def _wrap(coeffs: tuple[float, ...]) -> SeriesPoly:
    """Wrap a non-empty tuple of already checked floats, skipping the public constructor."""
    series = object.__new__(SeriesPoly)
    object.__setattr__(series, "coeffs", coeffs)
    return series


def _trusted(coeffs: tuple[float, ...]) -> SeriesPoly:
    """Wrap a non-empty tuple of floats computed from already checked series.

    Skips the public constructor and its per-coefficient conversion and
    check; :func:`errors.check_coeffs` at ``FINITE_LIMIT`` confirms in one
    pass that nothing overflowed, or raises :class:`SeriesOverflowError`
    naming the first non-finite coefficient.
    """
    return _wrap(check_coeffs(coeffs, FINITE_LIMIT))
