"""Differential transform solver: algebraic recurrences on Taylor coefficients.

Transforming either model turns it into a one-step recurrence on the
coefficients ``W(k)`` (and ``V(k)`` for the coupled system) of the solution
series about t = 0:

    coupled:  W(k+1) = (c*W(k) + eta*V(k) - eps*N(k)) / (k+1)
              V(k+1) = (-theta*W(k) - gamma*V(k)) / (k+1)
    delayed:  W(k+1) = (a*W(k) - b*N(k)) / (k+1)

where ``N(k)`` is the degree-k coefficient of ``H**3``.  ``N(k)`` only ever
involves ``W(0..k)``, so it is accumulated incrementally from a running cache
of the square's coefficients: two nested convolutions, O(K^2) work overall
instead of re-cubing the series at every step.

``N(k)`` is also the weight of the k-th Adomian polynomial of the cube, so
this recurrence yields the Adomian decomposition's component weights as well:
:mod:`adm` takes them from here.  The independent checks of both are in the
tests (dense Adomian polynomials over series and a scalar triple sum).
"""

from __future__ import annotations

from ._frozen import Frozen
from .errors import COEFF_LIMIT, MAX_ORDER, UsageError, check_coeffs, check_count
from .models import CoupledParams, DelayedParams, SolutionPair, reduced_delayed_coeffs
from .series import SeriesPoly, _trusted


class DtmResult(Frozen):
    """Transformed coefficients of orders 0..order: W for H, V for h (None for the scalar model)."""

    __slots__ = ("W", "V", "order")

    def __post_init__(self):
        if self.order < 0:
            raise UsageError("order must be >= 0")
        if len(self.W) != self.order + 1:
            raise UsageError("W must hold order+1 coefficients")
        if self.V is not None and len(self.V) != self.order + 1:
            raise UsageError("V must hold order+1 coefficients")


class _CubeAccumulator:
    """Running degree-k coefficients of the cube of a growing coefficient list.

    ``push(w)`` folds one new coefficient into the square cache; ``nk(k)``
    then yields the cube's coefficient k.  Entries of the square cache at
    index m are final once coefficients 0..m have been pushed, which is all
    ``nk(k)`` for k <= m ever reads.
    """

    def __init__(self, max_index: int):
        # square coefficients needed for cube indices 0..max_index
        self._square = [0.0] * (max_index + 1)
        self._coeffs: list[float] = []
        self._max = max_index

    def push(self, w: float) -> None:
        k = len(self._coeffs)
        sq = self._square
        coeffs = self._coeffs
        lim = self._max - k
        if lim >= 0:
            for j in range(min(k, lim + 1)):
                sq[k + j] += 2.0 * w * coeffs[j]
            if k <= lim:
                sq[2 * k] += w * w
        coeffs.append(w)

    def nk(self, k: int) -> float:
        coeffs = self._coeffs
        sq = self._square
        acc = 0.0
        for l in range(k + 1):
            acc += coeffs[l] * sq[k - l]
        return acc


def transform_coupled(p: CoupledParams, order: int) -> DtmResult:
    """Run the coupled recurrence up to the given truncation order (at most ``MAX_ORDER``)."""
    check_count(order, "order", 0, MAX_ORDER)
    W = [p.H0]
    V = [p.h0]
    cube = _CubeAccumulator(max(order - 1, 0))
    for k in range(order):
        wk = W[k]
        cube.push(wk)
        nk = cube.nk(k)
        w = (p.c * wk + p.eta * V[k] - p.eps * nk) / (k + 1)
        v = (-p.theta * wk - p.gamma * V[k]) / (k + 1)
        W.append(w)
        V.append(v)
        if not (-COEFF_LIMIT <= w <= COEFF_LIMIT and -COEFF_LIMIT <= v <= COEFF_LIMIT):
            break  # check_coeffs below names index k+1
    return DtmResult(check_coeffs(tuple(W)), check_coeffs(tuple(V)), order)


def transform_delayed(p: DelayedParams, order: int) -> DtmResult:
    """Run the scalar delayed-model recurrence up to the given order (at most ``MAX_ORDER``)."""
    check_count(order, "order", 0, MAX_ORDER)
    a, b = reduced_delayed_coeffs(p)
    W = [p.H0]
    cube = _CubeAccumulator(max(order - 1, 0))
    for k in range(order):
        wk = W[k]
        cube.push(wk)
        nk = cube.nk(k)
        w = (a * wk - b * nk) / (k + 1)
        W.append(w)
        if not -COEFF_LIMIT <= w <= COEFF_LIMIT:
            break  # check_coeffs below names index k+1
    return DtmResult(check_coeffs(tuple(W)), None, order)


def assemble(result: DtmResult, n: int | None = None) -> SolutionPair | SeriesPoly:
    """Turn the transformed coefficients of orders ``0..n`` into series about t = 0.

    ``n`` defaults to the result's order.  Raising the order leaves lower
    coefficients bit-for-bit unchanged, so each lower ``n`` is the solve at
    that order.  Returns a :class:`SolutionPair` for the coupled model, a
    single :class:`SeriesPoly` for the scalar one.  The transforms have
    checked the coefficients already; a hand-built result still gets the
    one-pass finiteness check.
    """
    if n is None:
        n = result.order
    elif not 0 <= n <= result.order:
        raise UsageError(f"need 0 <= n <= {result.order}, got {n}")
    H = _trusted(tuple(result.W[: n + 1]))
    if result.V is None:
        return H
    return SolutionPair(H, _trusted(tuple(result.V[: n + 1])))


def solve_coupled(p: CoupledParams, order: int) -> SolutionPair:
    """Transform and assemble in one call."""
    pair = assemble(transform_coupled(p, order))
    assert isinstance(pair, SolutionPair)
    return pair


def solve_delayed(p: DelayedParams, order: int) -> SeriesPoly:
    """Transform and assemble in one call."""
    series = assemble(transform_delayed(p, order))
    assert isinstance(series, SeriesPoly)
    return series
