"""Differential transform solver: algebraic recurrences on Taylor coefficients.

Transforming either model turns it into a one-step recurrence on the
coefficients ``W(k)`` (and ``V(k)`` for the coupled system) of the solution
series about t = 0:

    coupled:  W(k+1) = (c*W(k) + eta*V(k) - eps*N(k)) / (k+1)
              V(k+1) = (-theta*W(k) - gamma*V(k)) / (k+1)
    delayed:  W(k+1) = (a*W(k) - b*N(k)) / (k+1)

where ``N(k)`` is the degree-k coefficient of ``H**3``.  ``N(k)`` only ever
involves ``W(0..k)``, so each step computes it from the coefficients so far:
the square's coefficient k, then the product of ``W`` with the square's
coefficients 0..k.  That is two convolutions of length k, O(K^2) work
overall instead of re-cubing the series at every step.

``N(k)`` is also the weight of the k-th Adomian polynomial of the cube, so
this recurrence yields the Adomian decomposition's component weights as well:
:mod:`adm` takes them from here.  The independent checks of both are in the
tests (dense Adomian polynomials over series and a scalar triple sum).
"""

from __future__ import annotations

from ._frozen import Frozen
from .errors import COEFF_LIMIT, UsageError, check_coeffs, check_count
from .models import CoupledParams, DelayedParams, SolutionPair, reduced_delayed_coeffs
from .series import SeriesPoly, _trusted


class DtmResult(Frozen):
    """Transformed coefficients of orders 0..len(W)-1: W for H, V for h (None for the scalar model)."""

    __slots__ = ("W", "V")

    def __post_init__(self):
        if not self.W:
            raise UsageError("W must hold at least one coefficient")
        if self.V is not None and len(self.V) != len(self.W):
            raise UsageError("V must be as long as W")


def _cube_coeff(W: list[float], S: list[float]) -> float:
    """Coefficient k of ``H**3``, where k = ``len(S)``; appends the square's coefficient k to ``S``.

    ``S`` holds the square's coefficients 0..k-1 from the earlier calls, and
    only ``W[0..k]`` is read.  The summation order is fixed, and a test pins
    its bits: the square's middle term first, then its doubled pairs in
    ascending j.
    """
    k = len(S)
    h = k // 2
    sq = W[h] * W[h] if k % 2 == 0 else 0.0
    for j in range(h + 1, k + 1):
        sq += 2.0 * W[j] * W[k - j]
    S.append(sq)
    nk = 0.0
    for l in range(k + 1):
        nk += W[l] * S[k - l]
    return nk


def transform_coupled(p: CoupledParams, order: int) -> DtmResult:
    """Run the coupled recurrence up to the given truncation order (at most ``MAX_ORDER``)."""
    check_count(order, "order")
    c, eta, eps, theta, gamma = p.c, p.eta, p.eps, p.theta, p.gamma
    W = [p.H0]
    V = [p.h0]
    S: list[float] = []  # the square's coefficients
    for k in range(order):
        wk = W[k]
        nk = _cube_coeff(W, S)
        w = (c * wk + eta * V[k] - eps * nk) / (k + 1)
        v = (-theta * wk - gamma * V[k]) / (k + 1)
        W.append(w)
        V.append(v)
        if not (-COEFF_LIMIT <= w <= COEFF_LIMIT and -COEFF_LIMIT <= v <= COEFF_LIMIT):
            break  # check_coeffs below names index k+1
    return DtmResult(check_coeffs(tuple(W)), check_coeffs(tuple(V)))


def transform_delayed(p: DelayedParams, order: int) -> DtmResult:
    """Run the scalar delayed-model recurrence up to the given order (at most ``MAX_ORDER``)."""
    check_count(order, "order")
    a, b = reduced_delayed_coeffs(p)
    W = [p.H0]
    S: list[float] = []  # the square's coefficients
    for k in range(order):
        wk = W[k]
        nk = _cube_coeff(W, S)
        w = (a * wk - b * nk) / (k + 1)
        W.append(w)
        if not -COEFF_LIMIT <= w <= COEFF_LIMIT:
            break  # check_coeffs below names index k+1
    return DtmResult(check_coeffs(tuple(W)), None)


def assemble(result: DtmResult, n: int | None = None) -> SolutionPair | SeriesPoly:
    """Turn the transformed coefficients of orders ``0..n`` into series about t = 0.

    ``n`` defaults to the result's order.  Raising the order leaves lower
    coefficients bit-for-bit unchanged, so each lower ``n`` is the solve at
    that order.  Returns a :class:`SolutionPair` for the coupled model, a
    single :class:`SeriesPoly` for the scalar one.  The transforms have
    checked the coefficients already; a hand-built result still gets the
    one-pass finiteness check.
    """
    order = len(result.W) - 1
    if n is None:
        n = order
    elif not 0 <= n <= order:
        raise UsageError(f"need 0 <= n <= {order}, got {n}")
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
