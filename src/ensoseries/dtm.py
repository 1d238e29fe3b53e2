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
overall instead of re-cubing the series at every step.  A step reads only
the coefficients before it, so raising the order leaves the lower ones bit
for bit: the solve at order n is the first n + 1 coefficients of any longer
solve.

Each recurrence runs once, in :func:`_taylor_coupled` or
:func:`_taylor_delayed`, on plain numbers (floats, ``Fraction``, ``Decimal``).
The ``solve_*`` functions add the float boundary: the count check before any
work, the coefficient guard and the wrap.

``N(k)`` is also the weight of the k-th Adomian polynomial of the cube, so
this recurrence yields the Adomian decomposition's component weights as well:
:mod:`adm` takes them from here.  The independent checks of both are in the
tests (dense Adomian polynomials over series and a scalar triple sum).
"""

from __future__ import annotations

from .errors import COEFF_LIMIT, check_coeffs, check_count
from .models import CoupledParams, DelayedParams, SolutionPair, reduced_delayed_coeffs
from .series import SeriesPoly, _wrap


def _cube_coeff(W: list, S: list):
    """Coefficient k of ``H**3``, where k = ``len(S)``; appends the square's coefficient k to ``S``.

    ``S`` holds the square's coefficients 0..k-1 from the earlier calls, and
    only ``W[0..k]`` is read.  The summation order is fixed, and a test pins
    its bits: the square's middle term first, then its doubled pairs in
    ascending j.  It holds no float literal: on floats ``W[j] + W[j]`` is
    exactly ``2.0 * W[j]``, and a sum from ``0`` has the bits of one from ``0.0``.
    """
    k = len(S)
    h = k // 2
    sq = W[h] * W[h] if k % 2 == 0 else 0
    for j in range(h + 1, k + 1):
        sq += (W[j] + W[j]) * W[k - j]
    S.append(sq)
    nk = 0
    for l in range(k + 1):
        nk += W[l] * S[k - l]
    return nk


def _taylor_coupled(H0, h0, c, eta, eps, theta, gamma, order: int) -> tuple[list, list]:
    """W and V to ``order`` in the arguments' arithmetic, ending after the first coefficient beyond ``COEFF_LIMIT``."""
    W, V, S = [H0], [h0], []  # S: the square's coefficients
    for k in range(order):
        wk, vk = W[k], V[k]
        w = (c * wk + eta * vk - eps * _cube_coeff(W, S)) / (k + 1)
        v = (-theta * wk - gamma * vk) / (k + 1)
        W.append(w)
        V.append(v)
        if not (-COEFF_LIMIT <= w <= COEFF_LIMIT and -COEFF_LIMIT <= v <= COEFF_LIMIT):
            break
    return W, V


def _taylor_delayed(H0, a, b, order: int) -> list:
    """W to ``order`` from the reduced ``a`` and ``b``, ending as :func:`_taylor_coupled` does."""
    W, S = [H0], []  # S: the square's coefficients
    for k in range(order):
        w = (a * W[k] - b * _cube_coeff(W, S)) / (k + 1)
        W.append(w)
        if not -COEFF_LIMIT <= w <= COEFF_LIMIT:
            break
    return W


def solve_coupled(p: CoupledParams, order: int) -> SolutionPair:
    """The series of H and h to the given truncation order (at most ``MAX_ORDER``)."""
    order = check_count(order, "order")
    W, V = _taylor_coupled(p.H0, p.h0, p.c, p.eta, p.eps, p.theta, p.gamma, order)
    return SolutionPair(_wrap(check_coeffs(tuple(W))), _wrap(check_coeffs(tuple(V))))


def solve_delayed(p: DelayedParams, order: int) -> SeriesPoly:
    """The series of H for the scalar delayed model to the given order (at most ``MAX_ORDER``)."""
    order = check_count(order, "order")
    a, b = reduced_delayed_coeffs(p)
    return _wrap(check_coeffs(tuple(_taylor_delayed(p.H0, a, b, order))))
