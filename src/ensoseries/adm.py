"""Adomian decomposition: solution components built by repeated integration.

The solution is written as a sum of components ``u_0 + u_1 + ...`` with
``u_0`` the constant initial value.  Each subsequent component integrates the
previous one through the model's right-hand side, with the cubic nonlinearity
entering through its Adomian polynomials ``A_k``.  For a pure power
nonlinearity the classic derivative definition

    A_k = (1/k!) d^k/dL^k (sum_i L**i u_i)**3  at L = 0

collapses to a convolution over component indices,

    A_k = sum_{i+j+l=k} u_i * u_j * u_l.

Because ``u_0`` is constant and each turn integrates once, component k is a
single monomial ``u_k * t**k``.  ``A_k`` is then a monomial of degree k too,
its weight the scalar convolution above over the component weights, which is
the degree-k coefficient of ``H**3``; integrating divides by k+1.  That is
the differential-transform recurrence term for term, so the component
weights are the Taylor coefficients :mod:`dtm` computes, each step from the
coefficients before it, and the solver takes them from there.  The tests
keep the dense form over :class:`SeriesPoly` components, and a plain scalar
triple sum, as oracles independent of that recurrence.
"""

from __future__ import annotations

from ._frozen import Frozen
from .dtm import transform_coupled, transform_delayed
from .errors import UsageError, check_count
from .models import CoupledParams, DelayedParams, SolutionPair
from .series import SeriesPoly, _trusted


class AdmState(Frozen):
    """Component weights: component k of H is ``u_weights[k] * t**k``, likewise for h.

    ``v_weights`` is None for the scalar model.  Components and partial sums
    are dense series up to degree ``n_terms``.
    """

    __slots__ = ("u_weights", "v_weights")

    def __post_init__(self):
        if self.v_weights is not None and len(self.v_weights) != self.n_terms:
            raise UsageError("u and v component counts must match")

    @property
    def n_terms(self) -> int:
        return len(self.u_weights)

    @property
    def u_components(self) -> tuple[SeriesPoly, ...]:
        return tuple(SeriesPoly.monomial(w, k, self.n_terms) for k, w in enumerate(self.u_weights))

    @property
    def v_components(self) -> tuple[SeriesPoly, ...] | None:
        if self.v_weights is None:
            return None
        return tuple(SeriesPoly.monomial(w, k, self.n_terms) for k, w in enumerate(self.v_weights))

    def solution(self, n: int | None = None) -> SolutionPair | SeriesPoly:
        """Partial sum of the first ``n`` components (all of them by default), dense to degree ``n``.

        Weights never change as more components are computed, so one solve
        yields every shorter partial sum.
        """
        if n is None:
            n = self.n_terms
        elif not 1 <= n <= self.n_terms:
            raise UsageError(f"need 1 <= n <= {self.n_terms}, got {n}")
        H = _trusted(self.u_weights[:n] + (0.0,))
        if self.v_weights is None:
            return H
        return SolutionPair(H, _trusted(self.v_weights[:n] + (0.0,)))


def adm_solve_coupled(p: CoupledParams, n_terms: int) -> AdmState:
    """Compute ``n_terms`` components (at most ``MAX_ORDER + 1``) for each of H and h.

    Recursion: ``u_{k+1} = integral(c*u_k + eta*v_k - eps*A_k)`` and
    ``v_{k+1} = integral(-theta*u_k - gamma*v_k)``, starting from the constant
    initial values.  The weights are the Taylor coefficients of
    :func:`dtm.transform_coupled` at order ``n_terms - 1``.
    """
    check_count(n_terms, "n_terms")
    r = transform_coupled(p, n_terms - 1)
    return AdmState(r.W, r.V)


def adm_solve_delayed(p: DelayedParams, n_terms: int) -> AdmState:
    """Compute ``n_terms`` components (at most ``MAX_ORDER + 1``) for the scalar delayed model.

    The weights are the Taylor coefficients of :func:`dtm.transform_delayed`.
    """
    check_count(n_terms, "n_terms")
    return AdmState(transform_delayed(p, n_terms - 1).W, None)
