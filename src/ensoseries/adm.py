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
coefficients before it.  The tests keep the dense form over
:class:`SeriesPoly` components, and a plain scalar triple sum, as oracles
independent of that recurrence.  The sum of the first n components is
therefore the DTM series of order n - 1, and that is what the solvers return.
"""

from __future__ import annotations

from .dtm import solve_coupled, solve_delayed
from .errors import check_count
from .models import CoupledParams, DelayedParams, SolutionPair
from .series import SeriesPoly


def adm_solve_coupled(p: CoupledParams, n_terms: int) -> SolutionPair:
    """The sum of the first ``n_terms`` components (at most ``MAX_ORDER + 1``) for each of H and h.

    Recursion: ``u_{k+1} = integral(c*u_k + eta*v_k - eps*A_k)`` and
    ``v_{k+1} = integral(-theta*u_k - gamma*v_k)``, starting from the constant
    initial values.  The result is :func:`dtm.solve_coupled` at order ``n_terms - 1``.
    """
    return solve_coupled(p, check_count(n_terms, "n_terms") - 1)


def adm_solve_delayed(p: DelayedParams, n_terms: int) -> SeriesPoly:
    """The sum of the first ``n_terms`` components (at most ``MAX_ORDER + 1``) for the scalar delayed model.

    The result is :func:`dtm.solve_delayed` at order ``n_terms - 1``.
    """
    return solve_delayed(p, check_count(n_terms, "n_terms") - 1)
