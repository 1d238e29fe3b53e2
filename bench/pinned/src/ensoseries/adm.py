"""Adomian decomposition: solution components built by repeated integration.

The solution is written as a sum of components ``u_0 + u_1 + ...`` with
``u_0`` the constant initial value.  Each subsequent component integrates the
previous one through the model's right-hand side, with the cubic nonlinearity
entering through its Adomian polynomials ``A_k``.  For a pure power
nonlinearity the classic derivative definition

    A_k = (1/k!) d^k/dL^k (sum_i L**i u_i)**3  at L = 0

collapses to a convolution over component indices,

    A_k = sum_{i+j+l=k} u_i * u_j * u_l,

which is what is computed here; no symbolic machinery is needed.  The
derivative form is kept above as the cross-check oracle used by the tests.

Because ``u_0`` is constant, component k comes out as a single monomial in t,
and the partial sums coincide with the differential-transform series; the
tests pin that equivalence down.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SeriesOverflowError, UsageError
from .models import CoupledParams, DelayedParams, SolutionPair, reduced_delayed_coeffs
from .series import SeriesPoly

_OFF_DEGREE_TOL = 1e-14


@dataclass(frozen=True)
class AdmState:
    """Computed solution components; ``v_components`` is None for the scalar model."""

    u_components: tuple[SeriesPoly, ...]
    v_components: tuple[SeriesPoly, ...] | None
    n_terms: int

    def __post_init__(self):
        if self.n_terms != len(self.u_components):
            raise UsageError("n_terms must match the component count")
        if self.v_components is not None and len(self.v_components) != self.n_terms:
            raise UsageError("u and v component counts must match")
        # component k cannot reach above degree k when the first one is constant
        groups = (self.u_components,) if self.v_components is None else (self.u_components, self.v_components)
        for comps in groups:
            for k, comp in enumerate(comps):
                for c in comp.coeffs[k + 1 :]:
                    if abs(c) > _OFF_DEGREE_TOL:
                        raise UsageError(f"component {k} has weight above degree {k}")

    def solution(self) -> SolutionPair | SeriesPoly:
        """Partial sum of all computed components."""
        H = self.u_components[0]
        for comp in self.u_components[1:]:
            H = H + comp
        if self.v_components is None:
            return H
        h = self.v_components[0]
        for comp in self.v_components[1:]:
            h = h + comp
        return SolutionPair(H, h)


def adomian_cubic(components: tuple[SeriesPoly, ...] | list[SeriesPoly], k: int) -> SeriesPoly:
    """k-th Adomian polynomial of the cube nonlinearity.

    ``A_k = sum_{i+j+l=k} u_i * u_j * u_l`` over the given components.
    """
    if k < 0:
        raise UsageError("k must be >= 0")
    if k >= len(components):
        raise UsageError(f"A_{k} needs components 0..{k}, got {len(components)}")
    acc = SeriesPoly.zero(components[0].cap, components[0].t0)
    for i in range(k + 1):
        # pairwise convolution over component index at i, then close with u_l
        pair = SeriesPoly.zero(components[0].cap, components[0].t0)
        for j in range(k - i + 1):
            pair = pair + components[j].cauchy_mul(components[k - i - j])
        acc = acc + components[i].cauchy_mul(pair)
    return acc


class _AdomianAccumulator:
    """Incremental ``A_k`` via a running component-index square cache.

    Mirrors :func:`adomian_cubic` but folds each new component into the
    pairwise cache once, so a full n-component solve costs O(n^2) series
    products instead of O(n^3).
    """

    def __init__(self, max_index: int, cap: int):
        self._pairs = [SeriesPoly.zero(cap) for _ in range(max_index + 1)]
        self._comps: list[SeriesPoly] = []
        self._max = max_index

    def push(self, comp: SeriesPoly) -> None:
        k = len(self._comps)
        lim = self._max - k
        if lim >= 0:
            for j in range(min(k, lim + 1)):
                self._pairs[k + j] = self._pairs[k + j] + comp.cauchy_mul(self._comps[j]).scale(2.0)
            if k <= lim:
                self._pairs[2 * k] = self._pairs[2 * k] + comp.cauchy_mul(comp)
        self._comps.append(comp)

    def ak(self, k: int) -> SeriesPoly:
        acc = SeriesPoly.zero(self._comps[0].cap)
        for l in range(k + 1):
            acc = acc + self._comps[l].cauchy_mul(self._pairs[k - l])
        return acc


def _check_component(comp: SeriesPoly, index: int) -> SeriesPoly:
    from .dtm import COEFF_LIMIT

    for c in comp.coeffs:
        if abs(c) > COEFF_LIMIT:
            raise SeriesOverflowError(index, c, what="component")
    return comp


def adm_solve_coupled(p: CoupledParams, n_terms: int, cap: int) -> AdmState:
    """Compute ``n_terms`` components for each of H and h.

    Recursion: ``u_{k+1} = integral(c*u_k + eta*v_k - eps*A_k)`` and
    ``v_{k+1} = integral(-theta*u_k - gamma*v_k)``, starting from the constant
    initial values.
    """
    _check_solve_args(n_terms, cap)
    u = [SeriesPoly.constant(p.H0, cap)]
    v = [SeriesPoly.constant(p.h0, cap)]
    acc = _AdomianAccumulator(max(n_terms - 2, 0), cap)
    for k in range(n_terms - 1):
        acc.push(u[k])
        a_k = acc.ak(k)
        integrand_u = u[k].scale(p.c) + v[k].scale(p.eta) - a_k.scale(p.eps)
        integrand_v = u[k].scale(-p.theta) + v[k].scale(-p.gamma)
        u.append(_check_component(integrand_u.antiderivative(), k + 1))
        v.append(_check_component(integrand_v.antiderivative(), k + 1))
    return AdmState(tuple(u), tuple(v), n_terms)


def adm_solve_delayed(p: DelayedParams, n_terms: int, cap: int) -> AdmState:
    """Compute ``n_terms`` components for the scalar delayed model."""
    _check_solve_args(n_terms, cap)
    a, b = reduced_delayed_coeffs(p)
    u = [SeriesPoly.constant(p.H0, cap)]
    acc = _AdomianAccumulator(max(n_terms - 2, 0), cap)
    for k in range(n_terms - 1):
        acc.push(u[k])
        a_k = acc.ak(k)
        u.append(_check_component((u[k].scale(a) - a_k.scale(b)).antiderivative(), k + 1))
    return AdmState(tuple(u), None, n_terms)


def _check_solve_args(n_terms: int, cap: int) -> None:
    if n_terms < 1:
        raise UsageError("need at least one component")
    if cap < n_terms:
        raise UsageError(f"cap {cap} too small for {n_terms} components")
