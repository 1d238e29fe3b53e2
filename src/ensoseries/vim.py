"""Variational iteration with the first-order multiplier fixed at -1.

Each step applies the correction functional

    H_{n+1}(t) = H_n(t) - integral_0^t [ residual of H_n ](s) ds

to the current polynomial iterate (and likewise for h in the coupled model).
With multiplier -1 on a first-order equation this is Picard iteration, so the
n-th iterate reproduces the true Taylor coefficients through degree n
exactly; everything above is transient and gets squeezed out by later steps.

Cubing triples the polynomial degree per step, so iterates are truncated at a
fixed degree cap (default 64).  The truncation only touches degrees above the
cap and therefore never disturbs the order-n agreement for n below it.  Each
step works at the iterate's live degree below that cap: the first three
iterates stay below degree 14, so their products are not dense to degree 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError, check_coeffs
from .models import CoupledParams, DelayedParams, SolutionPair, reduced_delayed_coeffs
from .series import SeriesPoly

DEFAULT_DEGREE_CAP = 64


@dataclass(frozen=True)
class VimState:
    """Current iterate: H (and h for the coupled model) plus the step count."""

    H_iter: SeriesPoly
    h_iter: SeriesPoly | None
    iteration: int

    def __post_init__(self):
        if self.iteration < 0:
            raise UsageError("iteration count cannot be negative")
        if self.h_iter is not None and (
            self.h_iter.cap != self.H_iter.cap or self.h_iter.t0 != self.H_iter.t0
        ):
            raise UsageError("H and h iterates must share cap and expansion point")

    @property
    def degree_cap(self) -> int:
        return self.H_iter.cap


def initial_state(params: CoupledParams | DelayedParams, degree_cap: int = DEFAULT_DEGREE_CAP) -> VimState:
    """Constant initial iterate(s); the natural starting point for Picard."""
    if degree_cap < 0:
        raise UsageError("degree_cap must be >= 0")
    H = SeriesPoly.constant(params.H0, degree_cap)
    if isinstance(params, CoupledParams):
        return VimState(H, SeriesPoly.constant(params.h0, degree_cap), 0)
    return VimState(H, None, 0)


def _live_degree(s: SeriesPoly) -> int:
    """Highest index whose coefficient is not +0.0 (0 if there is none).

    A -0.0 counts as live, so that the working cap keeps it where the dense
    step would have carried it.
    """
    c = s.coeffs
    d = len(c) - 1
    while d > 0 and c[d] == 0.0 and math.copysign(1.0, c[d]) > 0.0:
        d -= 1
    return d


def _truncated(s: SeriesPoly, m: int) -> SeriesPoly:
    return s if m == s.cap else SeriesPoly(s.coeffs[: m + 1], s.t0)


def _padded(s: SeriesPoly, cap: int) -> SeriesPoly:
    return s if cap == s.cap else SeriesPoly.from_coeffs(s.coeffs, cap, s.t0)


def vim_step_coupled(state: VimState, p: CoupledParams) -> VimState:
    """One correction step of the coupled system.

    The step runs at working cap ``m = max(3*deg(H), deg(h)) + 1`` (at most
    the degree cap) and is zero-padded back: no coefficient of the next
    iterate above m can be anything but +0.0, and coefficient k of every
    series op depends only on degrees up to k + 1, so this is bit-for-bit
    the step at the full cap.
    """
    if state.h_iter is None:
        raise UsageError("coupled step needs an h iterate")
    cap = state.degree_cap
    m = min(cap, max(3 * _live_degree(state.H_iter), _live_degree(state.h_iter)) + 1)
    H, h = _truncated(state.H_iter, m), _truncated(state.h_iter, m)
    res_H = H.derivative() - H.scale(p.c) - h.scale(p.eta) + H.cube().scale(p.eps)
    res_h = h.derivative() + H.scale(p.theta) + h.scale(p.gamma)
    H_next = H - res_H.antiderivative()
    h_next = h - res_h.antiderivative()
    check_coeffs(H_next.coeffs)
    check_coeffs(h_next.coeffs)
    return VimState(_padded(H_next, cap), _padded(h_next, cap), state.iteration + 1)


def vim_step_delayed(state: VimState, p: DelayedParams) -> VimState:
    """One correction step of the delayed model in normalized form.

    Runs at working cap ``m = 3*deg(H) + 1``, exactly as the coupled step.
    """
    a, b = reduced_delayed_coeffs(p)
    cap = state.degree_cap
    H = _truncated(state.H_iter, min(cap, 3 * _live_degree(state.H_iter) + 1))
    res = H.derivative() - H.scale(a) + H.cube().scale(b)
    H_next = H - res.antiderivative()
    check_coeffs(H_next.coeffs)
    return VimState(_padded(H_next, cap), None, state.iteration + 1)


def vim_solve(
    params: CoupledParams | DelayedParams,
    iterations: int,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> SolutionPair | SeriesPoly:
    """Apply ``iterations`` correction steps from the constant initial iterate."""
    if iterations < 0:
        raise UsageError("iterations must be >= 0")
    state = initial_state(params, degree_cap)
    if isinstance(params, CoupledParams):
        for _ in range(iterations):
            state = vim_step_coupled(state, params)
        assert state.h_iter is not None
        return SolutionPair(state.H_iter, state.h_iter)
    for _ in range(iterations):
        state = vim_step_delayed(state, params)
    return state.H_iter
