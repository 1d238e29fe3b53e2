"""Variational iteration with the first-order multiplier fixed at -1.

Each step applies the correction functional

    H_{n+1}(t) = H_n(t) - integral_0^t [ residual of H_n ](s) ds

to the current polynomial iterate (and likewise for h in the coupled model).
With multiplier -1 on a first-order equation this is Picard iteration, so the
n-th iterate reproduces the true Taylor coefficients through degree n
exactly; everything above is transient and gets squeezed out by later steps.

Cubing triples the polynomial degree per step, so iterates are truncated at a
fixed degree cap (default 64).  The truncation only touches degrees above the
cap and therefore never disturbs the order-n agreement for n below it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SeriesOverflowError, UsageError
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


def _checked(series: SeriesPoly) -> SeriesPoly:
    from .dtm import COEFF_LIMIT

    for k, c in enumerate(series.coeffs):
        if abs(c) > COEFF_LIMIT:
            raise SeriesOverflowError(k, c)
    return series


def vim_step_coupled(state: VimState, p: CoupledParams) -> VimState:
    """One correction step of the coupled system."""
    if state.h_iter is None:
        raise UsageError("coupled step needs an h iterate")
    H, h = state.H_iter, state.h_iter
    res_H = H.derivative() - H.scale(p.c) - h.scale(p.eta) + H.cube().scale(p.eps)
    res_h = h.derivative() + H.scale(p.theta) + h.scale(p.gamma)
    return VimState(
        _checked(H - res_H.antiderivative()),
        _checked(h - res_h.antiderivative()),
        state.iteration + 1,
    )


def vim_step_delayed(state: VimState, p: DelayedParams) -> VimState:
    """One correction step of the delayed model in normalized form."""
    a, b = reduced_delayed_coeffs(p)
    H = state.H_iter
    res = H.derivative() - H.scale(a) + H.cube().scale(b)
    return VimState(_checked(H - res.antiderivative()), None, state.iteration + 1)


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
