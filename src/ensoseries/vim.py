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

from dataclasses import dataclass
from struct import pack

from .errors import UsageError, check_coeffs
from .models import CoupledParams, DelayedParams, SolutionPair, reduced_delayed_coeffs
from .series import SeriesPoly, _trusted

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
        if self.h_iter is not None and self.h_iter.cap != self.H_iter.cap:
            raise UsageError("H and h iterates must share their cap")

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


def _live_degree(coeffs: tuple[float, ...]) -> int:
    """Highest index whose coefficient is not +0.0 (0 if there is none).

    Only +0.0 packs to eight zero bytes, so stripping trailing zero bytes
    drops exactly the trailing +0.0 coefficients.  A -0.0 keeps its sign bit
    and counts as live, so that the working cap keeps it where the dense step
    would have carried it.
    """
    return max(0, (len(pack(f"<{len(coeffs)}d", *coeffs).rstrip(b"\0")) + 7) // 8 - 1)


def _padded(coeffs: list[float], cap: int) -> SeriesPoly:
    """The checked next iterate, zero-padded from the working cap to ``cap``."""
    check_coeffs(coeffs)
    coeffs += [0.0] * (cap + 1 - len(coeffs))
    return _trusted(tuple(coeffs))


def vim_step_coupled(state: VimState, p: CoupledParams) -> VimState:
    """One correction step of the coupled system.

    The step runs at working cap ``m = max(3*deg(H), deg(h)) + 1`` (at most
    the degree cap) and is zero-padded back: no coefficient of the next
    iterate above m can be anything but +0.0, and coefficient k of every
    series op depends only on degrees up to k + 1, so this is bit-for-bit
    the step at the full cap.  Coefficient k >= 1 of the next H is

        H[k] - (((k*H[k] - c*H[k-1]) - eta*h[k-1]) + eps*C[k-1]) / k

    with C the cube of H: the expression, in its order of operations, that
    ``H - (H' - c*H - eta*h + eps*H**3).antiderivative()`` evaluates with
    series operations.  Coefficient 0 is H[0] (H[0] - 0.0).  Likewise for h.
    """
    if state.h_iter is None:
        raise UsageError("coupled step needs an h iterate")
    cap = state.degree_cap
    H, h = state.H_iter.coeffs, state.h_iter.coeffs
    m = min(cap, max(3 * _live_degree(H), _live_degree(h)) + 1)
    H, h = H[: m + 1], h[: m + 1]
    C = _trusted(H).cube().coeffs
    c, eta, eps, theta, gamma = p.c, p.eta, p.eps, p.theta, p.gamma
    H_next, h_next = [H[0]], [h[0]]
    for k, Hk, Hj, hk, hj, Cj in zip(range(1, m + 1), H[1:], H, h[1:], h, C):
        H_next.append(Hk - (((k * Hk - c * Hj) - eta * hj) + eps * Cj) / k)
        h_next.append(hk - ((k * hk + theta * Hj) + gamma * hj) / k)
    return VimState(_padded(H_next, cap), _padded(h_next, cap), state.iteration + 1)


def vim_step_delayed(state: VimState, p: DelayedParams) -> VimState:
    """One correction step of the delayed model in normalized form.

    Runs at working cap ``m = 3*deg(H) + 1``, exactly as the coupled step;
    coefficient k >= 1 of the next iterate is
    ``H[k] - ((k*H[k] - a*H[k-1]) + b*C[k-1]) / k``.
    """
    a, b = reduced_delayed_coeffs(p)
    cap = state.degree_cap
    H = state.H_iter.coeffs
    m = min(cap, 3 * _live_degree(H) + 1)
    H = H[: m + 1]
    C = _trusted(H).cube().coeffs
    H_next = [H[0]]
    for k, Hk, Hj, Cj in zip(range(1, m + 1), H[1:], H, C):
        H_next.append(Hk - ((k * Hk - a * Hj) + b * Cj) / k)
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
