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
:func:`vim_solve` carries the iterates as plain coefficient tuples at that
live degree and pads them to the degree cap once, at the end; the public
steps pad every iterate they return.
"""

from __future__ import annotations

from ._frozen import Frozen
from .errors import MAX_ITERATIONS, MAX_ORDER, UsageError, check_coeffs, check_count
from .models import CoupledParams, DelayedParams, SolutionPair, reduced_delayed_coeffs
from .series import SeriesPoly, _live_degree, _trusted

DEFAULT_DEGREE_CAP = 64


class VimState(Frozen):
    """Current iterate: H (and h for the coupled model, else None) plus the step count."""

    __slots__ = ("H_iter", "h_iter", "iteration")

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
    check_count(degree_cap, "degree_cap", 0, MAX_ORDER)
    H = SeriesPoly.constant(params.H0, degree_cap)
    if isinstance(params, CoupledParams):
        return VimState(H, SeriesPoly.constant(params.h0, degree_cap), 0)
    return VimState(H, None, 0)


def _at(coeffs: tuple[float, ...], m: int) -> tuple[float, ...]:
    """``coeffs`` cut or zero-padded to the m + 1 coefficients of cap m."""
    return coeffs[: m + 1] + (0.0,) * (m + 1 - len(coeffs))


def _next_coupled(H, h, p: CoupledParams, cap: int):
    """The next coupled iterate from coefficient tuples H, h of any length above their live degrees.

    The step runs at working cap ``m = max(3*deg(H), deg(h)) + 1`` (at most
    ``cap``) and returns two checked tuples of m + 1 coefficients: no
    coefficient of the next iterate above m can be anything but +0.0, and
    coefficient k of every series op depends only on degrees up to k + 1, so
    this is bit-for-bit the step at the full cap.  Coefficient k >= 1 of the
    next H is

        H[k] - (((k*H[k] - c*H[k-1]) - eta*h[k-1]) + eps*C[k-1]) / k

    with C the cube of H: the expression, in its order of operations, that
    ``H - (H' - c*H - eta*h + eps*H**3).antiderivative()`` evaluates with
    series operations.  Coefficient 0 is H[0] (H[0] - 0.0).  Likewise for h.
    """
    m = min(cap, max(3 * _live_degree(H), _live_degree(h)) + 1)
    H, h = _at(H, m), _at(h, m)
    C = _trusted(H).cube().coeffs
    c, eta, eps, theta, gamma = p.c, p.eta, p.eps, p.theta, p.gamma
    H_next, h_next = [H[0]], [h[0]]
    for k, Hk, Hj, hk, hj, Cj in zip(range(1, m + 1), H[1:], H, h[1:], h, C):
        H_next.append(Hk - (((k * Hk - c * Hj) - eta * hj) + eps * Cj) / k)
        h_next.append(hk - ((k * hk + theta * Hj) + gamma * hj) / k)
    return check_coeffs(tuple(H_next)), check_coeffs(tuple(h_next))


def _next_delayed(H, a: float, b: float, cap: int):
    """The next delayed iterate, as :func:`_next_coupled` for H alone.

    Runs at working cap ``m = 3*deg(H) + 1``; coefficient k >= 1 of the next
    iterate is ``H[k] - ((k*H[k] - a*H[k-1]) + b*C[k-1]) / k``.
    """
    m = min(cap, 3 * _live_degree(H) + 1)
    H = _at(H, m)
    C = _trusted(H).cube().coeffs
    H_next = [H[0]]
    for k, Hk, Hj, Cj in zip(range(1, m + 1), H[1:], H, C):
        H_next.append(Hk - ((k * Hk - a * Hj) + b * Cj) / k)
    return check_coeffs(tuple(H_next))


def _step_cap(state: VimState) -> int:
    """The state's degree cap; a step past ``MAX_ITERATIONS`` or above ``MAX_ORDER`` is refused."""
    check_count(state.iteration + 1, "iterations", 0, MAX_ITERATIONS)
    return check_count(state.degree_cap, "degree_cap", 0, MAX_ORDER)


def vim_step_coupled(state: VimState, p: CoupledParams) -> VimState:
    """One correction step of the coupled system (see :func:`_next_coupled`), padded to the degree cap."""
    if state.h_iter is None:
        raise UsageError("coupled step needs an h iterate")
    cap = _step_cap(state)
    H, h = _next_coupled(state.H_iter.coeffs, state.h_iter.coeffs, p, cap)
    return VimState(_trusted(_at(H, cap)), _trusted(_at(h, cap)), state.iteration + 1)


def vim_step_delayed(state: VimState, p: DelayedParams) -> VimState:
    """One correction step of the delayed model in normalized form (see :func:`_next_delayed`)."""
    cap = _step_cap(state)
    H = _next_delayed(state.H_iter.coeffs, *reduced_delayed_coeffs(p), cap)
    return VimState(_trusted(_at(H, cap)), None, state.iteration + 1)


def vim_solve(
    params: CoupledParams | DelayedParams,
    iterations: int,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> SolutionPair | SeriesPoly:
    """Apply ``iterations`` correction steps from the constant initial iterate.

    The same steps as :func:`vim_step_coupled` and :func:`vim_step_delayed`
    from :func:`initial_state`, bit for bit, but the iterates stay tuples at
    their working caps and are padded to ``degree_cap`` once, at the end.
    ``iterations`` may be at most ``MAX_ITERATIONS`` and ``degree_cap`` at
    most ``MAX_ORDER``.
    """
    check_count(iterations, "iterations", 0, MAX_ITERATIONS)
    check_count(degree_cap, "degree_cap", 0, MAX_ORDER)
    if isinstance(params, CoupledParams):
        H, h = (params.H0,), (params.h0,)
        for _ in range(iterations):
            H, h = _next_coupled(H, h, params, degree_cap)
        return SolutionPair(_trusted(_at(H, degree_cap)), _trusted(_at(h, degree_cap)))
    a, b = reduced_delayed_coeffs(params)
    H = (params.H0,)
    for _ in range(iterations):
        H = _next_delayed(H, a, b, degree_cap)
    return _trusted(_at(H, degree_cap))
