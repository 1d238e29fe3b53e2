"""Variational iteration with the first-order multiplier fixed at -1.

Each step applies the correction functional

    H_{n+1}(t) = H_n(t) - integral_0^t [ residual of H_n ](s) ds

to the current polynomial iterate (and likewise for h in the coupled model).
With multiplier -1 on a first-order equation this is Picard iteration, so the
n-th iterate reproduces the true Taylor coefficients through degree n, up to
rounding: its sums run in another order than the DTM recurrence's, so the
last bits can differ; everything above is transient and gets squeezed out by
later steps.

Cubing triples the polynomial degree per step, so iterates are truncated at
the fixed degree cap ``DEGREE_CAP`` = 64.  The truncation only touches degrees
above the cap and therefore never disturbs the order-n agreement for n below
it.  Each step works at the iterate's live degree below that cap: the first three
iterates stay below degree 14, so their products are not dense to degree 64.
:func:`vim_solve` carries the iterates as plain coefficient tuples at that
live degree and pads them to the degree cap once, at the end;
:func:`vim_iterates` runs the same steps and pads each iterate.
"""

from __future__ import annotations

from .errors import check_coeffs, check_count
from .models import CoupledParams, DelayedParams, SolutionPair, reduced_delayed_coeffs
from .series import SeriesPoly, _cube, _live_degree, _wrap

DEGREE_CAP = 64


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
    The loop reads C[0..m-1], the cube of ``H[:m]`` from :func:`series._cube`
    at the live degree found here: the bits of ``SeriesPoly.cube``, with no
    series built.  Its coefficient m, left out, is finite after the first step
    (H passed :func:`errors.check_coeffs`), so no overflow index moves.
    """
    d = _live_degree(H)
    m = min(cap, max(3 * d, _live_degree(h)) + 1)
    H, h = _at(H, m), _at(h, m)
    C = _cube(H[:m], min(d, m - 1)) if m else ()  # d >= m only where H ran past the cap and _at cut it
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
    d = _live_degree(H)
    m = min(cap, 3 * d + 1)
    H = _at(H, m)
    C = _cube(H[:m], min(d, m - 1)) if m else ()
    H_next = [H[0]]
    for k, Hk, Hj, Cj in zip(range(1, m + 1), H[1:], H, C):
        H_next.append(Hk - ((k * Hk - a * Hj) + b * Cj) / k)
    return check_coeffs(tuple(H_next))


def _iterates(params: CoupledParams | DelayedParams, iterations: int):
    """Iterates 0..iterations from the constant initial value, as coefficient tuples at their working caps.

    A coupled iterate is the pair ``(H, h)``, a delayed one ``H`` alone.
    """
    coupled = isinstance(params, CoupledParams)
    if coupled:
        it = (params.H0,), (params.h0,)
    else:
        a, b = reduced_delayed_coeffs(params)
        it = (params.H0,)
    yield it
    for _ in range(iterations):
        it = _next_coupled(*it, params, DEGREE_CAP) if coupled else _next_delayed(it, a, b, DEGREE_CAP)
        yield it


def _padded(params: CoupledParams | DelayedParams, it) -> SolutionPair | SeriesPoly:
    """One iterate of :func:`_iterates` padded to ``DEGREE_CAP``; its steps have checked it already."""
    if isinstance(params, CoupledParams):
        return SolutionPair(_wrap(_at(it[0], DEGREE_CAP)), _wrap(_at(it[1], DEGREE_CAP)))
    return _wrap(_at(it, DEGREE_CAP))


def vim_solve(params: CoupledParams | DelayedParams, iterations: int) -> SolutionPair | SeriesPoly:
    """Apply ``iterations`` correction steps from the constant initial iterate.

    The iterates stay tuples at their working caps, and only the last is padded to ``DEGREE_CAP``.
    ``iterations`` may be at most ``MAX_ITERATIONS``; more is refused before the first step.
    """
    for it in _iterates(params, check_count(iterations, "iterations")):
        pass
    return _padded(params, it)


def vim_iterates(params: CoupledParams | DelayedParams, iterations: int) -> list[SolutionPair] | list[SeriesPoly]:
    """Iterates 0..iterations, each padded to ``DEGREE_CAP``.

    Entry n is ``vim_solve(params, n)``, bit for bit, and the limit is that of :func:`vim_solve`; every
    entry comes from one run of steps.  A list, not a generator, so every step has run when the call returns.
    """
    return [_padded(params, it) for it in _iterates(params, check_count(iterations, "iterations"))]
