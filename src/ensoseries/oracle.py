"""Ground truth: closed-form solution for the delayed model, RK4 for both.

The normalized delayed model ``dH/dt = a*H - b*H**3`` is a Bernoulli
equation: substituting ``w = H**-2`` gives the linear equation
``w' = -2*a*w + 2*b``, hence

    w(t) = b/a + (H0**-2 - b/a) * exp(-2*a*t)        (a != 0)
    w(t) = H0**-2 + 2*b*t                            (a == 0)

and ``H(t) = sign(H0) * w(t)**-0.5``.  The closed form is validated against the RK4
integrator before it is trusted anywhere (the acceptance suite runs that gate
explicitly), and RK4 doubles as the reference for the coupled model, which
has no elementary closed form.  :func:`rk4_values` is the one RK4 entry
point: it returns the states at the requested times.
"""

from __future__ import annotations

import math
import sys
from math import isfinite

from .errors import FINITE_LIMIT, DomainError, UsageError, check_coeffs, check_step, check_steps, step_ratio
from .models import (
    CoupledParams,
    DelayedParams,
    SolutionPair,
    coupled_rhs,
    delayed_rhs,
    reduced_delayed_coeffs,
)
from .series import SeriesPoly

_MIN_NORMAL = sys.float_info.min  # below it a float has lost bits, so exact_delayed leaves its float path


def exact_delayed(p: DelayedParams, t: float) -> float:
    """Closed-form solution of the delayed model at time ``t``.

    Computed as ``H = H0 * q**-0.5`` with ``q = H0**2 * w``, so H keeps the
    sign of H0, and H0 = 0 gives the equilibrium H = 0; an H0 whose square
    overflows is refused with :class:`DomainError`.  The float path takes
    ``q = exp(x) + 2*(b*H0**2*t) * g`` with ``x = -2*(a*t)`` and
    ``g = expm1(x)/x`` (1 at x = 0), in that order so that ``2*a`` or
    ``2*b`` alone never overflows and nothing cancels as a -> 0.  It is trusted only where b == 0, or where ``H0**2``,
    ``b*H0**2`` and ``b*H0**2*t`` are normal floats and the two terms of q
    cannot cancel (x <= 0, or b*t > 0): there a normal finite q gives H, and
    a q <= 0 with b*t < 0 a blow-up before t.  Every other input is taken by
    :func:`_decimal_closed_form`.
    """
    if not math.isfinite(t):
        raise UsageError("t must be finite")
    if p.H0 == 0.0:
        return 0.0
    a, b = reduced_delayed_coeffs(p)
    s = p.H0 * p.H0
    if s == math.inf:
        raise DomainError(f"H0**2 overflows (H0 = {p.H0!r})")
    if t == 0.0:
        return p.H0
    x = -2.0 * (a * t)
    bs = b * s
    w = bs * t
    if b == 0.0 or (s >= _MIN_NORMAL and (bs >= _MIN_NORMAL or bs <= -_MIN_NORMAL)
                    and (w >= _MIN_NORMAL or w <= -_MIN_NORMAL and x <= 0.0)):
        try:
            g = math.expm1(x) / x if x else 1.0
            q = math.exp(x) + 2.0 * w * g
        except OverflowError:  # exp(x) left the float range
            q = math.nan
        if _MIN_NORMAL <= q < math.inf:
            return p.H0 * q ** -0.5
        if q <= 0.0 and w < 0.0:
            raise DomainError(f"solution blows up before t={t} (H0**2 * w = {q})")
    return _decimal_closed_form(p.H0, a, b, t)


def _decimal_closed_form(H0: float, a: float, b: float, t: float) -> float:
    """:func:`exact_delayed` in decimals, from the exact values of the floats, rounded once.

    With ``r = H0**2 * b/a``, ``q = (1 - r)*exp(-2*a*t) + r`` (``1 +
    2*b*H0**2*t`` at a = 0).  ``H0**2 * b`` is exact, so r = 1 exactly
    where the solution is the equilibrium H0; elsewhere ``1 - r`` is at
    least about 2**-159, since ``H0**2 * b`` has at most 159 significant
    bits.  So 80 digits are enough for r, plus one for each leading zero of
    ``a*t``, which ``1 - exp(x)`` loses.  The exponent range holds any
    product of floats, and an exp past it is Infinity.
    """
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero, InvalidOperation, localcontext

    h0, a, b, time = map(Decimal, (H0, a, b, t))
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
    bs = exact.multiply(exact.multiply(h0, h0), b)
    if bs == a:
        return H0
    prec = 80 + max(0, -(a.adjusted() + time.adjusted()))
    with localcontext(Context(prec=prec, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[DivisionByZero, InvalidOperation])):
        if a:
            r = bs / a
            q = (1 - r) * (-2 * a * time).exp() + r
        else:
            q = 1 + 2 * bs * time
        if q <= 0:
            raise DomainError(f"solution blows up before t={t}")
        H = float(h0 / q.sqrt())
    if math.isinf(H):
        raise DomainError(f"|H| leaves the float range at t={t}")
    return H


def _blew_up(t: float, h: float, steps: int) -> DomainError:
    """The blow-up error ``steps`` steps of ``h`` after ``t``, the clock summed step by step."""
    for _ in range(steps):
        t += h
    return DomainError(f"integration blew up near t={t}")


def _rk4_coupled(p: CoupledParams, state: tuple[float, float], t: float, h: float, n: int):
    """Advance ``n`` classical RK4 steps of size ``h`` of the coupled model from time ``t``.

    Returns the final state ``(H, h)``; :func:`rk4_values` runs one call per
    gap.  The state lives in scalar locals and each stage calls
    :func:`models.coupled_rhs` once.  Float ``*`` and ``+`` saturate to inf
    rather than raise, so a blow-up shows as a non-finite state; only its
    message needs the time, which :func:`_blew_up` sums as a running clock would.
    """
    half = 0.5 * h
    u, v = state  # H and h
    for i in range(n):
        du1, dv1 = coupled_rhs(p, u, v)
        du2, dv2 = coupled_rhs(p, u + half * du1, v + half * dv1)
        du3, dv3 = coupled_rhs(p, u + half * du2, v + half * dv2)
        du4, dv4 = coupled_rhs(p, u + h * du3, v + h * dv3)
        u = u + h * (du1 + 2.0 * du2 + 2.0 * du3 + du4) / 6.0
        v = v + h * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4) / 6.0
        if not (isfinite(u) and isfinite(v)):
            raise _blew_up(t, h, i + 1)
    return u, v


def _rk4_delayed(p: DelayedParams, state: tuple[float], t: float, h: float, n: int):
    """Advance ``n`` RK4 steps of the delayed model like :func:`_rk4_coupled`, through ``delayed_rhs``."""
    half = 0.5 * h
    (u,) = state
    for i in range(n):
        k1 = delayed_rhs(p, u)
        k2 = delayed_rhs(p, u + half * k1)
        k3 = delayed_rhs(p, u + half * k2)
        k4 = delayed_rhs(p, u + h * k3)
        u = u + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not isfinite(u):
            raise _blew_up(t, h, i + 1)
    return (u,)


def _rk4_gaps(ts: list[float] | tuple[float, ...], step: float) -> list[tuple[float, float, int]]:
    """Each gap up to a requested time, from the one before or 0, as ``(start, span, steps)``; see :func:`rk4_values`."""
    check_step(step)
    if not all(map(isfinite, ts)):
        raise UsageError("times must be finite")
    if any(t < 0.0 for t in ts):
        raise UsageError("times must be >= 0")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise UsageError("times must be strictly increasing")
    gaps = [(t_prev, t - t_prev) for t_prev, t in zip([0.0, *ts], ts)]
    gaps = [(t_prev, span, max(1, math.ceil(step_ratio(span, step))) if span > 0.0 else 0) for t_prev, span in gaps]
    check_steps(sum(n for _, _, n in gaps), "RK4 steps")
    return gaps


def rk4_values(
    params: CoupledParams | DelayedParams,
    ts: list[float] | tuple[float, ...],
    step: float = 1e-4,
) -> list[tuple[float, ...]]:
    """States at the requested times, integrating piecewise from t = 0.

    Sub-steps never exceed ``step``, and each requested time is hit exactly,
    so the values carry full RK4 accuracy at the nodes.  More than
    ``errors.MAX_STEPS`` steps in all are refused with :class:`UsageError` before
    the first one is taken.
    """
    gaps = _rk4_gaps(ts, step)
    if isinstance(params, CoupledParams):
        steps, state = _rk4_coupled, (params.H0, params.h0)
    else:
        steps, state = _rk4_delayed, (params.H0,)
    out = []
    for t_prev, span, n in gaps:
        if n:
            state = steps(params, state, t_prev, span / n, n)
        out.append(state)
    return out


def residual_check(
    solution: SolutionPair | SeriesPoly,
    params: CoupledParams | DelayedParams,
) -> float:
    """Largest residual coefficient left when a series is pushed through its model.

    The residual series is ``d(series)/dt - RHS(series)``; coefficients
    ``0..cap-1`` are inspected, since the cap's own derivative coefficient is
    an artifact of truncation.  Each residual coefficient is computed in one
    pass, in the order of operations of
    ``H' - (c*H + eta*h - eps*H**3)`` over series (``H' - (a*H - b*H**3)``
    for the delayed model): coefficient k of ``H'`` is ``(k+1)*H[k+1]``, and
    0.0 at the cap.  A non-finite coefficient, at any degree up to the cap,
    raises :class:`SeriesOverflowError`.
    """
    if isinstance(solution, SolutionPair):
        if not isinstance(params, CoupledParams):
            raise UsageError("a solution pair needs coupled parameters")
        H, h = solution.H.coeffs, solution.h.coeffs
        C = solution.H.cube().coeffs
        c, eta, eps, gamma = params.c, params.eta, params.eps, params.gamma
        minus_theta = -params.theta
        res1 = [(k + 1) * dH - ((c * x + eta * y) - eps * z)
                for k, dH, x, y, z in zip(range(len(H)), H[1:] + (0.0,), H, h, C)]
        res2 = [(k + 1) * dh - (minus_theta * x - gamma * y)
                for k, dh, x, y in zip(range(len(h)), h[1:] + (0.0,), H, h)]
        residuals = (check_coeffs(res1, FINITE_LIMIT), check_coeffs(res2, FINITE_LIMIT))
    else:
        if not isinstance(params, DelayedParams):
            raise UsageError("a scalar series needs delayed parameters")
        a, b = reduced_delayed_coeffs(params)
        H = solution.coeffs
        C = solution.cube().coeffs
        res = [(k + 1) * dH - (a * x - b * z)
               for k, dH, x, z in zip(range(len(H)), H[1:] + (0.0,), H, C)]
        residuals = (check_coeffs(res, FINITE_LIMIT),)
    return max(max(map(abs, res[:-1]), default=0.0) for res in residuals)
