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

from .errors import DomainError, UsageError, check_finite, check_step, check_steps, step_ratio
from .models import (
    CoupledParams,
    DelayedParams,
    SolutionPair,
    coupled_rhs,
    delayed_rhs,
    reduced_delayed_coeffs,
)
from .series import SeriesPoly

_MIN_NORMAL = sys.float_info.min  # exact_delayed takes a q below it, subnormal or 0.0, in log space where it can


def exact_delayed(p: DelayedParams, t: float) -> float:
    """Closed-form solution of the delayed model at time ``t``.

    Computed as ``H = H0 * q**-0.5`` with ``q = H0**2 * w``, so H keeps the
    sign of H0, and H0 = 0 gives the equilibrium H = 0; an H0 whose square
    overflows is refused with :class:`DomainError`.  With ``x = -2*(a*t)``
    and ``g = expm1(x)/x``, ``q = exp(x) + 2*(b*H0**2*t) * g``, in that
    order so that ``2*a`` or ``2*b`` alone never overflows: no term cancels
    as a -> 0 (``H0**2 * b/a`` would, and would overflow for a tiny a),
    x = 0 gives the a == 0 form ``1 + 2*b*H0**2*t`` (and H0 at t = 0), and
    where ``a*t`` overflows to +inf, x is -inf and q is its limit
    ``H0**2 * b/a``.  Where ``exp(-2*a*t)`` leaves the float range (x = +inf
    included), q grows like ``(1 - H0**2 * b/a) * exp(-2*a*t)``: H is then
    taken in log space if that factor is positive, and the solution has
    blown up before t if it is negative.  Where q overflows, or falls below
    the smallest normal float, with b*t positive (``2*(b*H0**2*t)``, or the
    limit ``H0**2 * b/a``), q is taken in log space too, from ``log|b|``,
    ``log|H0|`` and ``log|t|`` (or ``log|a|``); where b == 0 and
    ``q = exp(x)`` underflows, ``log q = x``.  Each log-space H is
    ``exp(log|H0| - 0.5*log q)`` with the sign of H0, so a huge H0 does not
    meet an exponential that has already underflowed.
    """
    if not math.isfinite(t):
        raise UsageError("t must be finite")
    if p.H0 == 0.0:
        return 0.0
    a, b = reduced_delayed_coeffs(p)
    s = p.H0 * p.H0
    if s == math.inf:
        raise DomainError(f"H0**2 overflows (H0 = {p.H0!r})")
    x = -2.0 * (a * t)
    try:  # at x = -inf, exp(x) and g are 0.0, and q is its limit
        g = math.expm1(x) / x if x else 1.0
        q = s * b / a if x == -math.inf else math.exp(x) + 2.0 * (b * s * t) * g
    except OverflowError:
        q = math.nan
    if q != q:  # exp(x) left the float range (it returns inf at x = inf), or b*H0**2 overflowed and t = 0
        if t == 0.0:
            return p.H0
        r = s * b / a
        if r == 1.0:
            return p.H0
        if r > 1.0:
            raise DomainError(f"solution blows up before t={t}")
        log_q = x + math.log1p(-r)
    elif b * t > 0.0 and (q == math.inf or q < _MIN_NORMAL):  # q = exp(x) + exp(log_w), log_w real, left the range
        log_s = 2.0 * math.log(abs(p.H0))  # s itself may be subnormal or 0.0
        if x == -math.inf:  # q is its limit s*b/a, b/a > 0 since a*t = +inf
            log_w = log_s + math.log(abs(b)) - math.log(abs(a))
        else:  # q is exp(x) + 2*(b*s*t)*g
            log_w = math.log(2.0) + math.log(abs(b)) + log_s + math.log(abs(t)) + math.log(g)
        lo, hi = sorted((x, log_w))  # log(exp(x) + exp(log_w)), with an exponent that cannot overflow
        log_q = hi + math.log1p(math.exp(lo - hi))
    elif b == 0.0 and q < _MIN_NORMAL and x > -math.inf:  # q = exp(x) underflowed
        log_q = x
    elif not q > 0.0:
        raise DomainError(f"solution blows up before t={t} (H0**2 * w = {q})")
    else:
        return p.H0 * q ** -0.5
    try:  # H0 * q**-0.5 with q out of the float range
        return math.copysign(math.exp(math.log(abs(p.H0)) - 0.5 * log_q), p.H0)
    except OverflowError:
        raise DomainError(f"|H| leaves the float range at t={t}") from None


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
        residuals = (check_finite(res1), check_finite(res2))
    else:
        if not isinstance(params, DelayedParams):
            raise UsageError("a scalar series needs delayed parameters")
        a, b = reduced_delayed_coeffs(params)
        H = solution.coeffs
        C = solution.cube().coeffs
        res = [(k + 1) * dH - (a * x - b * z)
               for k, dH, x, z in zip(range(len(H)), H[1:] + (0.0,), H, C)]
        residuals = (check_finite(res),)
    return max(max(map(abs, res[:-1]), default=0.0) for res in residuals)
