"""Ground truth: closed-form solution for the delayed model, RK4 for both.

The normalized delayed model ``dH/dt = a*H - b*H**3`` is a Bernoulli
equation: substituting ``w = H**-2`` gives the linear equation
``w' = -2*a*w + 2*b``, hence

    w(t) = b/a + (H0**-2 - b/a) * exp(-2*a*t)        (a != 0)
    w(t) = H0**-2 + 2*b*t                            (a == 0)

and ``H(t) = w(t)**-0.5``.  The closed form is validated against the RK4
integrator before it is trusted anywhere (the acceptance suite runs that gate
explicitly), and RK4 doubles as the reference for the coupled model, which
has no elementary closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UsageError
from .models import (
    CoupledParams,
    DelayedParams,
    SolutionPair,
    coupled_rhs,
    delayed_rhs,
    reduced_delayed_coeffs,
)
from .series import SeriesPoly


@dataclass(frozen=True)
class Trajectory:
    """Integrator output: states (H,) or (H, h) on a strictly increasing grid."""

    ts: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]
    step: float

    def __post_init__(self):
        if len(self.ts) != len(self.states):
            raise UsageError("ts and states must align")
        if any(b <= a for a, b in zip(self.ts, self.ts[1:])):
            raise UsageError("grid must be strictly increasing")
        for t, state in zip(self.ts, self.states):
            if not all(math.isfinite(x) for x in state):
                raise DomainError(f"non-finite state at t={t}")

    @property
    def H(self) -> tuple[float, ...]:
        return tuple(s[0] for s in self.states)

    @property
    def h(self) -> tuple[float, ...]:
        if len(self.states[0]) < 2:
            raise UsageError("scalar trajectory has no h component")
        return tuple(s[1] for s in self.states)


def exact_delayed(p: DelayedParams, t: float) -> float:
    """Closed-form solution of the delayed model at time ``t``."""
    if not math.isfinite(t):
        raise UsageError("t must be finite")
    a, b = reduced_delayed_coeffs(p)
    w0 = p.H0 ** -2
    if a == 0.0:
        w = w0 + 2.0 * b * t
    else:
        w = b / a + (w0 - b / a) * math.exp(-2.0 * a * t)
    if w <= 0.0:
        raise DomainError(f"solution blows up before t={t} (w={w})")
    return w ** -0.5


def _rhs_for(params: CoupledParams | DelayedParams):
    if isinstance(params, CoupledParams):
        return lambda state: coupled_rhs(params, state[0], state[1]), (params.H0, params.h0)
    return lambda state: (delayed_rhs(params, state[0]),), (params.H0,)


def _rk4_steps(f, state: tuple[float, ...], t: float, h: float, n: int):
    """Advance ``n`` classical RK4 steps of size ``h``; yields each new state."""
    for _ in range(n):
        try:
            k1 = f(state)
            k2 = f(tuple(y + 0.5 * h * d for y, d in zip(state, k1)))
            k3 = f(tuple(y + 0.5 * h * d for y, d in zip(state, k2)))
            k4 = f(tuple(y + h * d for y, d in zip(state, k3)))
        except OverflowError:
            raise DomainError(f"integration blew up near t={t + h}") from None
        state = tuple(
            y + h * (a + 2.0 * b + 2.0 * c + d) / 6.0
            for y, a, b, c, d in zip(state, k1, k2, k3, k4)
        )
        t += h
        if not all(math.isfinite(x) for x in state):
            raise DomainError(f"integration blew up near t={t}")
        yield state


def rk4(params: CoupledParams | DelayedParams, t_end: float, step: float) -> Trajectory:
    """Classical fourth-order Runge-Kutta from t = 0 on a uniform grid.

    The step is adjusted minimally so the grid lands exactly on ``t_end``.
    """
    if step <= 0.0:
        raise UsageError("step must be positive")
    if t_end < 0.0:
        raise UsageError("t_end must be >= 0")
    f, state = _rhs_for(params)
    if t_end == 0.0:
        return Trajectory((0.0,), (state,), step)
    n = max(1, round(t_end / step))
    h = t_end / n
    ts = [0.0]
    states = [state]
    for i, s in enumerate(_rk4_steps(f, state, 0.0, h, n)):
        ts.append((i + 1) * h)
        states.append(s)
    return Trajectory(tuple(ts), tuple(states), h)


def rk4_values(
    params: CoupledParams | DelayedParams,
    ts: list[float] | tuple[float, ...],
    step: float = 1e-4,
) -> list[tuple[float, ...]]:
    """States at the requested times, integrating piecewise from t = 0.

    Sub-steps never exceed ``step``, and each requested time is hit exactly,
    so the values carry full RK4 accuracy at the nodes.
    """
    if step <= 0.0:
        raise UsageError("step must be positive")
    if any(t < 0.0 for t in ts):
        raise UsageError("times must be >= 0")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise UsageError("times must be strictly increasing")
    f, state = _rhs_for(params)
    out = []
    t_prev = 0.0
    for t in ts:
        span = t - t_prev
        if span > 0.0:
            n = max(1, math.ceil(span / step))
            for state in _rk4_steps(f, state, t_prev, span / n, n):
                pass
        out.append(state)
        t_prev = t
    return out


def residual_check(
    solution: SolutionPair | SeriesPoly,
    params: CoupledParams | DelayedParams,
    upto: int | None = None,
) -> float:
    """Largest residual coefficient left when a series is pushed through its model.

    The residual series is ``d(series)/dt - RHS(series)``; coefficients
    ``0..upto`` are inspected (default: everything below the cap, whose own
    derivative coefficient is an artifact of truncation).
    """
    if isinstance(solution, SolutionPair):
        if not isinstance(params, CoupledParams):
            raise UsageError("a solution pair needs coupled parameters")
        H, h = solution.H, solution.h
        res1 = H.derivative() - (H.scale(params.c) + h.scale(params.eta) - H.cube().scale(params.eps))
        res2 = h.derivative() - (H.scale(-params.theta) - h.scale(params.gamma))
        residuals = (res1, res2)
    else:
        if not isinstance(params, DelayedParams):
            raise UsageError("a scalar series needs delayed parameters")
        a, b = reduced_delayed_coeffs(params)
        H = solution
        residuals = (H.derivative() - (H.scale(a) - H.cube().scale(b)),)
    last = residuals[0].cap - 1 if upto is None else upto
    if last >= residuals[0].cap:
        raise UsageError("upto must stay below the series cap")
    worst = 0.0
    for res in residuals:
        for c in res.coeffs[: last + 1]:
            worst = max(worst, abs(c))
    return worst
