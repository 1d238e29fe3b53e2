"""Shared helpers: seeded random parameter draws with rejection rules.

Draws reject only what no series method can represent at desk scale:
near-singular delayed denominators (|1 - beta*sigma| too small) and draws
whose coefficients trip the overflow guard before the compared order.  Both
rules are deterministic under the fixed seeds, so every run sees the same
parameter sets.
"""

from __future__ import annotations

import math
import random
import warnings
from decimal import Decimal, localcontext

import pytest

from ensoseries import (
    CoupledParams,
    DelayedParams,
    ParameterRangeWarning,
    SeriesOverflowError,
    SeriesPoly,
    SolutionPair,
    adm_solve_coupled,
    adm_solve_delayed,
)
from ensoseries import dtm
from ensoseries.models import reduced_delayed_coeffs
from ensoseries.vim import _at, _next_coupled, _next_delayed

ADM_K_MAX = 20

# Counts no solver may take: floats, integral or not, and a string.
NOT_INTEGERS = (3.0, 2.5, math.nan, "3")


class Index:
    """A count that is no int but converts to one through ``__index__``, as ``range`` takes it."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


def draw_coupled(rng: random.Random) -> CoupledParams:
    return CoupledParams(
        c=rng.uniform(-2.0, 2.0),
        eta=rng.uniform(-2.0, 2.0),
        gamma=rng.uniform(-2.0, 2.0),
        theta=rng.uniform(-2.0, 2.0),
        eps=rng.uniform(0.01, 1.0),
    )


def draw_delayed(rng: random.Random, min_denom: float = 0.5) -> DelayedParams:
    while True:
        alpha = rng.uniform(-2.0, 2.0)
        beta = rng.uniform(-2.0, 2.0)
        sigma = rng.uniform(-2.0, 2.0)
        if abs(1.0 - beta * sigma) < min_denom:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParameterRangeWarning)
            return DelayedParams(alpha, beta, sigma, rng.uniform(0.01, 1.0))


def draw_until(draw, rng: random.Random, compute, max_tries: int = 400):
    """Redraw on coefficient overflow; the comparison needs finite output."""
    for _ in range(max_tries):
        params = draw(rng)
        try:
            return params, compute(params)
        except SeriesOverflowError:
            continue
    pytest.fail("could not draw enough non-overflowing parameter sets")


def vim_at_cap(p, iterations, cap):
    """``vim_solve(p, iterations)`` at degree cap ``cap`` in place of ``vim.DEGREE_CAP``.

    Runs the step kernels ``_next_coupled``/``_next_delayed`` from the
    constant start, as ``vim_solve`` does, and pads the last iterate to
    ``cap`` with ``_at``, so a test can drive them at any cap.
    """
    if isinstance(p, CoupledParams):
        H, h = (p.H0,), (p.h0,)
        for _ in range(iterations):
            H, h = _next_coupled(H, h, p, cap)
        return SolutionPair(SeriesPoly(_at(H, cap)), SeriesPoly(_at(h, cap)))
    a, b = reduced_delayed_coeffs(p)
    H = (p.H0,)
    for _ in range(iterations):
        H = _next_delayed(H, a, b, cap)
    return SeriesPoly(_at(H, cap))


def adm_draws():
    """Acceptance criterion 4's draws: ``(params, adm series)`` each.

    100 coupled draws from seed 2024, then 100 delayed draws from seed 2025,
    each solved to the ADM series of ``ADM_K_MAX + 1`` components, a
    :class:`SolutionPair` for the coupled draws.
    """
    out = []
    for seed, draw, adm in ((2024, draw_coupled, adm_solve_coupled), (2025, draw_delayed, adm_solve_delayed)):
        rng = random.Random(seed)
        for _ in range(100):
            out.append(draw_until(draw, rng, lambda q: adm(q, ADM_K_MAX + 1)))
    return out


def scalar_recursion_gap(p, sol):
    """Largest relative gap between every component weight and its rebuild.

    Weight k+1 is rebuilt from the solver's weights 0..k, with the weight of
    ``A_k`` a plain triple sum over ``i+j+l = k``: cheap enough for every
    component, and it shares no code with the solver's cube accumulator.
    """
    if isinstance(sol, SeriesPoly):
        u, v = sol.coeffs, None
    else:
        u, v = sol.H.coeffs, sol.h.coeffs
    worst = 0.0
    for k in range(len(u) - 1):
        a_k = sum(u[i] * u[j] * u[k - i - j] for i in range(k + 1) for j in range(k - i + 1))
        if v is None:
            a, b = reduced_delayed_coeffs(p)
            pairs = [(u[k + 1], (a * u[k] - b * a_k) / (k + 1))]
        else:
            pairs = [
                (u[k + 1], (p.c * u[k] + p.eta * v[k] - p.eps * a_k) / (k + 1)),
                (v[k + 1], (-p.theta * u[k] - p.gamma * v[k]) / (k + 1)),
            ]
        for got, want in pairs:
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst


def decimal_taylor_states(p, ts):
    """The states at the times ``ts``, as ``rk4_values`` gives them, by multistage Taylor in ``Decimal``.

    At 60 digits, each stage of 0.05 runs the package's own DTM core at
    order 40 from the last state and sums it at 0.05 by Horner.  Each time
    must be a whole number of stages; the inputs are the exact values of the
    floats (for the delayed model, of ``reduced_delayed_coeffs``).
    """
    with localcontext() as ctx:
        ctx.prec = 60
        stage = Decimal("0.05")
        coupled = isinstance(p, CoupledParams)
        if coupled:
            rates = [Decimal(x) for x in (p.c, p.eta, p.eps, p.theta, p.gamma)]
            state = (Decimal(p.H0), Decimal(p.h0))
        else:
            rates = [Decimal(x) for x in reduced_delayed_coeffs(p)]
            state = (Decimal(p.H0),)
        out, done = [], 0
        for t in ts:
            n = round(t / 0.05)
            assert abs(n * 0.05 - t) <= 1e-12, f"{t} is not a whole number of stages"
            for _ in range(n - done):
                sums = []
                series = dtm._taylor_coupled(*state, *rates, 40) if coupled else (dtm._taylor_delayed(*state, *rates, 40),)
                for coeffs in series:
                    acc = Decimal(0)
                    for c in reversed(coeffs):
                        acc = acc * stage + c
                    sums.append(acc)
                state = tuple(sums)
            done = n
            out.append(tuple(map(float, state)))
    return out


# -- plain-loop references for the series products -------------------------


def plain_convolution(a, b):
    """``result[k] = a[0]*b[k] + a[1]*b[k-1] + ...``, summed left to right from 0.0."""
    out = []
    for k in range(len(a)):
        acc = 0.0
        for r in range(k + 1):
            acc += a[r] * b[k - r]
        out.append(acc)
    return out


def plain_product(*factors):
    """The truncated product of coefficient sequences, left to right, from plain loops.

    Written without ``SeriesPoly`` products, in their order of operations.
    Like them, it raises :class:`SeriesOverflowError` naming the first
    non-finite coefficient of the first partial product that has one.
    """
    out = factors[0]
    for f in factors[1:]:
        out = plain_convolution(out, f)
        bad = next((k for k, c in enumerate(out) if not math.isfinite(c)), None)
        if bad is not None:
            raise SeriesOverflowError(bad, out[bad])
    return out


def plain_cube(H: SeriesPoly) -> SeriesPoly:
    """``H**3`` at H's cap: the square, then the square times H, from plain loops."""
    return SeriesPoly(tuple(plain_product(H.coeffs, H.coeffs, H.coeffs)))
