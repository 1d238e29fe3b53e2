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

import pytest

from ensoseries import (
    CoupledParams,
    DelayedParams,
    ParameterRangeWarning,
    SeriesOverflowError,
    SeriesPoly,
    adm_solve_coupled,
    adm_solve_delayed,
)
from ensoseries.dtm import transform_coupled, transform_delayed

ADM_K_MAX = 20


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


def adm_dtm_draws():
    """Acceptance criterion 4's draws: ``(params, (series, DtmResult))`` each.

    100 coupled draws from seed 2024, then 100 delayed draws from seed 2025,
    each solved to the ADM series of ``ADM_K_MAX + 1`` components and the
    transformed coefficients ``0..ADM_K_MAX``.  The series is a
    :class:`SolutionPair` for the coupled draws.
    """
    out = []
    for seed, draw, adm, dtm in (
        (2024, draw_coupled, adm_solve_coupled, transform_coupled),
        (2025, draw_delayed, adm_solve_delayed, transform_delayed),
    ):
        rng = random.Random(seed)
        for _ in range(100):
            out.append(draw_until(
                draw, rng, lambda q: (adm(q, ADM_K_MAX + 1), dtm(q, ADM_K_MAX)),
            ))
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
