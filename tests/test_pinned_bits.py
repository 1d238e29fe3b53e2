"""Three SHA-256s over thousands of seeded product, solver and evaluation results.

The first constant was recorded before the series product was
register-blocked, the second before the DTM cube coefficients were computed
by a pure function instead of a stateful accumulator, the third over
``SeriesPoly.eval`` and the residuals of DTM solves.  All must hold on
every supported Python: a reordered float operation, or an interpreter whose
sums round differently, changes some result's bits.  Each value enters the
hash as ``float.hex``; a :class:`SeriesOverflowError` enters as its type and
index (and, for the DTM solves, its value).
"""

import hashlib
import random
import warnings

from ensoseries import (
    CoupledParams,
    DelayedParams,
    ParameterRangeWarning,
    SeriesOverflowError,
    SeriesPoly,
    SolutionPair,
    residual_check,
    vim_solve,
)
from ensoseries.dtm import solve_coupled, solve_delayed

PINNED_SHA256 = "9758786f44cf7a31e14a8a4a9024a27b7531847fd1b4aec3b8b0ce5a3d1bf46d"
DTM_SHA256 = "072abc0f4d6f1890a346d264e098b94eafc797777a012ecfc05b7179da6de647"
EVAL_SHA256 = "dafeeaf937add5e8d6f7bd62a8fd44c29b8fcc61b2de3eb769d87b2306faca3f"

# A coefficient: mostly plain values, sometimes a signed zero, a subnormal or a huge value.
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1070, 1e160, -1e200)
# Evaluation points: negative, both zeros, a subnormal, inside (0, 1), and far enough out that some sums overflow.
TIMES = (-2.5, -0.3, -0.0, 0.0, 5e-324, 0.4, 0.999, 3.0, 1e30)


def coefficient(rng):
    if rng.random() < 0.1:
        return rng.choice(SPECIAL)
    return rng.uniform(-4.0, 4.0)


def series(rng, cap):
    """``cap + 1`` coefficients: a live prefix of drawn length, then a +0.0 tail."""
    live = rng.randint(0, cap)
    return SeriesPoly(tuple(coefficient(rng) for _ in range(live + 1)) + (0.0,) * (cap - live))


def params(rng):
    H0 = rng.uniform(-3.0, 3.0)
    if rng.random() < 0.5:
        return CoupledParams(*(rng.uniform(-2.0, 2.0) for _ in range(4)), rng.uniform(-1.0, 1.0),
                             H0=H0, h0=rng.uniform(-3.0, 3.0))
    while True:
        alpha, beta, sigma = (rng.uniform(-2.0, 2.0) for _ in range(3))
        if abs(1.0 - beta * sigma) >= 0.25:
            return DelayedParams(alpha, beta, sigma, rng.uniform(-1.0, 1.0), H0=H0)


def bits(op):
    """The hex of every coefficient or value ``op`` returns, or its overflow's type and index."""
    try:
        value = op()
    except SeriesOverflowError as exc:
        return f"{type(exc).__name__}:{exc.index}"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, SolutionPair):
        value = value.H.coeffs + value.h.coeffs
    elif isinstance(value, SeriesPoly):
        value = value.coeffs
    return ",".join(x.hex() for x in value)


def results():
    """4,200 seeded results: 1,600 products, 1,000 cubes, 800 VIM solves and their residuals."""
    rng = random.Random(20081)
    for _ in range(1600):
        cap = rng.randint(0, 70)
        a, b = series(rng, cap), series(rng, cap)
        yield bits(lambda: a.cauchy_mul(b))
    for _ in range(1000):
        a = series(rng, rng.randint(0, 70))
        yield bits(a.cube)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterRangeWarning)
        for _ in range(800):
            p, iterations, cap = params(rng), rng.randint(0, 9), rng.randint(1, 64)
            try:
                sol = vim_solve(p, iterations, cap)
            except SeriesOverflowError as exc:
                yield f"{type(exc).__name__}:{exc.index}"
                yield "no residual"
                continue
            yield bits(lambda: sol)
            yield bits(lambda: residual_check(sol, p))


def transform_bits(p, order):
    """Every coefficient's hex of the DTM solve, H's then h's, or the overflow's type, index and value."""
    solve = solve_coupled if isinstance(p, CoupledParams) else solve_delayed
    try:
        sol = solve(p, order)
    except SeriesOverflowError as exc:
        return f"{type(exc).__name__}:{exc.index}:{exc.value.hex()}"
    coeffs = sol.H.coeffs + sol.h.coeffs if isinstance(p, CoupledParams) else sol.coeffs
    return ",".join(x.hex() for x in coeffs)


def dtm_results():
    """1,212 seeded DTM solves: eight at every order 0..150, then four at order 2000."""
    rng = random.Random(30713)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterRangeWarning)
        for i in range(8 * 151):
            yield transform_bits(params(rng), i % 151)
        # the README parameters stay in range up to the limit, and so does one of the draws
        for p in (CoupledParams(1.0, 1.0, 1.0, 1.0, 0.1), DelayedParams(0.5, 0.3, 0.25, 0.05),
                  params(rng), params(rng)):
            yield transform_bits(p, 2000)


def eval_results():
    """3,000 seeded results: 240 series at each of ``TIMES`` and one drawn time, then 600 DTM residuals."""
    rng = random.Random(40213)
    for _ in range(240):
        a = series(rng, rng.randint(0, 70))
        for t in TIMES + (rng.uniform(-1.5, 1.5),):
            yield a.eval(t).hex()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterRangeWarning)
        for _ in range(600):
            p = params(rng)
            try:
                sol = (solve_coupled if isinstance(p, CoupledParams) else solve_delayed)(p, rng.randint(0, 60))
            except SeriesOverflowError as exc:
                yield f"{type(exc).__name__}:{exc.index}"
                continue
            yield bits(lambda: residual_check(sol, p))


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_seeded_results_keep_their_pinned_bits():
    assert digest(results()) == PINNED_SHA256


def test_seeded_dtm_transforms_keep_their_pinned_bits():
    assert digest(dtm_results()) == DTM_SHA256


def test_seeded_evaluations_and_dtm_residuals_keep_their_pinned_bits():
    assert digest(eval_results()) == EVAL_SHA256


if __name__ == "__main__":
    print(digest(results()))
    print(digest(dtm_results()))
    print(digest(eval_results()))
