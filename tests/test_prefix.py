"""Prefix stability: the identities that let ``sweep`` solve once at ``--max``.

Raising a solver's order or count must leave everything it computed at lower
orders bit-for-bit unchanged, so each lower n is a prefix of one solve.
"""

import random
import struct
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ensoseries import (
    CoupledParams,
    DelayedParams,
    ParameterRangeWarning,
    SeriesOverflowError,
    SeriesPoly,
    adm_solve_coupled,
    adm_solve_delayed,
    vim_solve,
)
from ensoseries.dtm import solve_coupled, solve_delayed
from ensoseries.vim import vim_iterates
from conftest import draw_coupled, draw_delayed, draw_until, vim_at_cap

unit = st.floats(-2.0, 2.0)
eps = st.floats(0.01, 0.99)
coupled = st.builds(CoupledParams, unit, unit, unit, unit, eps)


@st.composite
def delayed(draw):
    alpha, beta, sigma = draw(unit), draw(unit), draw(unit)
    assume(abs(1.0 - beta * sigma) >= 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterRangeWarning)
        return DelayedParams(alpha, beta, sigma, draw(eps))


params = st.one_of(coupled, delayed())
orders = st.integers(0, 30)
examples = settings(max_examples=60, deadline=None)


def solve(p, order):
    return (solve_coupled if isinstance(p, CoupledParams) else solve_delayed)(p, order)


def adm_solve(p, n_terms):
    return (adm_solve_coupled if isinstance(p, CoupledParams) else adm_solve_delayed)(p, n_terms)


def parts(solution):
    """The series of a solve: H alone for the delayed model, H and h for the coupled one."""
    return (solution,) if isinstance(solution, SeriesPoly) else (solution.H, solution.h)


def packed(solution, order=None):
    """The bits of every coefficient of orders 0..order (default all) of a solve, one bytes per series."""
    cut = [x.coeffs[: None if order is None else order + 1] for x in parts(solution)]
    return [struct.pack(f"<{len(c)}d", *c) for c in cut]


def no_overflow(fn, *args):
    try:
        return fn(*args)
    except SeriesOverflowError:
        assume(False)


@examples
@given(params, orders, orders)
def test_transform_prefix_is_stable(p, n, m):
    n, m = sorted((n, m))
    long = no_overflow(solve, p, m)
    short = solve(p, n)
    for x, y in zip(parts(long), parts(short), strict=True):
        assert x.coeffs[: n + 1] == y.coeffs
    assert packed(long, n) == packed(short)


@examples
@given(params, orders, orders)
def test_adm_weights_are_the_transform_and_prefixes_are_the_short_solve(p, n, m):
    n, m = sorted((n + 1, m + 1))
    long = no_overflow(adm_solve, p, m)
    short = adm_solve(p, n)
    assert short == solve(p, n - 1)
    assert packed(short) == packed(solve(p, n - 1))
    for x, y in zip(parts(long), parts(short), strict=True):
        assert x.coeffs[:n] == y.coeffs


@pytest.mark.parametrize("seed, draw", [(31, draw_coupled), (32, draw_delayed)])
def test_an_adm_partial_sum_evaluates_bit_for_bit_as_its_transform_prefix(seed, draw):
    # the CLI prints the adm series of n terms as the order n - 1 prefix of one longer dtm series; the
    # library's n-term series is that prefix and the solve at order n - 1, coefficient bits included,
    # so every value it evaluates to keeps its bits
    rng = random.Random(seed)
    for _ in range(30):
        p, long = draw_until(draw, rng, lambda q: solve(q, 39))
        for n in range(1, 41):
            adm, dtm = adm_solve(p, n), solve(p, n - 1)
            assert adm == dtm
            assert packed(adm) == packed(dtm) == packed(long, n - 1)


def overflow_of(fn, *args):
    """``(index, value bits)`` of the overflow ``fn`` raises, or None if it returns."""
    try:
        fn(*args)
    except SeriesOverflowError as exc:
        return exc.index, exc.value.hex()
    return None


@pytest.mark.parametrize("seed, draw", [(33, draw_coupled), (34, draw_delayed)])
def test_an_overflow_does_not_depend_on_the_order_asked(seed, draw):
    # the CLI keeps one series per eps and cuts it: a solve at order m that overflows at index j must
    # overflow the same way at every order n >= j and succeed, as a prefix, below j
    rng = random.Random(seed)
    seen = set()
    for _ in range(40):
        base, scale = draw(rng), 10.0 ** rng.uniform(0.5, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParameterRangeWarning)
            if isinstance(base, CoupledParams):
                p = CoupledParams(base.c * scale, base.eta * scale, base.gamma, base.theta, base.eps * scale)
            else:
                p = DelayedParams(base.alpha * scale, base.beta, base.sigma, base.eps * scale)
        m = rng.randint(0, 40)
        top = overflow_of(solve, p, m)
        if top is None:
            continue
        j = top[0]
        assert 1 <= j <= m
        seen.add(j)
        below = solve(p, j - 1)
        for n in range(m + 1):
            if n >= j:
                assert overflow_of(solve, p, n) == top
            else:
                assert packed(solve(p, n)) == packed(below, n)
    assert len(seen) >= 3  # the draws overflow at several indices, not one


@examples
@given(params, st.integers(0, 5), st.integers(0, 24))
def test_vim_steps_are_the_solve(p, k, cap):
    # and the steps at a lower degree cap leave the coefficients up to it as they are at the fixed cap
    iterates = no_overflow(vim_iterates, p, k)
    assert len(iterates) == k + 1
    for n, iterate in enumerate(iterates):
        assert iterate == vim_solve(p, n)
        assert packed(vim_at_cap(p, n, cap)) == packed(iterate, cap)
