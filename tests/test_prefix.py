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
    adm_solve_coupled,
    adm_solve_delayed,
    vim_solve,
)
from ensoseries.adm import AdmState
from ensoseries.dtm import assemble, transform_coupled, transform_delayed
from ensoseries.vim import vim_iterates
from conftest import draw_coupled, draw_delayed, draw_until

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


def transform(p, order):
    return (transform_coupled if isinstance(p, CoupledParams) else transform_delayed)(p, order)


def adm_solve(p, n_terms):
    return (adm_solve_coupled if isinstance(p, CoupledParams) else adm_solve_delayed)(p, n_terms)


def no_overflow(fn, *args):
    try:
        return fn(*args)
    except SeriesOverflowError:
        assume(False)


@examples
@given(params, orders, orders)
def test_transform_prefix_is_stable(p, n, m):
    n, m = sorted((n, m))
    long = no_overflow(transform, p, m)
    short = transform(p, n)
    assert long.W[: n + 1] == short.W
    if long.V is not None:
        assert long.V[: n + 1] == short.V


@examples
@given(params, orders, orders)
def test_adm_weights_are_the_transform_and_prefixes_are_the_short_solve(p, n, m):
    n, m = sorted((n + 1, m + 1))
    long = no_overflow(adm_solve, p, m)
    short = adm_solve(p, n)
    r = transform(p, n - 1)
    assert short.u_weights == r.W
    assert short.v_weights == r.V
    assert long.solution(n) == short.solution()


@pytest.mark.parametrize("seed, draw", [(31, draw_coupled), (32, draw_delayed)])
def test_an_adm_partial_sum_evaluates_bit_for_bit_as_its_transform_prefix(seed, draw):
    # the CLI prints the adm series of n terms as assemble(r, n - 1): the partial sum's trailing +0.0
    # weight adds +0.0 to Horner's first step at every finite t, so each value keeps its bits
    rng = random.Random(seed)
    for _ in range(30):
        p, r = draw_until(draw, rng, lambda q: transform(q, 30))
        for n in range(1, 32):
            adm, dtm = AdmState(r.W, r.V).solution(n), assemble(r, n - 1)
            pairs = [(adm, dtm)] if r.V is None else [(adm.H, dtm.H), (adm.h, dtm.h)]
            for t in (0.0, -0.0, 0.3, -0.3, 2.5, -2.5):
                for x, y in pairs:
                    assert struct.pack("<d", x.eval(t)) == struct.pack("<d", y.eval(t))


@examples
@given(params, st.integers(0, 5), st.integers(0, 24))
def test_vim_steps_are_the_solve(p, k, cap):
    iterates = no_overflow(vim_iterates, p, k, cap)
    assert len(iterates) == k + 1
    for n, iterate in enumerate(iterates):
        assert iterate == vim_solve(p, n, cap)
