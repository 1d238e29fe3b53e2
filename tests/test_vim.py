"""Correction-functional iterates: fixed points, hand steps, Picard matching."""

import math
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
    SolutionPair,
    UsageError,
    vim_solve,
)
from ensoseries.dtm import solve_coupled, solve_delayed
from ensoseries.errors import MAX_ITERATIONS, MAX_ORDER, MAX_VIM_WORK, check_coeffs
from ensoseries.models import reduced_delayed_coeffs
from ensoseries.reference import load_table
from ensoseries import series, vim
from ensoseries.vim import (
    DEFAULT_DEGREE_CAP,
    _at,
    _live_degree,
    _next_coupled,
    _next_delayed,
    _solve_work,
    vim_iterates,
)
from conftest import NOT_INTEGERS, Index, draw_coupled, draw_delayed, draw_until, plain_cube

TABLE1 = CoupledParams(1, 1, 1, 1, 0.1)
TABLE3 = DelayedParams(0.5, 0.3, 0.25, 0.05)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_zero_parameters_fix_the_constant():
    start, stepped = vim_iterates(CoupledParams(0, 0, 0, 0, 0.0), 1, 8)
    assert start.H.coeffs == start.h.coeffs == (1.0,) + (0.0,) * 8
    assert stepped.H.coeffs == start.H.coeffs
    assert stepped.h.coeffs == start.h.coeffs


def test_one_step_is_a_hand_integration():
    iterates = vim_iterates(TABLE1, 1, 8)
    assert len(iterates) == 2
    stepped = iterates[1]
    assert stepped.H.coeffs[:2] == (1.0, 1.9)
    assert all(c == 0.0 for c in stepped.H.coeffs[2:])
    assert stepped.h.coeffs[:2] == (1.0, -2.0)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_delayed_fixed_point():
    p = DelayedParams(0.7, 0.7, 0.5, 0.0)
    stepped = vim_iterates(p, 1, 8)[1]
    assert stepped.coeffs == (1.0,) + (0.0,) * 8


def test_delayed_one_step():
    stepped = vim_iterates(TABLE3, 1, 8)[1]
    assert stepped.coeffs[1] == pytest.approx(0.15 / 0.925, rel=1e-14)
    assert all(c == 0.0 for c in stepped.coeffs[2:])


def test_solve_zero_iterations_is_the_constant():
    sol = vim_solve(TABLE3, 0)
    assert sol.coeffs == (1.0,) + (0.0,) * sol.cap


def test_solve_one_iteration_table1():
    pair = vim_solve(TABLE1, 1)
    assert pair.H.coeffs[:2] == (1.0, 1.9)
    assert all(c == 0.0 for c in pair.H.coeffs[2:])


def test_ten_steps_approach_the_published_neighborhood():
    pair = vim_solve(TABLE1, 10)
    # converged toward the true value 1.36307...; the bundled comparison
    # value 1.363041744 (a low-iteration snapshot) sits 3.3e-5 away
    assert pair.H.eval(0.2) == pytest.approx(1.363041744, abs=2e-4)
    assert pair.H.eval(0.2) == pytest.approx(1.363075110, abs=1e-6)


def test_delayed_sufficient_steps_near_published_value():
    sol = vim_solve(TABLE3, 12)
    assert sol.eval(0.4) == pytest.approx(1.065440029, abs=2e-4)


def test_initial_condition_preserved_every_iteration():
    for pair in vim_iterates(TABLE1, 6, 32):
        assert pair.H.eval(0.0) == 1.0
        assert pair.h.eval(0.0) == 1.0


def test_picard_order_matching_sample():
    rng = random.Random(71)
    for _ in range(10):
        p, r = draw_until(draw_coupled, rng, lambda q: solve_coupled(q, 8))
        W = r.H.coeffs
        try:  # each iterate up to the first that overflows
            for n in range(1, 9):
                H = vim_solve(p, n, 64).H
                for k in range(n + 1):
                    gap = abs(H.coeffs[k] - W[k])
                    assert gap <= 1e-12 * max(1.0, abs(W[k]))
        except SeriesOverflowError:
            continue


def test_picard_order_matching_delayed_sample():
    rng = random.Random(72)
    for _ in range(10):
        p, r = draw_until(draw_delayed, rng, lambda q: solve_delayed(q, 6))
        W = r.coeffs
        try:  # each iterate up to the first that overflows
            for n in range(1, 7):
                H = vim_solve(p, n, 64)
                for k in range(n + 1):
                    gap = abs(H.coeffs[k] - W[k])
                    assert gap <= 1e-12 * max(1.0, abs(W[k]))
        except SeriesOverflowError:
            continue


def test_picard_order_matching_on_the_bundled_sets_holds_to_rounding():
    # iterate n reproduces the Taylor coefficients through degree n only to rounding: on these
    # eight sets hundreds of them differ from the DTM series in their last bits, by at most 2.5e-15
    for number in (1, 2, 3, 4):
        table = load_table(number)
        for eps in table.eps_values:
            p = table.params(eps)
            if table.model == "coupled":
                r = solve_coupled(p, 12)
                pairs = [((s.H, r.H.coeffs), (s.h, r.h.coeffs)) for s in vim_iterates(p, 12, 64)]
            else:
                r = solve_delayed(p, 12)
                pairs = [((s, r.coeffs),) for s in vim_iterates(p, 12, 64)]
            assert len(pairs) == 13
            for n, iterate in enumerate(pairs):
                for series, W in iterate:
                    for k in range(n + 1):
                        assert abs(series.coeffs[k] - W[k]) <= 1e-14 * max(1.0, abs(W[k]))


def _max_gap_on_grid(a: SeriesPoly, b: SeriesPoly, t_max=1.0, points=21):
    return max(abs(a.eval(i * t_max / (points - 1)) - b.eval(i * t_max / (points - 1)))
               for i in range(points))


def test_iterate_differences_shrink_for_table_parameters():
    for params in (TABLE1, TABLE3):
        Hs = [it if isinstance(params, DelayedParams) else it.H for it in vim_iterates(params, 8, 64)]
        gaps = [_max_gap_on_grid(nxt, H) for H, nxt in zip(Hs, Hs[1:])]
        assert len(gaps) == 8
        assert all(b <= a * (1 + 1e-12) for a, b in zip(gaps, gaps[1:]))


def test_overflow_policy_applies():
    with pytest.raises(SeriesOverflowError):
        vim_solve(CoupledParams(40.0, 0, 0, 0, 0.5), 12, degree_cap=64)


@pytest.mark.parametrize("p", [
    CoupledParams(1, 1, 1, 1, 0.1, H0=1e120),
    DelayedParams(0.5, 0.3, 0.25, 0.05, H0=1e120),
])
def test_an_overflowing_cube_is_a_numeric_error(p):
    # the cube of 1e120 leaves the float range in the first step
    with pytest.raises(SeriesOverflowError) as err:
        vim_solve(p, 3)
    assert err.value.index == 0


def test_usage_errors():
    for solve in (vim_solve, vim_iterates):
        with pytest.raises(UsageError):
            solve(TABLE1, -1)
        with pytest.raises(UsageError):
            solve(TABLE1, 1, -2)


def no_steps(monkeypatch):
    """Make any correction step fail the test: the calls that follow must be refused before one."""
    def step(*args):
        pytest.fail("a step ran before the refusal")

    monkeypatch.setattr(vim, "_next_coupled", step)
    monkeypatch.setattr(vim, "_next_delayed", step)


def test_counts_above_the_limits_are_refused_before_any_work(monkeypatch):
    assert vim_solve(TABLE3, 1, MAX_ORDER).cap == MAX_ORDER
    assert vim_iterates(TABLE3, 1, MAX_ORDER)[1] == vim_solve(TABLE3, 1, MAX_ORDER)
    iterates = vim_iterates(TABLE1, MAX_ITERATIONS, 2)
    assert len(iterates) == MAX_ITERATIONS + 1 and iterates[-1] == vim_solve(TABLE1, MAX_ITERATIONS, 2)
    assert vim_solve(TABLE1, Index(3), Index(12)) == vim_solve(TABLE1, 3, 12)
    assert vim_iterates(TABLE3, Index(3), Index(12)) == vim_iterates(TABLE3, 3, 12)
    no_steps(monkeypatch)
    for solve in (vim_solve, vim_iterates):
        for call in (lambda: solve(TABLE1, MAX_ITERATIONS + 1),
                     lambda: solve(TABLE3, 10**9),
                     lambda: solve(TABLE3, 1, MAX_ORDER + 1),
                     lambda: solve(TABLE1, 1, 10**12)):
            with pytest.raises(UsageError, match="must be in 0.."):
                call()
        with pytest.raises(UsageError, match=f"iterations must be in 0..{MAX_ITERATIONS}$"):
            solve(TABLE1, MAX_ITERATIONS + 1, 2)
        with pytest.raises(UsageError, match=f"degree_cap must be in 0..{MAX_ORDER}$"):
            solve(TABLE3, 0, MAX_ORDER + 1)
        for count in NOT_INTEGERS:
            with pytest.raises(UsageError, match=f"^iterations must be an integer, got {count!r}$"):
                solve(TABLE1, count)
            with pytest.raises(UsageError, match=f"^degree_cap must be an integer, got {count!r}$"):
                solve(TABLE3, 2, count)


def test_solve_work_is_refused_above_the_budget_before_any_step(monkeypatch):
    # the CLI's largest VIM solve stays accepted; both count limits together are refused
    assert _solve_work(MAX_ITERATIONS, DEFAULT_DEGREE_CAP) == 4_145_204 <= MAX_VIM_WORK
    assert _solve_work(9, MAX_ORDER) == 9_349_208 <= MAX_VIM_WORK < _solve_work(10, MAX_ORDER) == 13_351_208
    assert vim_solve(TABLE3, 9, MAX_ORDER).cap == MAX_ORDER
    assert vim_iterates(TABLE3, 9, MAX_ORDER)[-1] == vim_solve(TABLE3, 9, MAX_ORDER)
    no_steps(monkeypatch)
    for solve in (vim_solve, vim_iterates):
        for iterations, cap in ((MAX_ITERATIONS, MAX_ORDER), (10, MAX_ORDER), (MAX_ITERATIONS, 100)):
            with pytest.raises(UsageError, match=f"more than the {MAX_VIM_WORK} allowed$"):
                solve(TABLE1, iterations, cap)


def test_solve_work_bounds_the_multiply_adds_of_the_cubes(monkeypatch):
    # a step at working cap m cubes H[:m]: each product counts m(m+1)/2 multiply-adds; dense iterates reach the bound
    macs = []
    product = series._product

    def counted(a, b, da, db):
        macs.append(len(a) * (len(a) + 1) // 2)
        return product(a, b, da, db)

    monkeypatch.setattr(series, "_product", counted)
    for p in (TABLE1, TABLE3, CoupledParams(1, 0, 1, 0, 0.1, h0=0.0)):
        for iterations in range(8):
            for cap in (0, 1, 2, 5, 13, 64, 200):
                macs.clear()
                vim_solve(p, iterations, cap)
                assert sum(macs) == _solve_work(iterations, cap)


# -- the live-degree step against a dense step at the full cap ----------


def dense_step(H, h, p):
    """One correction step with every ``SeriesPoly`` op at the full degree cap.

    ``h`` is None for the delayed model.  The cube comes from the plain loops
    of :func:`conftest.plain_cube`, not from the series products the step
    under test uses.
    """
    if isinstance(p, CoupledParams):
        res_H = H.derivative() - H.scale(p.c) - h.scale(p.eta) + plain_cube(H).scale(p.eps)
        res_h = h.derivative() + H.scale(p.theta) + h.scale(p.gamma)
        H_next, h_next = H - res_H.antiderivative(), h - res_h.antiderivative()
        check_coeffs(H_next.coeffs)
        check_coeffs(h_next.coeffs)
        return H_next, h_next
    a, b = reduced_delayed_coeffs(p)
    res = H.derivative() - H.scale(a) + plain_cube(H).scale(b)
    H_next = H - res.antiderivative()
    check_coeffs(H_next.coeffs)
    return H_next, None


def kernel_step(H, h, p):
    """One step of the kernels ``vim_solve`` and ``vim_iterates`` run, padded to the cap with ``_at``."""
    cap = H.cap
    if isinstance(p, CoupledParams):
        H_next, h_next = _next_coupled(H.coeffs, h.coeffs, p, cap)
        return SeriesPoly(_at(H_next, cap)), SeriesPoly(_at(h_next, cap))
    return SeriesPoly(_at(_next_delayed(H.coeffs, *reduced_delayed_coeffs(p), cap), cap)), None


def iterate_bits(step, start, p, iterations):
    """Exact hex coefficients of every iterate from ``start = (H, h)``, or the overflow's message."""
    H, h = start
    out = []
    try:
        for _ in range(iterations):
            H, h = step(H, h, p)
            out.append(tuple(x.hex() for s in (H, h) if s for x in s.coeffs))
    except SeriesOverflowError as exc:
        out.append(str(exc))
    return out


unit = st.floats(-2.0, 2.0)
vim_coupled = st.builds(CoupledParams, unit, unit, unit, unit, st.floats(-1.0, 1.0), H0=unit, h0=unit)


@st.composite
def vim_delayed(draw):
    alpha, beta, sigma = draw(unit), draw(unit), draw(unit)
    assume(abs(1.0 - beta * sigma) >= 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterRangeWarning)
        return DelayedParams(alpha, beta, sigma, draw(st.floats(-1.0, 1.0)), H0=draw(unit))


# signed zeros included: a -0.0 above the degree must come out as the dense step leaves it
coeff = st.one_of(st.just(0.0), st.just(-0.0), unit)


def constant_start(p, cap):
    """The constant initial iterate ``(H, h)`` at ``cap``; h is None for the delayed model."""
    h = SeriesPoly.monomial(p.h0, 0, cap) if isinstance(p, CoupledParams) else None
    return SeriesPoly.monomial(p.H0, 0, cap), h


@st.composite
def start(draw, p):
    """The constant initial iterate, or a short hand-built one, at a drawn cap."""
    cap = draw(st.sampled_from([0, 1, 2, 10, 64]) | st.integers(0, 64))
    if draw(st.booleans()):
        return constant_start(p, cap)
    iterate = st.lists(coeff, min_size=1, max_size=min(cap + 1, 6))
    H = SeriesPoly(_at(tuple(draw(iterate)), cap))
    h = SeriesPoly(_at(tuple(draw(iterate)), cap)) if isinstance(p, CoupledParams) else None
    return H, h


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
@settings(max_examples=150, deadline=None)
@given(st.one_of(vim_coupled, vim_delayed()).flatmap(lambda p: st.tuples(st.just(p), start(p))),
       st.sampled_from([0, 1, 2, 3, 5]))
def test_steps_are_bit_identical_to_the_dense_step(drawn, iterations):
    p, start = drawn
    assert iterate_bits(kernel_step, start, p, iterations) == iterate_bits(dense_step, start, p, iterations)


def random_draws():
    """200 seeded full-precision parameter draws, with their degree caps."""
    rng = random.Random(505)
    for i in range(200):
        if i % 2:
            p = draw_delayed(rng)
        else:
            p = CoupledParams(*(rng.uniform(-2.0, 2.0) for _ in range(4)), rng.uniform(-1.0, 1.0),
                              H0=rng.uniform(-2.0, 2.0), h0=rng.uniform(-2.0, 2.0))
        yield p, rng.choice([1, 2, 5, 10, 64])


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_steps_are_bit_identical_to_the_dense_step_on_random_draws():
    # full-precision draws, where a reordered sum changes the last bits
    for p, cap in random_draws():
        start = constant_start(p, cap)
        assert iterate_bits(kernel_step, start, p, 4) == iterate_bits(dense_step, start, p, 4)


def overflow_bits(exc):
    return exc.index, exc.value.hex()


def sol_bits(sol):
    """Exact hex coefficients of a solution: H (and h) of a pair, or one series."""
    return [x.hex() for s in ((sol.H, sol.h) if isinstance(sol, SolutionPair) else (sol,)) for x in s.coeffs]


def solve_bits(p, iterations, cap):
    """``sol_bits`` of ``vim_solve``, or its overflow's index and value."""
    try:
        return sol_bits(vim_solve(p, iterations, cap))
    except SeriesOverflowError as exc:
        return overflow_bits(exc)


def iterates_bits(p, iterations, cap):
    """``sol_bits`` of each entry of ``vim_iterates``, or its overflow's index and value."""
    try:
        return [sol_bits(sol) for sol in vim_iterates(p, iterations, cap)]
    except SeriesOverflowError as exc:
        return overflow_bits(exc)


OVERFLOWING = [CoupledParams(40.0, 0, 0, 0, 0.5), CoupledParams(1, 1, 1, 1, 0.1, H0=1e120),
               DelayedParams(0.5, 0.3, 0.25, 0.05, H0=1e120), CoupledParams(1, 1, 1, 1e16, 0.1)]


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
@pytest.mark.parametrize("cap", [0, 1, 2, 5, 10, 64])
def test_solve_is_bit_identical_to_the_public_steps(cap):
    # entry k of vim_iterates(p, n) is vim_solve(p, k): one pads every iterate, the other the last;
    # a list whose last step overflows is refused with the overflow that solve gives
    overflows = 0
    for p in [p for p, _ in random_draws()] + OVERFLOWING:
        n = 12 if p in OVERFLOWING else 5
        solved = [solve_bits(p, k, cap) for k in range(n + 1)]
        for k in range(n + 1):
            assert iterates_bits(p, k, cap) == (solved[k] if isinstance(solved[k], tuple) else solved[: k + 1])
        overflows += isinstance(solved[-1], tuple)
    assert overflows >= 2  # the comparison reached the overflow path


def scanned_degree(coeffs):
    """Highest index whose coefficient is not +0.0, scanning down from the top."""
    d = len(coeffs) - 1
    while d > 0 and coeffs[d] == 0.0 and math.copysign(1.0, coeffs[d]) > 0.0:
        d -= 1
    return d


@given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1066, 1.0, -3.5, 1e300]), min_size=1, max_size=70))
def test_live_degree_is_the_scan_from_the_top(coeffs):
    # subnormals end in zero bytes too, and a -0.0 is live
    assert _live_degree(tuple(coeffs)) == scanned_degree(coeffs)
    # only +0.0 packs to eight zero bytes
    packed = len(struct.pack(f"<{len(coeffs)}d", *coeffs).rstrip(b"\0"))
    assert _live_degree(tuple(coeffs)) == max(0, (packed + 7) // 8 - 1)
