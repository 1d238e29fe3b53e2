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
    VimState,
    initial_state,
    reduced_delayed_coeffs,
    transform_coupled,
    transform_delayed,
    vim_solve,
    vim_step_coupled,
    vim_step_delayed,
)
from ensoseries.errors import MAX_ITERATIONS, MAX_ORDER, MAX_VIM_WORK, check_coeffs
from ensoseries.vim import DEFAULT_DEGREE_CAP, _live_degree, _solve_work
from conftest import draw_coupled, draw_delayed, draw_until, plain_cube

TABLE1 = CoupledParams(1, 1, 1, 1, 0.1)
TABLE3 = DelayedParams(0.5, 0.3, 0.25, 0.05)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_zero_parameters_fix_the_constant():
    state = initial_state(CoupledParams(0, 0, 0, 0, 0.0), 8)
    stepped = vim_step_coupled(state, CoupledParams(0, 0, 0, 0, 0.0))
    assert stepped.H_iter.coeffs == state.H_iter.coeffs
    assert stepped.h_iter.coeffs == state.h_iter.coeffs


def test_one_step_is_a_hand_integration():
    stepped = vim_step_coupled(initial_state(TABLE1, 8), TABLE1)
    assert stepped.H_iter.coeffs[:2] == (1.0, 1.9)
    assert all(c == 0.0 for c in stepped.H_iter.coeffs[2:])
    assert stepped.h_iter.coeffs[:2] == (1.0, -2.0)
    assert stepped.iteration == 1


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_delayed_fixed_point():
    p = DelayedParams(0.7, 0.7, 0.5, 0.0)
    stepped = vim_step_delayed(initial_state(p, 8), p)
    assert stepped.H_iter.coeffs == (1.0,) + (0.0,) * 8


def test_delayed_one_step():
    stepped = vim_step_delayed(initial_state(TABLE3, 8), TABLE3)
    assert stepped.H_iter.coeffs[1] == pytest.approx(0.15 / 0.925, rel=1e-14)
    assert all(c == 0.0 for c in stepped.H_iter.coeffs[2:])


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
    state = initial_state(TABLE1, 32)
    for _ in range(6):
        state = vim_step_coupled(state, TABLE1)
        assert state.H_iter.eval(0.0) == 1.0
        assert state.h_iter.eval(0.0) == 1.0


def test_picard_order_matching_sample():
    rng = random.Random(71)
    for _ in range(10):
        p, r = draw_until(draw_coupled, rng, lambda q: transform_coupled(q, 8))
        state = initial_state(p, 64)
        try:
            for n in range(1, 9):
                state = vim_step_coupled(state, p)
                for k in range(n + 1):
                    gap = abs(state.H_iter.coeffs[k] - r.W[k])
                    assert gap <= 1e-12 * max(1.0, abs(r.W[k]))
        except SeriesOverflowError:
            continue


def test_picard_order_matching_delayed_sample():
    rng = random.Random(72)
    for _ in range(10):
        p, r = draw_until(draw_delayed, rng, lambda q: transform_delayed(q, 6))
        state = initial_state(p, 64)
        try:
            for n in range(1, 7):
                state = vim_step_delayed(state, p)
                for k in range(n + 1):
                    gap = abs(state.H_iter.coeffs[k] - r.W[k])
                    assert gap <= 1e-12 * max(1.0, abs(r.W[k]))
        except SeriesOverflowError:
            continue


def _max_gap_on_grid(a: SeriesPoly, b: SeriesPoly, t_max=1.0, points=21):
    return max(abs(a.eval(i * t_max / (points - 1)) - b.eval(i * t_max / (points - 1)))
               for i in range(points))


def test_iterate_differences_shrink_for_table_parameters():
    for params in (TABLE1, TABLE3):
        scalar = isinstance(params, DelayedParams)
        state = initial_state(params, 64)
        gaps = []
        for _ in range(8):
            nxt = (vim_step_delayed if scalar else vim_step_coupled)(state, params)
            gaps.append(_max_gap_on_grid(nxt.H_iter, state.H_iter))
            state = nxt
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
    with pytest.raises(UsageError):
        vim_solve(TABLE1, -1)
    with pytest.raises(UsageError):
        initial_state(TABLE1, -2)
    scalar_state = initial_state(TABLE3, 8)
    with pytest.raises(UsageError):
        vim_step_coupled(scalar_state, TABLE1)


def test_counts_above_the_limits_are_refused_before_any_work():
    assert vim_solve(TABLE3, 1, MAX_ORDER).cap == MAX_ORDER
    for call in (lambda: vim_solve(TABLE1, MAX_ITERATIONS + 1),
                 lambda: vim_solve(TABLE3, 10**9),
                 lambda: vim_solve(TABLE3, 1, MAX_ORDER + 1),
                 lambda: vim_solve(TABLE1, 1, 10**12),
                 lambda: initial_state(TABLE1, MAX_ORDER + 1)):
        with pytest.raises(UsageError, match="must be in 0.."):
            call()
    # the steps refuse an iterate past the iteration limit, or above the cap limit
    state = initial_state(TABLE1, 2)
    last = VimState(state.H_iter, state.h_iter, MAX_ITERATIONS - 1)
    assert vim_step_coupled(last, TABLE1).iteration == MAX_ITERATIONS
    with pytest.raises(UsageError, match=f"iterations must be in 0..{MAX_ITERATIONS}$"):
        vim_step_coupled(VimState(state.H_iter, state.h_iter, MAX_ITERATIONS), TABLE1)
    with pytest.raises(UsageError, match=f"degree_cap must be in 0..{MAX_ORDER}$"):
        vim_step_delayed(VimState(SeriesPoly.zero(MAX_ORDER + 1), None, 0), TABLE3)


def test_solve_work_is_refused_above_the_budget_before_any_step():
    # the CLI's largest VIM solve stays accepted; both count limits together are refused
    assert _solve_work(MAX_ITERATIONS, DEFAULT_DEGREE_CAP) == 4_274_808 <= MAX_VIM_WORK
    assert _solve_work(9, MAX_ORDER) <= MAX_VIM_WORK < _solve_work(10, MAX_ORDER)
    assert vim_solve(TABLE3, 9, MAX_ORDER).cap == MAX_ORDER
    for iterations, cap in ((MAX_ITERATIONS, MAX_ORDER), (10, MAX_ORDER), (MAX_ITERATIONS, 100)):
        with pytest.raises(UsageError, match=f"more than the {MAX_VIM_WORK} allowed$"):
            vim_solve(TABLE1, iterations, cap)


def test_solve_work_bounds_the_multiply_adds_of_the_cubes(monkeypatch):
    # each product at working cap m counts (m+1)(m+2)/2 multiply-adds; dense iterates reach the bound
    macs = []
    product = SeriesPoly.cauchy_mul

    def counted(a, b):
        macs.append(len(a.coeffs) * (len(a.coeffs) + 1) // 2)
        return product(a, b)

    monkeypatch.setattr(SeriesPoly, "cauchy_mul", counted)
    for p in (TABLE1, TABLE3, CoupledParams(1, 0, 1, 0, 0.1, h0=0.0)):
        for iterations in range(8):
            for cap in (0, 1, 2, 5, 13, 64, 200):
                macs.clear()
                vim_solve(p, iterations, cap)
                assert sum(macs) == _solve_work(iterations, cap)


# -- the live-degree step against a dense step at the full cap ----------


def dense_step(state, p):
    """One correction step with every ``SeriesPoly`` op at the full degree cap.

    The cube comes from the plain loops of :func:`conftest.plain_cube`, not
    from the series products the step under test uses.
    """
    H, h = state.H_iter, state.h_iter
    if isinstance(p, CoupledParams):
        res_H = H.derivative() - H.scale(p.c) - h.scale(p.eta) + plain_cube(H).scale(p.eps)
        res_h = h.derivative() + H.scale(p.theta) + h.scale(p.gamma)
        H_next, h_next = H - res_H.antiderivative(), h - res_h.antiderivative()
        check_coeffs(H_next.coeffs)
        check_coeffs(h_next.coeffs)
        return VimState(H_next, h_next, state.iteration + 1)
    a, b = reduced_delayed_coeffs(p)
    res = H.derivative() - H.scale(a) + plain_cube(H).scale(b)
    H_next = H - res.antiderivative()
    check_coeffs(H_next.coeffs)
    return VimState(H_next, None, state.iteration + 1)


def iterate_bits(step, state, p, iterations):
    """Exact hex coefficients of every iterate, or the overflow's message."""
    out = []
    try:
        for _ in range(iterations):
            state = step(state, p)
            out.append(tuple(x.hex() for s in (state.H_iter, state.h_iter) if s for x in s.coeffs))
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


@st.composite
def start(draw, p):
    """The constant initial iterate, or a short hand-built one, at a drawn cap."""
    cap = draw(st.sampled_from([0, 1, 2, 10, 64]) | st.integers(0, 64))
    if draw(st.booleans()):
        return initial_state(p, cap)
    iterate = st.lists(coeff, min_size=1, max_size=min(cap + 1, 6))
    H = SeriesPoly.from_coeffs(draw(iterate), cap)
    h = SeriesPoly.from_coeffs(draw(iterate), cap) if isinstance(p, CoupledParams) else None
    return VimState(H, h, 0)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
@settings(max_examples=150, deadline=None)
@given(st.one_of(vim_coupled, vim_delayed()).flatmap(lambda p: st.tuples(st.just(p), start(p))),
       st.sampled_from([0, 1, 2, 3, 5]))
def test_steps_are_bit_identical_to_the_dense_step(drawn, iterations):
    p, state = drawn
    step = vim_step_coupled if isinstance(p, CoupledParams) else vim_step_delayed
    assert iterate_bits(step, state, p, iterations) == iterate_bits(dense_step, state, p, iterations)


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
        state = initial_state(p, cap)
        step = vim_step_coupled if isinstance(p, CoupledParams) else vim_step_delayed
        assert iterate_bits(step, state, p, 4) == iterate_bits(dense_step, state, p, 4)


def overflow_bits(exc):
    return exc.index, exc.value.hex()


def solve_bits(p, iterations, cap):
    """Exact hex coefficients of ``vim_solve``, or its overflow's index and value."""
    try:
        sol = vim_solve(p, iterations, cap)
    except SeriesOverflowError as exc:
        return overflow_bits(exc)
    return [x.hex() for s in ((sol.H, sol.h) if isinstance(sol, SolutionPair) else (sol,)) for x in s.coeffs]


def stepped_bits(p, iterations, cap):
    """``solve_bits`` of 0..iterations public steps from the initial state."""
    step = vim_step_coupled if isinstance(p, CoupledParams) else vim_step_delayed
    state, out = initial_state(p, cap), []
    for n in range(iterations + 1):
        if n:
            try:
                state = step(state, p)
            except SeriesOverflowError as exc:
                return out + [overflow_bits(exc)] * (iterations + 1 - n)
        out.append([x.hex() for s in (state.H_iter, state.h_iter) if s for x in s.coeffs])
    return out


OVERFLOWING = [CoupledParams(40.0, 0, 0, 0, 0.5), CoupledParams(1, 1, 1, 1, 0.1, H0=1e120),
               DelayedParams(0.5, 0.3, 0.25, 0.05, H0=1e120), CoupledParams(1, 1, 1, 1e16, 0.1)]


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
@pytest.mark.parametrize("cap", [0, 1, 2, 5, 10, 64])
def test_solve_is_bit_identical_to_the_public_steps(cap):
    # vim_solve carries live-length tuples and pads once; the steps pad every iterate
    overflows = 0
    for p in [p for p, _ in random_draws()] + OVERFLOWING:
        n = 12 if p in OVERFLOWING else 5
        want = stepped_bits(p, n, cap)
        got = [solve_bits(p, k, cap) for k in range(n + 1)]
        assert got == want
        overflows += isinstance(want[-1], tuple)
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
