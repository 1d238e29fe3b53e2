"""Coefficient recurrences: examples, structure, and cross-checks."""

import math
import random
from fractions import Fraction

import pytest

from ensoseries import (
    CoupledParams,
    DelayedParams,
    SeriesOverflowError,
    SeriesPoly,
    SolutionPair,
    UsageError,
    adm_solve_coupled,
    adm_solve_delayed,
    solve_coupled,
    solve_delayed,
)
from ensoseries import dtm
from ensoseries.errors import COEFF_LIMIT, FINITE_LIMIT, MAX_ORDER, check_coeffs
from ensoseries.models import reduced_delayed_coeffs
from ensoseries.reference import load_table
from conftest import Index, draw_coupled, draw_delayed

TABLE1 = CoupledParams(1, 1, 1, 1, 0.1)
TABLE3 = DelayedParams(0.5, 0.3, 0.25, 0.05)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_zero_rhs_keeps_constants():
    pair = solve_coupled(CoupledParams(0, 0, 0, 0, 0.0), 4)
    assert pair.H.coeffs == (1.0, 0.0, 0.0, 0.0, 0.0)
    assert pair.h.coeffs == (1.0, 0.0, 0.0, 0.0, 0.0)


def test_first_coefficients_match_hand_substitution():
    # W1 = c + eta - eps, V1 = -theta - gamma, then one more recurrence turn
    pair = solve_coupled(TABLE1, 2)
    W, V = pair.H.coeffs, pair.h.coeffs
    assert W[1] == pytest.approx(1.9, abs=1e-15)
    assert V[1] == pytest.approx(-2.0, abs=1e-15)
    assert W[2] == pytest.approx(-0.335, abs=1e-14)
    assert V[2] == pytest.approx(0.05, abs=1e-14)


def test_coupled_series_value_from_table1():
    for order in (15, 25):
        pair = solve_coupled(TABLE1, order)
        assert pair.H.eval(0.2) == pytest.approx(1.363075110, abs=1e-7)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_delayed_zero_rhs():
    series = solve_delayed(DelayedParams(0.7, 0.7, 0.5, 0.0), 4)
    assert type(series) is SeriesPoly
    assert series.coeffs == (1.0, 0.0, 0.0, 0.0, 0.0)


def test_delayed_first_coefficient():
    series = solve_delayed(TABLE3, 1)
    assert series.coeffs[1] == pytest.approx(0.15 / 0.925, rel=1e-14)


def test_delayed_series_value_from_table3():
    for order in (20, 25):
        series = solve_delayed(TABLE3, order)
        assert series.eval(0.4) == pytest.approx(1.065476869, abs=1e-7)


def test_negative_order_rejected():
    with pytest.raises(UsageError):
        solve_coupled(TABLE1, -1)
    with pytest.raises(UsageError):
        solve_delayed(TABLE3, -2)


def test_overflow_aborts_with_index():
    with pytest.raises(SeriesOverflowError) as err:
        solve_coupled(CoupledParams(1e9, 0, 0, 0, 0.5), 5)
    assert err.value.index >= 1


@pytest.mark.parametrize("solve, coupled", [
    (solve_coupled, True),
    (solve_delayed, False),
    (lambda p, n: adm_solve_coupled(p, n + 1), True),
    (lambda p, n: adm_solve_delayed(p, n + 1), False),
])
def test_overflow_stops_at_the_first_bad_coefficient(solve, coupled, monkeypatch):
    # a large requested order must not be computed past the first bad value
    calls = []
    cube_coeff = dtm._cube_coeff
    monkeypatch.setattr(dtm, "_cube_coeff", lambda W, S: calls.append(len(S)) or cube_coeff(W, S))
    with pytest.warns(UserWarning):
        p = CoupledParams(1, 1, 1, 1, 5.0) if coupled else DelayedParams(0.5, 0.3, 0.25, 5.0)
    with pytest.raises(SeriesOverflowError) as err:
        solve(p, 2000)
    assert err.value.index < 30
    assert len(calls) == err.value.index


@pytest.mark.parametrize("solve, p", [
    (solve_coupled, TABLE1),
    (solve_delayed, TABLE3),
    (lambda p, n: adm_solve_coupled(p, n + 1), TABLE1),
    (lambda p, n: adm_solve_delayed(p, n + 1), TABLE3),
])
def test_an_order_above_the_limit_is_refused_before_any_work(solve, p, monkeypatch):
    # not one cube coefficient is computed for a refused order
    monkeypatch.setattr(dtm, "_cube_coeff", None)
    for order in (MAX_ORDER + 1, 20000, 10**9, 10**400):
        with pytest.raises(UsageError, match=f"must be in 0..{MAX_ORDER}$|must be in 1..{MAX_ORDER + 1}$"):
            solve(p, order)
    for order in (3.0, 2.5, math.nan):  # an adm wrapper passes order + 1, no integer either
        with pytest.raises(UsageError, match=r"^(order|n_terms) must be an integer, got "):
            solve(p, order)


def test_an_order_is_taken_as_an_integer_or_refused():
    # a string cannot pass through the adm wrappers above, which add 1 to it
    for solve, p in ((solve_coupled, TABLE1), (solve_delayed, TABLE3)):
        with pytest.raises(UsageError, match="^order must be an integer, got '3'$"):
            solve(p, "3")
        assert solve(p, Index(25)) == solve(p, 25)
        assert solve(p, True) == solve(p, 1)


@pytest.mark.parametrize("solve", [solve_coupled, lambda p, n: adm_solve_coupled(p, n + 1)])
def test_overflow_in_h_reports_its_lower_index(solve):
    # h leaves the range at index 1, H only at index 2
    with pytest.raises(SeriesOverflowError) as err:
        solve(CoupledParams(1, 1, 1, 1e16, 0.1), 10)
    assert err.value.index == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2e15, -2e15])
def test_overflow_guard_names_the_first_bad_coefficient(bad):
    with pytest.raises(SeriesOverflowError) as err:
        check_coeffs((1.0, -3.0, bad, 4.0, bad))
    assert err.value.index == 2
    # magnitudes summing past the limit, each within it, still pass
    assert check_coeffs((1e15, -1e15, 0.5)) == (1e15, -1e15, 0.5)
    # at the float-range limit only NaN and infinities fail
    for coeffs, index in (((1.0, 1e300, math.nan), 2), ((1.0, -math.inf), 1)):
        with pytest.raises(SeriesOverflowError) as err:
            check_coeffs(coeffs, FINITE_LIMIT)
        assert err.value.index == index
    assert check_coeffs((1e308, 1e308, -0.0), FINITE_LIMIT) == (1e308, 1e308, -0.0)  # the sum overflows
    assert check_coeffs((1e300,), FINITE_LIMIT) == (1e300,)
    with pytest.raises(SeriesOverflowError):
        check_coeffs((1e300,), COEFF_LIMIT)


def test_solve_shapes():
    pair = solve_coupled(TABLE1, 3)
    assert type(pair) is SolutionPair
    assert pair.H.cap == 3 and pair.h.cap == 3
    assert pair.H.coeffs[0] == TABLE1.H0 and pair.h.coeffs[0] == TABLE1.h0
    scalar = solve_delayed(TABLE3, 3)
    assert type(scalar) is SeriesPoly


def test_each_lower_order_is_a_prefix_of_one_solve():
    long_c, long_d = solve_coupled(TABLE1, 12), solve_delayed(TABLE3, 12)
    for n in range(13):
        pair = solve_coupled(TABLE1, n)
        assert pair == SolutionPair(SeriesPoly(long_c.H.coeffs[: n + 1]), SeriesPoly(long_c.h.coeffs[: n + 1]))
        assert solve_delayed(TABLE3, n) == SeriesPoly(long_d.coeffs[: n + 1])


def test_a_result_takes_its_order_from_w():
    # the cap of a solve is its order: order 0 is the initial value alone
    for n in (0, 1, 7):
        pair = solve_coupled(TABLE1, n)
        assert pair.H.cap == pair.h.cap == solve_delayed(TABLE3, n).cap == n
    assert solve_delayed(TABLE3, 0).coeffs == (TABLE3.H0,)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_constant_solve():
    pair = solve_coupled(CoupledParams(0, 0, 0, 0, 0.0), 1)
    assert pair.H.eval(5.0) == 1.0 and pair.h.eval(5.0) == 1.0


def test_initial_condition_at_zero():
    assert solve_coupled(TABLE1, 25).H.eval(0.0) == 1.0


def test_delayed_grid_matches_bundled_table():
    table = load_table(3)
    series = solve_delayed(TABLE3, 25)
    for t, expected in zip(table.grid, table.column("dtm", 0.05)):
        assert series.eval(t) == pytest.approx(expected, abs=1e-6)


def test_order_monotonicity_bit_for_bit():
    small = solve_coupled(TABLE1, 30)
    large = solve_coupled(TABLE1, 55)
    assert large.H.coeffs[:31] == small.H.coeffs
    assert large.h.coeffs[:31] == small.h.coeffs
    d_small = solve_delayed(TABLE3, 20)
    d_large = solve_delayed(TABLE3, 45)
    assert d_large.coeffs[:21] == d_small.coeffs


def test_incremental_cube_agrees_with_series_cube():
    # the recurrence must hold with N(k) recomputed via the full series cube
    rng = random.Random(101)
    for _ in range(20):
        p = draw_coupled(rng)
        pair = solve_coupled(p, 12)
        W, V = pair.H.coeffs, pair.h.coeffs
        cubed = pair.H.cube()
        for k in range(12):
            lhs = (k + 1) * W[k + 1]
            rhs = p.c * W[k] + p.eta * V[k] - p.eps * cubed.coeffs[k]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_delayed_recurrence_against_series_cube():
    rng = random.Random(202)
    for _ in range(20):
        p = draw_delayed(rng)
        a, b = reduced_delayed_coeffs(p)
        try:
            series = solve_delayed(p, 10)
        except SeriesOverflowError:
            continue
        W, cubed = series.coeffs, series.cube()
        for k in range(10):
            lhs = (k + 1) * W[k + 1]
            rhs = a * W[k] - b * cubed.coeffs[k]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_float_coefficients_are_within_a_rounding_bound_of_exact():
    # The core in Fraction on the exact values of the same floats is the exact
    # recurrence.  The core on the inputs' magnitudes, with the signs of the
    # subtracted terms flipped so that nothing cancels, gives M_k, the size of
    # the terms behind coefficient k.  Rounding grows about linearly with the
    # step count, so float coefficient k lies within 2 * (k + 1) * 2**-53 * M_k
    # of the exact one (worst factor measured: 0.38).
    sets = [(load_table(n).params(eps), 40) for n in range(1, 5) for eps in load_table(n).eps_values]
    for seed, draw in ((31, draw_coupled), (32, draw_delayed)):
        rng = random.Random(seed)
        sets += [(draw(rng), 30) for _ in range(25)]
    compared = 0
    for p, order in sets:
        if isinstance(p, CoupledParams):
            try:
                pair = solve_coupled(p, order)
            except SeriesOverflowError:
                continue
            inputs = (p.H0, p.h0, p.c, p.eta, p.eps, p.theta, p.gamma)
            exact = dtm._taylor_coupled(*map(Fraction, inputs), order)
            M = dtm._taylor_coupled(*map(abs, inputs[:4]), *(-abs(x) for x in inputs[4:]), order)
            got = (pair.H.coeffs, pair.h.coeffs)
        else:
            try:
                series = solve_delayed(p, order)
            except SeriesOverflowError:
                continue
            a, b = reduced_delayed_coeffs(p)
            exact = (dtm._taylor_delayed(Fraction(p.H0), Fraction(a), Fraction(b), order),)
            M = (dtm._taylor_delayed(abs(p.H0), abs(a), -abs(b), order),)
            got = (series.coeffs,)
        for g, e, m in zip(got, exact, M):
            for k, (gk, ek, mk) in enumerate(zip(g, e, m)):  # M may stop early at COEFF_LIMIT
                assert abs(Fraction(gk) - ek) <= 2 * (k + 1) * Fraction(mk) / 2**53, (p, k)
        compared += 1
    assert compared >= 40
