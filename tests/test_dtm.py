"""Coefficient recurrences: examples, structure, and cross-checks."""

import math
import random

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
from ensoseries.dtm import assemble, transform_coupled, transform_delayed
from ensoseries.errors import MAX_ORDER, check_coeffs
from ensoseries.models import reduced_delayed_coeffs
from ensoseries.reference import load_table
from conftest import draw_coupled, draw_delayed

TABLE1 = CoupledParams(1, 1, 1, 1, 0.1)
TABLE3 = DelayedParams(0.5, 0.3, 0.25, 0.05)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_zero_rhs_keeps_constants():
    r = transform_coupled(CoupledParams(0, 0, 0, 0, 0.0), 4)
    assert r.W == (1.0, 0.0, 0.0, 0.0, 0.0)
    assert r.V == (1.0, 0.0, 0.0, 0.0, 0.0)


def test_first_coefficients_match_hand_substitution():
    # W1 = c + eta - eps, V1 = -theta - gamma, then one more recurrence turn
    r = transform_coupled(TABLE1, 2)
    assert r.W[1] == pytest.approx(1.9, abs=1e-15)
    assert r.V[1] == pytest.approx(-2.0, abs=1e-15)
    assert r.W[2] == pytest.approx(-0.335, abs=1e-14)
    assert r.V[2] == pytest.approx(0.05, abs=1e-14)


def test_coupled_series_value_from_table1():
    for order in (15, 25):
        pair = solve_coupled(TABLE1, order)
        assert pair.H.eval(0.2) == pytest.approx(1.363075110, abs=1e-7)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_delayed_zero_rhs():
    r = transform_delayed(DelayedParams(0.7, 0.7, 0.5, 0.0), 4)
    assert r.W == (1.0, 0.0, 0.0, 0.0, 0.0)
    assert r.V is None


def test_delayed_first_coefficient():
    r = transform_delayed(TABLE3, 1)
    assert r.W[1] == pytest.approx(0.15 / 0.925, rel=1e-14)


def test_delayed_series_value_from_table3():
    for order in (20, 25):
        series = solve_delayed(TABLE3, order)
        assert series.eval(0.4) == pytest.approx(1.065476869, abs=1e-7)


def test_negative_order_rejected():
    with pytest.raises(UsageError):
        transform_coupled(TABLE1, -1)
    with pytest.raises(UsageError):
        transform_delayed(TABLE3, -2)


def test_overflow_aborts_with_index():
    with pytest.raises(SeriesOverflowError) as err:
        transform_coupled(CoupledParams(1e9, 0, 0, 0, 0.5), 5)
    assert err.value.index >= 1


@pytest.mark.parametrize("solve, coupled", [
    (transform_coupled, True),
    (transform_delayed, False),
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
    (transform_coupled, TABLE1),
    (transform_delayed, TABLE3),
    (lambda p, n: adm_solve_coupled(p, n + 1), TABLE1),
    (lambda p, n: adm_solve_delayed(p, n + 1), TABLE3),
])
def test_an_order_above_the_limit_is_refused_before_any_work(solve, p, monkeypatch):
    # not one cube coefficient is computed for a refused order
    monkeypatch.setattr(dtm, "_cube_coeff", None)
    for order in (MAX_ORDER + 1, 20000, 10**9, 10**400):
        with pytest.raises(UsageError, match=f"must be in 0..{MAX_ORDER}$|must be in 1..{MAX_ORDER + 1}$"):
            solve(p, order)


@pytest.mark.parametrize("solve", [transform_coupled, lambda p, n: adm_solve_coupled(p, n + 1)])
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


def test_assemble_shapes():
    pair = assemble(transform_coupled(TABLE1, 3))
    assert isinstance(pair, SolutionPair)
    assert pair.H.cap == 3 and pair.h.cap == 3
    assert pair.H.coeffs[0] == TABLE1.H0 and pair.h.coeffs[0] == TABLE1.h0
    scalar = assemble(transform_delayed(TABLE3, 3))
    assert isinstance(scalar, SeriesPoly)


def test_assemble_takes_each_prefix_of_one_transform():
    res_c, res_d = transform_coupled(TABLE1, 12), transform_delayed(TABLE3, 12)
    assert assemble(res_c) == assemble(res_c, 12)
    assert assemble(res_d) == assemble(res_d, 12)
    for n in range(13):
        assert assemble(res_c, n) == solve_coupled(TABLE1, n)
        assert assemble(res_d, n) == solve_delayed(TABLE3, n)
    for bad in (-1, 13):
        with pytest.raises(UsageError, match="0 <= n <= 12"):
            assemble(res_c, bad)


def test_a_result_takes_its_order_from_w():
    assert assemble(dtm.DtmResult((1.0, 2.0), None)).cap == 1
    with pytest.raises(UsageError, match="0 <= n <= 1"):
        assemble(dtm.DtmResult((1.0, 2.0), (3.0, 4.0)), 2)
    with pytest.raises(UsageError, match="at least one coefficient"):
        dtm.DtmResult((), None)
    with pytest.raises(UsageError, match="as long as W"):
        dtm.DtmResult((1.0, 2.0), (3.0,))


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_assemble_constant_result():
    pair = assemble(transform_coupled(CoupledParams(0, 0, 0, 0, 0.0), 1))
    assert pair.H.eval(5.0) == 1.0 and pair.h.eval(5.0) == 1.0


def test_initial_condition_at_zero():
    assert solve_coupled(TABLE1, 25).H.eval(0.0) == 1.0


def test_delayed_grid_matches_bundled_table():
    table = load_table(3)
    series = solve_delayed(TABLE3, 25)
    for t, expected in zip(table.grid, table.column("dtm", 0.05)):
        assert series.eval(t) == pytest.approx(expected, abs=1e-6)


def test_order_monotonicity_bit_for_bit():
    small = transform_coupled(TABLE1, 30)
    large = transform_coupled(TABLE1, 55)
    assert large.W[:31] == small.W
    assert large.V[:31] == small.V
    d_small = transform_delayed(TABLE3, 20)
    d_large = transform_delayed(TABLE3, 45)
    assert d_large.W[:21] == d_small.W


def test_incremental_cube_agrees_with_series_cube():
    # the recurrence must hold with N(k) recomputed via the full series cube
    rng = random.Random(101)
    for _ in range(20):
        p = draw_coupled(rng)
        r = transform_coupled(p, 12)
        cubed = SeriesPoly(r.W).cube()
        for k in range(12):
            lhs = (k + 1) * r.W[k + 1]
            rhs = p.c * r.W[k] + p.eta * r.V[k] - p.eps * cubed.coeffs[k]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_delayed_recurrence_against_series_cube():
    rng = random.Random(202)
    for _ in range(20):
        p = draw_delayed(rng)
        a, b = reduced_delayed_coeffs(p)
        try:
            r = transform_delayed(p, 10)
        except SeriesOverflowError:
            continue
        cubed = SeriesPoly(r.W).cube()
        for k in range(10):
            lhs = (k + 1) * r.W[k + 1]
            rhs = a * r.W[k] - b * cubed.coeffs[k]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
