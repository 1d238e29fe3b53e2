"""Exact closed form, RK4 reference, and residual diagnostics."""

import math
import random
import warnings
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Overflow, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ensoseries import (
    CoupledParams,
    DelayedParams,
    DomainError,
    ParameterRangeWarning,
    SeriesOverflowError,
    SeriesPoly,
    SolutionPair,
    UsageError,
    exact_delayed,
    residual_check,
    rk4_values,
    solve_coupled,
    solve_delayed,
    vim_solve,
)
from ensoseries import errors, oracle
from ensoseries.models import coupled_rhs, delayed_rhs, reduced_delayed_coeffs
from conftest import decimal_taylor_states, draw_delayed, plain_cube

TABLE1 = CoupledParams(1, 1, 1, 1, 0.1)
TABLE3 = DelayedParams(0.5, 0.3, 0.25, 0.05)
TABLE4 = DelayedParams(1.0, 0.5, 0.5, 0.05)
DECIMAL = Context(prec=700, Emax=MAX_EMAX, Emin=MIN_EMIN)


# -- closed form --------------------------------------------------------


def test_exact_initial_condition():
    for p in (TABLE3, TABLE4):
        assert exact_delayed(p, 0.0) == 1.0


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_exact_refuses_a_non_finite_t(t):
    with pytest.raises(UsageError, match=r"^t must be finite$"):
        exact_delayed(TABLE3, t)


def test_exact_fixed_point_when_a_equals_b():
    # eps = alpha - beta makes H(0)=1 the attractor itself
    p = DelayedParams(0.6, 0.3, 0.5, 0.3)
    for t in (0.0, 0.7, 2.0, 10.0):
        assert exact_delayed(p, t) == pytest.approx(1.0, abs=1e-14)


def test_exact_reproduces_bundled_entries():
    assert exact_delayed(TABLE3, 0.4) == pytest.approx(1.065476869, abs=5e-9)
    assert exact_delayed(DelayedParams(0.5, 0.3, 0.25, 0.1), 0.4) == pytest.approx(
        1.042243490, abs=5e-9
    )
    assert exact_delayed(TABLE4, 2.0) == pytest.approx(2.480426774, abs=5e-9)


def test_exact_degenerate_branch():
    # alpha == beta: H(t) = (1 + 2*b*t) ** -0.5 exactly
    p = DelayedParams(0.5, 0.5, 0.5, 0.15)
    b = 0.15 / 0.75
    assert exact_delayed(p, 2.0) == pytest.approx((1 + 2 * b * 2.0) ** -0.5, rel=1e-14)


def test_exact_blowup_region_raises():
    with pytest.warns(ParameterRangeWarning):
        p = DelayedParams(1.0, 0.5, 0.5, -0.15)  # negative damping blows up
    assert exact_delayed(p, 1.0) > 1.0
    with pytest.raises(DomainError):
        exact_delayed(p, 2.0)


def test_exact_keeps_the_sign_of_a_negative_start():
    p = DelayedParams(0.5, 0.3, 0.25, 0.05, H0=-1.0)
    assert exact_delayed(p, 0.4) == pytest.approx(solve_delayed(p, 40).eval(0.4), abs=1e-9)
    assert exact_delayed(p, 0.4) == -exact_delayed(TABLE3, 0.4)


def test_exact_zero_start_is_the_equilibrium():
    p = DelayedParams(0.5, 0.3, 0.25, 0.05, H0=0.0)
    for t in (0.0, 0.4, 2.0, 1e4):
        assert exact_delayed(p, t) == 0.0


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_exact_beyond_the_exp_range():
    # a = -432.8, so exp(-2*a*t) leaves the float range from t = 0.82 on
    p = DelayedParams(-400.0, 0.3, 0.25, 0.05)
    # flow property: restarting from H(0.8) reaches H(1.2) without overflow
    restarted = DelayedParams(-400.0, 0.3, 0.25, 0.05, H0=exact_delayed(p, 0.8))
    assert exact_delayed(p, 1.2) == pytest.approx(exact_delayed(restarted, 0.4), rel=1e-12)
    assert exact_delayed(p, 2.0) == 0.0
    # 1 - H0**2 * b/a < 0: the solution blew up long before
    with pytest.raises(DomainError):
        exact_delayed(DelayedParams(-400.0, 0.3, 0.25, -500.0), 2.0)


@pytest.mark.parametrize("alpha", [
    math.nextafter(0.3, 1.0),
    math.nextafter(math.nextafter(0.3, 1.0), 1.0),
    0.3 + 1e-13,
])
def test_exact_keeps_its_accuracy_when_a_is_tiny(alpha):
    # b/a + (1 - b/a)*exp(-2at) cancelled: 2.1e-2 off at t = 0.4 for alpha = beta + 1 ulp
    p = DelayedParams(alpha, 0.3, 0.25, 0.05)
    ts = [0.4, 0.8, 1.2, 1.6, 2.0]
    for t, (want,) in zip(ts, rk4_values(p, ts, 1e-4)):
        assert abs(exact_delayed(p, t) - want) <= 1e-12


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
@pytest.mark.parametrize("alpha", [5e-324, 1e-310, -1e-310])
def test_exact_takes_a_subnormal_a(alpha):
    # b/a overflows to inf here, and -2*a*t is a subnormal or zero
    p = DelayedParams(alpha, 0.0, 0.25, 0.05)
    ts = [0.1, 0.4, 2.0]
    for t, (want,) in zip(ts, rk4_values(p, ts, 1e-3)):
        assert abs(exact_delayed(p, t) - want) <= 1e-12


def test_exact_refuses_a_start_whose_square_overflows():
    # H0**2 = inf made q infinite, and H = H0 * q**-0.5 a silent 0.0
    p = DelayedParams(0.5, 0.3, 0.25, 0.05, H0=-1e200)
    for t in (0.0, 0.4, 2.0):
        with pytest.raises(DomainError, match="overflows"):
            exact_delayed(p, t)


def decimal_q(p, t):
    """``q = H0**2 * w`` in 700-digit decimals, from the float a, b of ``p``.

    At a = 0, q is ``1 + 2*b*H0**2*t``.

    ``w = b/a + (H0**-2 - b/a) * exp(-2*a*t)`` cancels to about 300 digits at
    t = 1e-300, so 700 digits leave the float's 17 intact.
    """
    with localcontext(DECIMAL):
        a, b = map(Decimal, reduced_delayed_coeffs(p))
        H0, t = Decimal(p.H0), Decimal(t)
        if a == 0:
            return 1 + 2 * b * H0 * H0 * t
        e = (-2 * a * t).exp()
        return e + H0 * H0 * b / a * (1 - e)


def decimal_exact_delayed(p, t):
    """The closed form ``H0 * q**-0.5`` in 700-digit decimals, q from :func:`decimal_q`."""
    with localcontext(DECIMAL):
        return float(Decimal(p.H0) / decimal_q(p, t).sqrt())


HUGE_A = DelayedParams(1e308, 0.3, 0.25, 0.05)  # a = 1.08e308
with warnings.catch_warnings():
    warnings.simplefilter("ignore", ParameterRangeWarning)
    HUGE_B = DelayedParams(0.5, 0.3, 0.25, 1e308)  # b = 1.08e308
    HUGE_NEGATIVE_A = DelayedParams(-1e308, 0.3, 0.25, 0.05)  # a = -1.08e308
    HUGE_B_H0 = DelayedParams(0.5, 0.3, 0.25, 1e308, H0=2.0)  # b*H0**2 overflows
    HUGE_B_H0_LIMIT = DelayedParams(10.0, 0.3, 0.25, 1e308, H0=10.0)  # a*t and the limit H0**2 * b/a overflow
    HUGE_NEGATIVE_B = DelayedParams(0.5, 0.3, 0.25, -1e308)  # b = -1.08e308, positive b*t at negative t


@pytest.mark.parametrize("p, t", [(HUGE_A, t) for t in (0.0, 1e-300, 1e-100, 1e-5, 1.0, 2.0)]
                         + [(HUGE_B, t) for t in (0.0, 1e-300, 1e-100, 1e-5, 1.0, 2.0)]
                         + [(HUGE_NEGATIVE_A, t) for t in (1e-300, 1.0, 2.0)]
                         + [(HUGE_B_H0, t) for t in (0.0, 1e-300, 1.0)]
                         + [(HUGE_B_H0_LIMIT, 1e308), (HUGE_NEGATIVE_B, -1.0)])
def test_exact_takes_a_huge_reduced_coefficient(p, t):
    # 2*a and 2*b overflowed first: inf*0.0 made q nan at t = 0, and with huge a q was 0.0 where a*t overflows;
    # with huge b, q overflowed to inf at t = 1 (at t = 1e-300 with H0 = 2) and H read 0.0, and with H0 = 2,
    # inf*0.0 made q nan at t = 0; with huge negative a, x = -2*(a*t) overflowed to inf at t = 1, exp(x)
    # returned inf without raising, and q was nan; where the limit H0**2 * b/a overflowed at x = -inf, or b and t
    # were both negative, q was inf and H read 0.0
    if p is HUGE_NEGATIVE_A:  # H is below the smallest subnormal, where the decimal exponent would overflow
        assert exact_delayed(p, t) == 0.0
        return
    want = decimal_exact_delayed(p, t)
    assert abs(exact_delayed(p, t) - want) <= 1e-12 * want
    if t == 0.0:
        assert exact_delayed(p, t) == p.H0


with warnings.catch_warnings():
    warnings.simplefilter("ignore", ParameterRangeWarning)
    BEYOND_THE_FLOAT_RANGE = [
        # q = H0**2 * w below the smallest normal float: subnormal, then 0.0
        (DelayedParams(-10.0, 1.0, 0.05, -5e-324, H0=10.0), -1e10),
        (DelayedParams(-0.3, 1e-300, 0.0, -5e-324), -1e100),
        (DelayedParams(1.0, 1e308, -0.0, -0.05, H0=1e-100), -0.05),
        (DelayedParams(-1e100, -0.5, 2.0, -1e-300, H0=0.5), -2.0),
        # a subnormal q = exp(x) + 2*(b*H0**2*t)*g whose second term is below exp(x) by more than the float range
        (DelayedParams(0.5, 0.0, 0.0, 5e-324, H0=1e-200), 720.0),
        # b = 0, so q = exp(-2*a*t): subnormal, then 0.0
        (DelayedParams(1.0, 0.5, 0.25, 0.0, H0=1e-200), 647.5),
        (DelayedParams(1.0, 0.5, 0.25, 0.0, H0=1e-200), 700.0),
        # q overflows with a huge H0, in the a = 0 form and at x = -2*a*t = -1e-15
        (DelayedParams(1e307, 1e307, 5e-324, 1e308, H0=1e150), 1e307),
        (DelayedParams(5e-324, 0.0, -1.7e308, 1e200, H0=1e150), 1e308),
    ]


@pytest.mark.parametrize("p, t", BEYOND_THE_FLOAT_RANGE)
def test_exact_takes_q_beyond_the_float_range_in_log_space(p, t):
    # a subnormal q was 2% and 5% off at t = -1e10 and -1e100 and 1.3e-3 off at t = 647.5; a q of 0.0 raised
    # DomainError for a finite solution; with H0 = 1e150, H0 * exp(-0.5*log q) underflowed to 0.0 before H0 scaled it
    want = decimal_exact_delayed(p, t)
    assert abs(exact_delayed(p, t) - want) <= 1e-12 * abs(want)


with warnings.catch_warnings():
    warnings.simplefilter("ignore", ParameterRangeWarning)
    # a < 0 and b < 0: H0**2 * b/a = 1 is an unstable equilibrium, where the two terms of q cancel
    NEAR_EQUILIBRIUM = DelayedParams(-0.9702748543934043, 0.0, 0.0, -1.0, H0=0.9850253064735973)
    NEAR_AN_UNSTABLE_EQUILIBRIUM = [
        (NEAR_EQUILIBRIUM, 20.0), (NEAR_EQUILIBRIUM, 100.0), (NEAR_EQUILIBRIUM, 400.0),
        (DelayedParams(-3.4660180792803144, 0.0, 0.0, -1.0, H0=1.8617244907021862), 400.0),
        (DelayedParams(-1.0, 1e-05, 1e-300, -1e-300, H0=1e150), 647.5),
        (DelayedParams(-1.0, 0.0, 0.0, -0.9999999999999999), 20.0),
        # d = 1 - H0**2 * b/a = -1e300 and q = 1 + d*expm1(700) are both far past the float range
        (DelayedParams(-1.0, 0.0, 0.0, -1e-8, H0=1e154), 350.0),
    ]


@pytest.mark.parametrize("p, t", NEAR_AN_UNSTABLE_EQUILIBRIUM)
def test_exact_near_an_unstable_equilibrium(p, t):
    # q = exp(x) - |2*b*H0**2*t*g| cancelled: 0.348 for 0.784 at t = 20, DomainError for 2.5e-34 at t = 100, and
    # H0 for 9.7e-161 at t = 400, where H0**2 * b/a read 1.0 after rounding; H0 where the solution had blown up;
    # 4.5e-12 off at t = 647.5; and 0.102 for 0.192 at t = 20, as `table --methods exact` printed it
    if decimal_q(p, t) <= 0:
        with pytest.raises(DomainError, match="blows up"):
            exact_delayed(p, t)
        return
    want = decimal_exact_delayed(p, t)
    assert abs(exact_delayed(p, t) - want) <= 1e-12 * abs(want)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
@pytest.mark.parametrize("a, H0, t", [
    (-249.38819542739196, 2.0 ** 507, 1.3112041134199588),
    (-4.94549385766983e-07, 2.0 ** -317, 335659579.70390505),
    (0.08808686603708828, -(2.0 ** -198), -2396.615367723062),
    (0.21340128356632773, 2.0 ** 236, -1027.4576617348448),
])
def test_exact_stays_at_an_equilibrium_of_many_digits(a, H0, t):
    # H0**2 * b/a = 1 exactly, but H0**2 * b has hundreds of significant digits, so that ratio taken to 80 digits
    # need not be 1, and the error grows as exp(-2*a*t): 2.0e50 for 4.2e152 at t = 1.31
    p = DelayedParams(a, 0.0, 0.0, a / (H0 * H0), H0=H0)
    assert p.eps * (H0 * H0) == a
    assert exact_delayed(p, t) == H0


with warnings.catch_warnings():
    warnings.simplefilter("ignore", ParameterRangeWarning)
    A_TERM_THAT_LOST_BITS = [
        # b*t underflows to 0.0, so q = exp(x) + 2*(b*H0**2*t)*g read 0.0: a false DomainError
        (DelayedParams(1e33, 0, 0, 1e-300), 1e-30, 3.1622776602e166),
        (DelayedParams(-1e33, 0, 0, -1e-300), -1e-30, 3.1622776602e166),
        (DelayedParams(1e200, 0, 0, 1e-200, H0=1e20), 1e-130, 1e200),
        # b*H0**2 = 1e-320 is subnormal, with three digits: 1.0000055665e55
        (DelayedParams(1e-90, 0, 0, 1e-200, H0=1e-60), 1e100, 1e55),
        # H0**2 = 1e-320 is subnormal, so the normal b*H0**2 = 1e-20 is 3.7e-6 off, and so is H
        (DelayedParams(0.5, 0.5, 0, 1e300, H0=1e-160), 1e20, 5.7735026919e-161),
    ]


@pytest.mark.parametrize("p, t, value", A_TERM_THAT_LOST_BITS)
def test_exact_takes_a_term_that_lost_bits_in_decimals(p, t, value):
    want = decimal_exact_delayed(p, t)
    assert want == pytest.approx(value, rel=1e-10)
    assert abs(exact_delayed(p, t) - want) <= 1e-12 * abs(want)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_exact_keeps_its_digits_when_a_is_tiny(monkeypatch):
    # 1 - exp(-2*a*t) loses one digit per leading zero of a*t, so the decimal path adds those digits to its 80:
    # at a fixed 80, a*t below 1e-80 read 1 - exp(x) as 0.  a*t reaches 1e-620 here, so the reference takes
    # 1200 digits where it takes 700 elsewhere
    monkeypatch.setitem(globals(), "DECIMAL", Context(prec=1200, Emax=MAX_EMAX, Emin=MIN_EMIN))
    rng = random.Random(25)

    def draw(lo, hi):
        return rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(lo, hi)

    checked = 0
    while checked < 300:
        p = DelayedParams(draw(-323.5, -250), 0.0, 0.0, draw(-5, 308), H0=draw(-5, 5))
        t = draw(-5, 300)
        try:
            q = decimal_q(p, t)
        except Overflow:  # exp(-2*a*t) is past the decimal exponent range
            continue
        checked += 1
        if q <= 0:
            with pytest.raises(DomainError, match="blows up"):
                exact_delayed(p, t)
            continue
        want = decimal_exact_delayed(p, t)
        if math.isinf(want):
            with pytest.raises(DomainError, match="float range"):
                exact_delayed(p, t)
            continue
        assert abs(exact_delayed(p, t) - want) <= 1e-12 * abs(want), (p, t)


def test_exact_is_the_float_expression_on_scan_and_table_sets():
    # the float path keeps its order of operations, so its values keep their bits
    rng = random.Random(2013)
    sets = [TABLE3, TABLE4, DelayedParams(0.5, 0.3, 0.25, 0.1), DelayedParams(0.5, 0.3, 0.25, 0.15),
            DelayedParams(0.5, 0.3, 0.25, 0.2)]
    while len(sets) < 300:  # in the ranges of the scan workload's delayed draws
        alpha, beta, sigma = (rng.uniform(0.05, 1.0) for _ in range(3))
        if abs(1.0 - beta * sigma) >= 0.5:
            sets.append(DelayedParams(alpha, beta, sigma, rng.uniform(0.01, 0.5)))
    for p in sets:
        a, b = reduced_delayed_coeffs(p)
        for t in [0.05 * i for i in range(11)] + [0.1 * i for i in range(21)]:
            x = -2.0 * (a * t)
            g = math.expm1(x) / x if x else 1.0
            q = math.exp(x) + 2.0 * (b * (p.H0 * p.H0) * t) * g
            assert exact_delayed(p, t).hex() == (p.H0 * q ** -0.5).hex(), (p, t)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_exact_refuses_an_h_past_the_float_range():
    # b = 0: q = exp(-2*a*t) is 0.0 from a*t = 373 on; H = exp(a*t) is 5.1e281 at t = 3000 and overflows at t = 1e4
    p = DelayedParams(0.5, 0.3, 0.25, 0.0)
    assert exact_delayed(p, 3000.0) == pytest.approx(decimal_exact_delayed(p, 3000.0), rel=1e-12)
    with pytest.raises(DomainError, match="float range"):
        exact_delayed(p, 1e4)


def test_decimal_reference_agrees_on_table_sets():
    for p in (TABLE3, TABLE4, DelayedParams(0.5, 0.3, 0.25, 0.1, H0=-2.0)):
        for t in (0.0, 0.4, 2.0):
            assert decimal_exact_delayed(p, t) == pytest.approx(exact_delayed(p, t), rel=1e-14)


def test_exact_satisfies_the_ode_by_central_differences():
    rng = random.Random(41)
    checked = 0
    while checked < 100:
        p = draw_delayed(rng)
        t = rng.uniform(0.05, 2.0)
        step = 1e-5
        try:
            deriv = (exact_delayed(p, t + step) - exact_delayed(p, t - step)) / (2 * step)
            value = exact_delayed(p, t)
        except DomainError:
            continue
        assert deriv == pytest.approx(delayed_rhs(p, value), abs=1e-6)
        checked += 1


def test_exact_monotone_toward_attractor_on_table_sets():
    for p in (TABLE3, TABLE4, DelayedParams(0.5, 0.3, 0.25, 0.1), DelayedParams(1, 0.5, 0.5, 0.1)):
        values = [exact_delayed(p, 0.02 * i) for i in range(101)]
        assert all(b > a for a, b in zip(values, values[1:]))


# -- RK4 ----------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_rk4_constant_for_zero_parameters():
    states = rk4_values(CoupledParams(0, 0, 0, 0, 0.0), [0.1 * i for i in range(11)], 0.1)
    assert set(states) == {(1.0, 1.0)}


def test_rk4_matches_exact_on_table3():
    ts = [1e-3 * i for i in range(2001)]
    worst = max(abs(H - exact_delayed(TABLE3, t)) for t, (H,) in zip(ts, rk4_values(TABLE3, ts, 1e-3)))
    assert worst <= 1e-9


def test_rk4_agrees_with_converged_series_coupled():
    truth = rk4_values(TABLE1, [1.0], step=1e-4)[0][0]
    series_value = solve_coupled(TABLE1, 60).H.eval(1.0)
    assert series_value == pytest.approx(truth, abs=1e-6)


@pytest.mark.parametrize("eps", [0.1, 0.2])
def test_decimal_taylor_reference_agrees_with_rk4_on_table1(eps):
    p = CoupledParams(1, 1, 1, 1, eps)
    ts = [0.2 * i for i in range(6)]
    for ref, rk4 in zip(decimal_taylor_states(p, ts), rk4_values(p, ts, 1e-4)):
        assert max(abs(x - y) for x, y in zip(ref, rk4)) <= 1e-12


def test_decimal_taylor_reference_agrees_with_exact_on_table3():
    p = DelayedParams(0.5, 0.3, 0.25, 0.1)
    ts = [0.4 * i for i in range(6)]
    for t, (H,) in zip(ts, decimal_taylor_states(p, ts)):
        assert abs(H - exact_delayed(p, t)) <= 1e-15


def test_rk4_halving_reduces_error_fourth_order():
    # one requested time: a grid [i*h] would make ceil split gaps such as
    # 0.6000000000000001 - 0.4 into two steps, and the ratio would leave [12, 20]
    errs = [abs(rk4_values(TABLE3, [2.0], step)[0][0] - exact_delayed(TABLE3, 2.0)) for step in (0.2, 0.1)]
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_rk4_argument_validation():
    with pytest.raises(UsageError):
        rk4_values(TABLE3, [1.0], 0.0)
    with pytest.raises(UsageError):
        rk4_values(TABLE3, [-1.0], 0.1)


def test_rk4_blowup_names_failure():
    with pytest.warns(ParameterRangeWarning):
        p = CoupledParams(1, 0, 0, 0, -1.0)  # anti-damping: finite-time blow-up
    with pytest.raises(DomainError):
        rk4_values(p, [2.0], 0.01)


def test_rk4_values_hits_requested_nodes():
    states = rk4_values(TABLE3, [0.0, 0.7, 1.3, 2.0], step=1e-3)
    for t, state in zip([0.0, 0.7, 1.3, 2.0], states):
        assert state[0] == pytest.approx(exact_delayed(TABLE3, t), abs=1e-10)


def test_rk4_values_validation():
    with pytest.raises(UsageError):
        rk4_values(TABLE3, [0.5, 0.5])
    with pytest.raises(UsageError):
        rk4_values(TABLE3, [-0.1, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rk4_values_refuses_non_finite_times(bad):
    # a NaN time used to come back silently as the initial state
    for p in (TABLE1, TABLE3):
        for ts in ([bad], [0.0, 0.5, bad]):
            with pytest.raises(UsageError):
                rk4_values(p, ts)


@pytest.mark.parametrize("bad", ["0.5", None])
def test_oracles_refuse_times_and_steps_that_are_no_real_numbers(bad):
    # each raised a plain TypeError
    with pytest.raises(UsageError, match=f"^t must be a real number, got {bad!r}$"):
        exact_delayed(TABLE3, bad)
    for p in (TABLE1, TABLE3):
        with pytest.raises(UsageError, match=f"^times must be a real number, got {bad!r}$"):
            rk4_values(p, [0.5, bad])
        with pytest.raises(UsageError, match=f"^step must be a real number, got {bad!r}$"):
            rk4_values(p, [0.5], bad)


def test_oracles_take_any_real_number():
    # a Decimal time or step failed on its first float operation
    for t in (Fraction(1, 2), Decimal("0.5")):
        assert exact_delayed(TABLE3, t) == exact_delayed(TABLE3, 0.5)
        for p in (TABLE1, TABLE3):
            assert rk4_values(p, [t], t / 8) == rk4_values(p, [0.5], 0.0625)
    assert exact_delayed(TABLE3, True) == exact_delayed(TABLE3, 1) == exact_delayed(TABLE3, 1.0)


def test_rk4_refuses_a_nan_step():
    with pytest.raises(UsageError):
        rk4_values(TABLE3, [1.0], math.nan)
    with pytest.raises(UsageError):
        rk4_values(TABLE1, [0.5], math.nan)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, 0.0, -1e308])
def test_rk4_refuses_a_step_that_is_not_positive_and_finite(bad):
    # an infinite step used to be taken as one RK4 step per requested time
    for p in (TABLE1, TABLE3):
        with pytest.raises(UsageError):
            rk4_values(p, [1.0], bad)
        with pytest.raises(UsageError):
            rk4_values(p, [0.5, 1.0], bad)


def test_rk4_refuses_a_step_too_small_for_its_span(monkeypatch):
    # span / step overflowed to inf, and rounding it raised a bare OverflowError
    calls = []
    for name in ("coupled_rhs", "delayed_rhs"):
        rhs = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *args, rhs=rhs: calls.append(args) or rhs(*args))
    for p in (TABLE1, TABLE3):
        with pytest.raises(UsageError, match="too small"):
            rk4_values(p, [1.0], 5e-324)
        # a span as small as the step is one step
        calls.clear()
        assert len(rk4_values(p, [5e-324], 5e-324)) == 1 and len(calls) == 4


def test_rk4_refuses_a_huge_finite_step_count():
    # about 1e300 steps, each count finite: refused, not run
    for p in (TABLE1, TABLE3):
        with pytest.raises(UsageError, match="exceed the limit"):
            rk4_values(p, [1.0], 1e-300)
        with pytest.raises(UsageError, match="exceed the limit"):
            rk4_values(p, [0.5, 1.0], 1e-300)
        with pytest.raises(UsageError, match="exceed the limit"):
            rk4_values(p, [1e308], 1.0)


def test_rk4_step_limit_counts_every_gap_before_the_first_step(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "delayed_rhs", lambda p, H: calls.append(H) or delayed_rhs(p, H))
    monkeypatch.setattr(errors, "MAX_STEPS", 4)
    assert len(rk4_values(TABLE3, [1.0], 0.25)) == 1  # 4 steps: at the limit
    assert len(rk4_values(TABLE3, [0.0, 0.5, 1.0], 0.25)) == 3  # 2 + 2
    taken = len(calls)
    assert taken == 4 * 8
    with pytest.raises(UsageError, match="^5 RK4 steps exceed the limit of 4$"):
        rk4_values(TABLE3, [1.25], 0.25)
    with pytest.raises(UsageError, match="^5 RK4 steps"):
        rk4_values(TABLE3, [0.5, 1.25], 0.25)  # 2 + 3: each gap alone is within it
    assert len(calls) == taken


def test_rk4_takes_a_finite_step_wider_than_the_span():
    # the step only bounds the sub-steps: 1e308 gives one step per gap
    assert rk4_values(TABLE3, [1.0], 1e308) == rk4_values(TABLE3, [1.0], 1.0)
    assert rk4_values(TABLE1, [0.5, 1.0], 1e308) == rk4_values(TABLE1, [0.5, 1.0], 0.5)


# -- RK4 against the generic stepper over the model right-hand sides ----


def reference_rk4_steps(f, state, t, h, n):
    """Classical RK4 through a state-tuple right-hand side ``f``; yields each state."""
    for _ in range(n):
        k1 = f(state)
        k2 = f(tuple(y + 0.5 * h * d for y, d in zip(state, k1)))
        k3 = f(tuple(y + 0.5 * h * d for y, d in zip(state, k2)))
        k4 = f(tuple(y + h * d for y, d in zip(state, k3)))
        state = tuple(
            y + h * (a + 2.0 * b + 2.0 * c + d) / 6.0
            for y, a, b, c, d in zip(state, k1, k2, k3, k4)
        )
        t += h
        if not all(math.isfinite(x) for x in state):
            raise DomainError(f"integration blew up near t={t}")
        yield state


def reference_rhs(p):
    if isinstance(p, CoupledParams):
        return lambda s: coupled_rhs(p, s[0], s[1]), (p.H0, p.h0)
    return lambda s: (delayed_rhs(p, s[0]),), (p.H0,)


def reference_rk4_values(p, ts, step):
    f, state = reference_rhs(p)
    out, t_prev = [], 0.0
    for t in ts:
        span = t - t_prev
        if span > 0.0:
            n = max(1, math.ceil(span / step))
            for state in reference_rk4_steps(f, state, t_prev, span / n, n):
                pass
        out.append(state)
        t_prev = t
    return out


def bits(run):
    """Every state as exact hex floats, or the type and message of the error."""
    try:
        return [tuple(x.hex() for x in s) for s in run()]
    except DomainError as exc:
        return ("DomainError", str(exc))


# Mostly integrable draws, so long runs of steps get compared; negative eps
# and large starts still blow up often enough to compare the errors too.
wide = st.floats(-2.0, 2.0)
cubic = st.floats(-0.5, 1.0)
rk4_coupled = st.builds(CoupledParams, wide, wide, wide, wide, cubic, H0=wide, h0=wide)


@st.composite
def rk4_delayed(draw):
    alpha, beta, sigma = draw(wide), draw(wide), draw(wide)
    assume(abs(1.0 - beta * sigma) >= 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterRangeWarning)
        return DelayedParams(alpha, beta, sigma, draw(cubic), H0=draw(wide))


rk4_params = st.one_of(rk4_coupled, rk4_delayed())
rk4_steps = st.floats(2e-3, 0.5)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", ParameterRangeWarning)
    ANTI_DAMPED = CoupledParams(1, 0, 0, 0, -1.0)
    ANTI_DAMPED_DELAYED = DelayedParams(1.0, 0.5, 0.5, -0.15, H0=2.0)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
@settings(max_examples=150, deadline=None)
@given(rk4_params, st.floats(0.0, 3.0), rk4_steps)
@example(ANTI_DAMPED, 2.0, 0.01)
@example(ANTI_DAMPED_DELAYED, 2.0, 0.01)
def test_rk4_states_are_bit_identical_to_the_generic_stepper(p, t_end, step):
    # every multiple of the step up to t_end requested, so every step's state is compared
    ts = [i * step for i in range(round(t_end / step) + 1)]
    want = bits(lambda: reference_rk4_values(p, ts, step))
    assert bits(lambda: rk4_values(p, ts, step)) == want


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
@settings(max_examples=150, deadline=None)
@given(rk4_params, st.lists(st.floats(0.0, 3.0), max_size=6, unique=True), rk4_steps)
@example(ANTI_DAMPED, [0.5, 2.0], 0.01)
@example(ANTI_DAMPED_DELAYED, [1.0, 2.0], 0.01)
def test_rk4_values_are_bit_identical_to_the_generic_stepper(p, ts, step):
    ts = sorted(ts)
    want = bits(lambda: reference_rk4_values(p, ts, step))
    assert bits(lambda: rk4_values(p, ts, step)) == want


def test_generic_stepper_comparison_sees_blowups():
    # the examples above must exercise the error path, message included
    for p in (ANTI_DAMPED, ANTI_DAMPED_DELAYED):
        got = bits(lambda: rk4_values(p, [2.0], 0.01))
        assert got[0] == "DomainError" and "blew up near t=" in got[1]


@pytest.mark.parametrize("p", [ANTI_DAMPED, ANTI_DAMPED_DELAYED])
@pytest.mark.parametrize("ts", [[0.1, 0.25, 3.0], [0.05, 0.2, 2.0]])
def test_a_blow_up_in_a_later_gap_names_the_summed_clock(p, ts):
    # the steppers keep no clock: the message adds h to the gap's start once per
    # step taken, as the reference does, which is not the gap's start plus k*h here
    got = bits(lambda: rk4_values(p, ts, 0.01))
    assert got == bits(lambda: reference_rk4_values(p, ts, 0.01))
    assert got[0] == "DomainError"
    t = float(got[1].rpartition("t=")[2])
    span = ts[2] - ts[1]
    h = span / math.ceil(span / 0.01)
    assert ts[1] < t < ts[2] and t != ts[1] + round((t - ts[1]) / h) * h


@pytest.mark.parametrize("p", [TABLE1, TABLE3])
def test_every_rk4_step_calls_the_right_hand_side_four_times(p, monkeypatch):
    # the benchmark counts right-hand-side calls through the oracle module's
    # globals and expects four per step
    calls = []
    name = "coupled_rhs" if isinstance(p, CoupledParams) else "delayed_rhs"
    rhs = getattr(oracle, name)
    monkeypatch.setattr(oracle, name, lambda *args: calls.append(args) or rhs(*args))
    assert len(rk4_values(p, [1.0], 0.1)) == 1
    assert len(calls) == 4 * 10
    calls.clear()
    # gaps 0, 0.25, 0.5 and 0.75 at step 0.2: 0 + 2 + 3 + 4 steps
    assert len(rk4_values(p, [0.0, 0.25, 0.75, 1.5], 0.2)) == 4
    assert len(calls) == 4 * 9
    calls.clear()
    rk4_values(p, [0.5], 1.0)
    assert len(calls) == 4


# -- residuals ----------------------------------------------------------


def test_residual_of_transform_output_is_tiny():
    assert residual_check(solve_coupled(TABLE1, 25), TABLE1) <= 1e-10
    assert residual_check(solve_delayed(TABLE3, 25), TABLE3) <= 1e-10


def test_residual_of_the_constant_guess():
    cap = 6
    ones = SolutionPair(SeriesPoly.monomial(1.0, 0, cap), SeriesPoly.monomial(1.0, 0, cap))
    # both equations contribute; h' + theta + gamma = 2 dominates here
    assert residual_check(ones, TABLE1) == pytest.approx(2.0, abs=1e-15)
    # with light damping the H-equation defect |c + eta - eps| = 1.9 wins
    light = CoupledParams(1, 1, 0.5, 0.5, 0.1)
    assert residual_check(ones, light) == pytest.approx(1.9, abs=1e-15)


def test_residual_detects_a_perturbed_coefficient():
    series = solve_delayed(TABLE3, 12)
    coeffs = list(series.coeffs)
    coeffs[3] += 1e-3
    assert residual_check(SeriesPoly(tuple(coeffs)), TABLE3) >= 1e-4


def test_residual_check_cannot_see_a_transform_truncation_error():
    # residual_check reads the coefficients below the cap, and the DTM recurrence zeroes those by
    # construction: an order-5 series scores exactly 0.0 while it misses the closed form at t = 2
    p = DelayedParams(0.5, 0.3, 0.25, 0.1)  # table 3's constants at eps 0.1
    series = solve_delayed(p, 5)
    assert residual_check(series, p) == 0.0
    assert abs(series.eval(2.0) - exact_delayed(p, 2.0)) > 1e-4
    # a VIM iterate is not a Taylor section, so its low coefficients leave a residual to see
    assert residual_check(vim_solve(p, 3), p) > 1e-5


def test_residual_overflow_is_a_numeric_error():
    # the cube of 1e120 leaves the float range at degree 0
    with pytest.raises(SeriesOverflowError) as err:
        residual_check(SeriesPoly((1e120,) * 6), TABLE3)
    assert err.value.index == 0
    big = SeriesPoly((1e120,) * 6)
    with pytest.raises(SeriesOverflowError):
        residual_check(SolutionPair(big, big), TABLE1)


def test_residual_overflow_at_the_cap_is_seen():
    # only a*H[1] overflows, at the cap, beyond the inspected coefficient 0
    with pytest.raises(SeriesOverflowError) as err:
        residual_check(SeriesPoly((0.0, 1e308)), DelayedParams(4.0, 0.3, 0.25, 0.05))
    assert err.value.index == 1


def test_residual_model_mismatches():
    series = solve_delayed(TABLE3, 8)
    with pytest.raises(UsageError):
        residual_check(series, TABLE1)
    with pytest.raises(UsageError):
        residual_check(solve_coupled(TABLE1, 8), TABLE3)


# -- the one-pass residual against the series-operation residual ---------


def reference_residual_check(solution, params):
    """``residual_check`` as series operations: the pushed-through series, then a running max.

    The cube comes from the plain loops of :func:`conftest.plain_cube`, not
    from the series products ``residual_check`` uses.
    """
    if isinstance(solution, SolutionPair):
        if not isinstance(params, CoupledParams):
            raise UsageError("a solution pair needs coupled parameters")
        H, h = solution.H, solution.h
        res1 = H.derivative() - (H.scale(params.c) + h.scale(params.eta) - plain_cube(H).scale(params.eps))
        res2 = h.derivative() - (H.scale(-params.theta) - h.scale(params.gamma))
        residuals = (res1, res2)
    else:
        if not isinstance(params, DelayedParams):
            raise UsageError("a scalar series needs delayed parameters")
        a, b = reduced_delayed_coeffs(params)
        H = solution
        residuals = (H.derivative() - (H.scale(a) - plain_cube(H).scale(b)),)
    worst = 0.0
    for res in residuals:
        for c in res.coeffs[: res.cap]:
            worst = max(worst, abs(c))
    return worst


def residual_bits(check, solution, params):
    """The residual as an exact hex float, or the class of the typed error."""
    try:
        return check(solution, params).hex()
    except (UsageError, SeriesOverflowError) as exc:
        return type(exc).__name__


# Unit-sized coefficients with signed zeros; in some series one coefficient is
# huge, so that the cube, a scaled term or the derivative overflows.
unit_coeff = st.one_of(st.floats(-3.0, 3.0), st.just(0.0), st.just(-0.0))
huge_coeff = st.sampled_from([1e120, -1e150, 1e200, 1.7e308]) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def residual_series(draw, cap):
    coeffs = draw(st.lists(unit_coeff, min_size=cap + 1, max_size=cap + 1))
    if draw(st.integers(0, 3)) == 0:
        coeffs[draw(st.integers(0, cap))] = draw(huge_coeff)
    return SeriesPoly(tuple(coeffs))


@st.composite
def residual_case(draw):
    """(solution, params) for either model, at a cap 1..40."""
    cap = draw(st.integers(1, 40))
    if draw(st.booleans()):
        solution = SolutionPair(draw(residual_series(cap)), draw(residual_series(cap)))
        params = draw(rk4_coupled)
    else:
        solution, params = draw(residual_series(cap)), draw(rk4_delayed())
    return solution, params


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
@settings(max_examples=300, deadline=None)
@given(residual_case())
@example((SeriesPoly((1e120,) * 6), TABLE3))
@example((SeriesPoly((0.0, 1e308)), DelayedParams(4.0, 0.3, 0.25, 0.05)))
def test_residual_is_bit_identical_to_the_series_operations(case):
    want = residual_bits(reference_residual_check, *case)
    assert residual_bits(residual_check, *case) == want


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_residual_is_bit_identical_on_random_draws():
    rng = random.Random(404)
    for _ in range(300):
        cap = rng.randint(1, 40)
        series = [SeriesPoly(tuple(rng.uniform(-3.0, 3.0) for _ in range(cap + 1))) for _ in range(2)]
        if rng.random() < 0.5:
            p = CoupledParams(*(rng.uniform(-2.0, 2.0) for _ in range(4)), rng.uniform(-0.5, 1.0))
            solution = SolutionPair(*series)
        else:
            p, solution = draw_delayed(rng), series[0]
        want = residual_bits(reference_residual_check, solution, p)
        assert residual_bits(residual_check, solution, p) == want


def test_residual_comparison_sees_overflows():
    # the examples above must reach the overflow path on both sides
    for series, p in [(SeriesPoly((1e120,) * 6), TABLE3),
                      (SeriesPoly((0.0, 1e308)), DelayedParams(4.0, 0.3, 0.25, 0.05))]:
        assert residual_bits(reference_residual_check, series, p) == "SeriesOverflowError"
