"""Exact closed form, RK4 reference, and residual diagnostics."""

import random
import warnings

import pytest

from ensoseries import (
    CoupledParams,
    DelayedParams,
    DomainError,
    ParameterRangeWarning,
    SeriesPoly,
    SolutionPair,
    Trajectory,
    UsageError,
    delayed_rhs,
    exact_delayed,
    residual_check,
    rk4,
    rk4_values,
    solve_coupled,
    solve_delayed,
)
from conftest import draw_delayed

TABLE1 = CoupledParams(1, 1, 1, 1, 0.1)
TABLE3 = DelayedParams(0.5, 0.3, 0.25, 0.05)
TABLE4 = DelayedParams(1.0, 0.5, 0.5, 0.05)


# -- closed form --------------------------------------------------------


def test_exact_initial_condition():
    for p in (TABLE3, TABLE4):
        assert exact_delayed(p, 0.0) == 1.0


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
    traj = rk4(CoupledParams(0, 0, 0, 0, 0.0), 1.0, 0.1)
    assert set(traj.H) == {1.0}
    assert set(traj.h) == {1.0}


def test_rk4_matches_exact_on_table3():
    traj = rk4(TABLE3, 2.0, 1e-3)
    worst = max(abs(H - exact_delayed(TABLE3, t)) for t, H in zip(traj.ts, traj.H))
    assert worst <= 1e-9


def test_rk4_agrees_with_converged_series_coupled():
    truth = rk4_values(TABLE1, [1.0], step=1e-4)[0][0]
    series_value = solve_coupled(TABLE1, 60).H.eval(1.0)
    assert series_value == pytest.approx(truth, abs=1e-6)


def test_rk4_halving_reduces_error_fourth_order():
    errs = []
    for step in (0.2, 0.1):
        traj = rk4(TABLE3, 2.0, step)
        errs.append(max(abs(H - exact_delayed(TABLE3, t)) for t, H in zip(traj.ts, traj.H)))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_rk4_argument_validation():
    with pytest.raises(UsageError):
        rk4(TABLE3, 1.0, 0.0)
    with pytest.raises(UsageError):
        rk4(TABLE3, -1.0, 0.1)


def test_rk4_blowup_names_failure():
    with pytest.warns(ParameterRangeWarning):
        p = CoupledParams(1, 0, 0, 0, -1.0)  # anti-damping: finite-time blow-up
    with pytest.raises(DomainError):
        rk4(p, 2.0, 0.01)


def test_rk4_values_hits_requested_nodes():
    states = rk4_values(TABLE3, [0.0, 0.7, 1.3, 2.0], step=1e-3)
    for t, state in zip([0.0, 0.7, 1.3, 2.0], states):
        assert state[0] == pytest.approx(exact_delayed(TABLE3, t), abs=1e-10)


def test_rk4_values_validation():
    with pytest.raises(UsageError):
        rk4_values(TABLE3, [0.5, 0.5])
    with pytest.raises(UsageError):
        rk4_values(TABLE3, [-0.1, 0.5])


def test_trajectory_invariants():
    with pytest.raises(UsageError):
        Trajectory((0.0, 0.0), ((1.0,), (1.0,)), 0.1)
    with pytest.raises(UsageError):
        Trajectory((0.0,), ((1.0,), (1.0,)), 0.1)
    scalar = Trajectory((0.0, 1.0), ((1.0,), (1.1,)), 1.0)
    with pytest.raises(UsageError):
        scalar.h


# -- residuals ----------------------------------------------------------


def test_residual_of_transform_output_is_tiny():
    assert residual_check(solve_coupled(TABLE1, 25), TABLE1) <= 1e-10
    assert residual_check(solve_delayed(TABLE3, 25), TABLE3) <= 1e-10


def test_residual_of_the_constant_guess():
    cap = 6
    ones = SolutionPair(SeriesPoly.constant(1.0, cap), SeriesPoly.constant(1.0, cap))
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


def test_residual_upto_validation_and_mismatches():
    series = solve_delayed(TABLE3, 8)
    with pytest.raises(UsageError):
        residual_check(series, TABLE3, upto=8)
    with pytest.raises(UsageError):
        residual_check(series, TABLE1)
    with pytest.raises(UsageError):
        residual_check(solve_coupled(TABLE1, 8), TABLE3)
