"""Decomposition components against brute-force expansion and hand integrals."""

import random

import pytest

from ensoseries import (
    CoupledParams,
    DelayedParams,
    SeriesPoly,
    UsageError,
    adm_solve_coupled,
    adm_solve_delayed,
)
from ensoseries import adm
from ensoseries.dtm import transform_coupled
from ensoseries.models import reduced_delayed_coeffs
from conftest import adm_dtm_draws, draw_coupled

TABLE1 = CoupledParams(1, 1, 1, 1, 0.1)
TABLE3 = DelayedParams(0.5, 0.3, 0.25, 0.05)


def adomian_cubic(components: tuple[SeriesPoly, ...] | list[SeriesPoly], k: int) -> SeriesPoly:
    """k-th Adomian polynomial of the cube nonlinearity, over dense components.

    ``A_k = sum_{i+j+l=k} u_i * u_j * u_l`` over the given components.
    """
    if k < 0:
        raise UsageError("k must be >= 0")
    if k >= len(components):
        raise UsageError(f"A_{k} needs components 0..{k}, got {len(components)}")
    acc = SeriesPoly((0.0,) * (components[0].cap + 1))
    for i in range(k + 1):
        # pairwise convolution over component index at i, then close with u_l
        pair = SeriesPoly((0.0,) * (components[0].cap + 1))
        for j in range(k - i + 1):
            pair = pair + components[j].cauchy_mul(components[k - i - j])
        acc = acc + components[i].cauchy_mul(pair)
    return acc


def mono(value, degree, cap=6):
    return SeriesPoly.monomial(value, degree, cap)


def test_a0_is_cube_of_first_component():
    a0 = adomian_cubic([SeriesPoly.monomial(1.0, 0, 4)], 0)
    assert a0.coeffs == (1.0, 0.0, 0.0, 0.0, 0.0)


def test_a1_is_3_u0sq_u1():
    comps = [SeriesPoly.monomial(1.0, 0, 4), SeriesPoly.monomial(1.0, 1, 4)]
    a1 = adomian_cubic(comps, 1)
    assert a1.coeffs == (0.0, 3.0, 0.0, 0.0, 0.0)


def test_a2_hand_expansion():
    # sum over i+j+l=2: 3*u0^2*u2 + 3*u0*u1^2 = 1.5 t^2 + 3 t^2 = 4.5 t^2
    comps = [mono(1.0, 0), mono(1.0, 1), mono(0.5, 2)]
    a2 = adomian_cubic(comps, 2)
    assert a2.coeffs[2] == pytest.approx(4.5, abs=1e-15)
    assert all(c == 0.0 for k, c in enumerate(a2.coeffs) if k != 2)


def test_missing_components_rejected():
    with pytest.raises(UsageError):
        adomian_cubic([SeriesPoly.monomial(1.0, 0, 4)], 1)
    with pytest.raises(UsageError):
        adomian_cubic([SeriesPoly.monomial(1.0, 0, 4)], -1)


def brute_force_triple_sum(comps, m):
    """All triple products with index sum <= m, by raw triple loop."""
    total = SeriesPoly((0.0,) * (comps[0].cap + 1))
    for i in range(m + 1):
        for j in range(m + 1):
            for l in range(m + 1):
                if i + j + l <= m:
                    total = total + comps[i].cauchy_mul(comps[j]).cauchy_mul(comps[l])
    return total


def test_partial_sums_match_brute_force_trinomial_expansion():
    rng = random.Random(31)
    m = 4
    for _ in range(50):
        comps = [
            SeriesPoly(tuple(rng.uniform(-1, 1) for _ in range(9)))
            for _ in range(m + 1)
        ]
        total = SeriesPoly((0.0,) * 9)
        for k in range(m + 1):
            total = total + adomian_cubic(comps, k)
        oracle = brute_force_triple_sum(comps, m)
        for got, want in zip(total.coeffs, oracle.coeffs):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def components(series: SeriesPoly) -> tuple[SeriesPoly, ...]:
    """The n components of an n-term ADM series: component k is ``SeriesPoly.monomial(w_k, k, n)``."""
    n = len(series.coeffs)
    return tuple(SeriesPoly.monomial(w, k, n) for k, w in enumerate(series.coeffs))


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_zero_parameters_leave_only_the_constant():
    sol = adm_solve_coupled(CoupledParams(0, 0, 0, 0, 0.0), 3)
    assert sol.H.coeffs[1:] == (0.0, 0.0) and sol.h.coeffs[1:] == (0.0, 0.0)


def test_first_integration_step_coupled():
    sol = adm_solve_coupled(TABLE1, 2)
    assert sol.H.coeffs == (1.0, 1.9)
    assert sol.h.coeffs == (1.0, -2.0)


def test_first_integration_step_delayed():
    series = adm_solve_delayed(TABLE3, 2)
    assert series.coeffs[1] == pytest.approx(0.15 / 0.925, rel=1e-14)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_delayed_zero_rhs_components():
    series = adm_solve_delayed(DelayedParams(0.7, 0.7, 0.5, 0.0), 3)
    assert series.coeffs[1:] == (0.0, 0.0)


def test_partial_sum_reaches_table1_value():
    for n in (15, 20):
        sol = adm_solve_coupled(TABLE1, n)
        assert sol.H.eval(0.2) == pytest.approx(1.363075110, abs=1e-7)


def test_partial_sum_reaches_table3_value():
    p = DelayedParams(0.5, 0.3, 0.25, 0.1)
    series = adm_solve_delayed(p, 20)
    assert series.eval(0.4) == pytest.approx(1.042243491, abs=1e-7)


def test_each_component_is_the_matching_taylor_monomial():
    rng = random.Random(53)
    for _ in range(10):
        p = draw_coupled(rng)
        n = 10
        sol = adm_solve_coupled(p, n)
        r = transform_coupled(p, n - 1)
        assert sol.H.coeffs == r.W
        assert sol.h.coeffs == r.V


def _dense_recursion_gap(p, sol, n_terms):
    """Largest relative gap between components 1..n_terms-1 and their rebuilds.

    Component k+1 is rebuilt by integrating the model's right-hand side over
    the dense components 0..k, with ``A_k`` from :func:`adomian_cubic`: an
    oracle that shares no code with the solver's scalar cube accumulator.
    """
    if isinstance(sol, SeriesPoly):
        u_all, v_all = components(sol), None
    else:
        u_all, v_all = components(sol.H), components(sol.h)
    worst = 0.0
    for k in range(n_terms - 1):
        # component k+1 has degree k+1, so cap k+1 suffices
        u = [SeriesPoly(c.coeffs[: k + 2]) for c in u_all[: k + 2]]
        a_k = adomian_cubic(u[: k + 1], k)
        if v_all is None:
            a, b = reduced_delayed_coeffs(p)
            pairs = [(u[k + 1], (u[k].scale(a) - a_k.scale(b)).antiderivative())]
        else:
            v = [SeriesPoly(c.coeffs[: k + 2]) for c in v_all[: k + 2]]
            pairs = [
                (u[k + 1], (u[k].scale(p.c) + v[k].scale(p.eta) - a_k.scale(p.eps)).antiderivative()),
                (v[k + 1], (u[k].scale(-p.theta) + v[k].scale(-p.gamma)).antiderivative()),
            ]
        for got, want in pairs:
            for g, w in zip(got.coeffs, want.coeffs):
                worst = max(worst, abs(g - w) / max(1.0, abs(w)))
    return worst


def _scalar_recursion_gap(p, sol):
    """Largest relative gap between every component weight and its rebuild.

    Weight k+1 is rebuilt from the solver's weights 0..k, with the weight of
    ``A_k`` a plain triple sum over ``i+j+l = k``: cheap enough for every
    component, and it shares no code with the solver's cube accumulator.
    """
    if isinstance(sol, SeriesPoly):
        u, v = sol.coeffs, None
    else:
        u, v = sol.H.coeffs, sol.h.coeffs
    worst = 0.0
    for k in range(len(u) - 1):
        a_k = sum(u[i] * u[j] * u[k - i - j] for i in range(k + 1) for j in range(k - i + 1))
        if v is None:
            a, b = reduced_delayed_coeffs(p)
            pairs = [(u[k + 1], (a * u[k] - b * a_k) / (k + 1))]
        else:
            pairs = [
                (u[k + 1], (p.c * u[k] + p.eta * v[k] - p.eps * a_k) / (k + 1)),
                (v[k + 1], (-p.theta * u[k] - p.gamma * v[k]) / (k + 1)),
            ]
        for got, want in pairs:
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst


def test_solver_recursion_reproducible_with_standalone_polynomials():
    # recompute every component from the previous ones via adomian_cubic
    p = CoupledParams(0.8, -0.4, 0.3, 1.2, 0.25)
    n = 8
    sol = adm_solve_coupled(p, n)
    u, v = components(sol.H), components(sol.h)
    assert len(u) == len(v) == n
    for k in range(n - 1):
        a_k = adomian_cubic(u[: k + 1], k)
        expect_u = (u[k].scale(p.c) + v[k].scale(p.eta) - a_k.scale(p.eps)).antiderivative()
        expect_v = (u[k].scale(-p.theta) + v[k].scale(-p.gamma)).antiderivative()
        assert u[k + 1].coeffs == pytest.approx(expect_u.coeffs, rel=1e-13, abs=1e-13)
        assert v[k + 1].coeffs == pytest.approx(expect_v.coeffs, rel=1e-13, abs=1e-13)
    # criterion 4's draws: the dense oracle costs O(k**2) series products per
    # component, so it stops at component 11; the scalar one covers all 0..ADM_K_MAX
    for q, (sol, _) in adm_dtm_draws():
        assert _dense_recursion_gap(q, sol, 12) <= 1e-13
        assert _scalar_recursion_gap(q, sol) <= 1e-13


def test_solve_preconditions(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a count out of range must be refused before any solve")

    monkeypatch.setattr(adm, "solve_coupled", no_solve)
    monkeypatch.setattr(adm, "solve_delayed", no_solve)
    for solve, p in ((adm_solve_coupled, TABLE1), (adm_solve_delayed, TABLE3)):
        for n_terms in (0, 2002):
            with pytest.raises(UsageError, match=r"^n_terms must be in 1\.\.2001$"):
                solve(p, n_terms)
