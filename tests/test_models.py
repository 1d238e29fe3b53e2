"""Parameter types, validation behavior, and the delayed-model normalization."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from ensoseries import (
    CoupledParams,
    DelayedParams,
    ParameterRangeWarning,
    SeriesPoly,
    SingularModelError,
    SolutionPair,
    UsageError,
)
from ensoseries.models import coupled_rhs, delayed_rhs, reduced_delayed_coeffs


def test_reduced_coeffs_table3_constants():
    # hand algebra: a = (0.5-0.3)/(1-0.075), b = 0.05/(1-0.075)
    a, b = reduced_delayed_coeffs(DelayedParams(0.5, 0.3, 0.25, 0.05))
    assert a == pytest.approx(0.2 / 0.925, rel=1e-15)
    assert b == pytest.approx(0.05 / 0.925, rel=1e-15)


def test_reduced_coeffs_alpha_equals_beta():
    a, b = reduced_delayed_coeffs(DelayedParams(0.7, 0.7, 0.5, 0.05))
    assert a == 0.0
    assert b == pytest.approx(0.05 / 0.65, rel=1e-15)


def test_reduced_coeffs_table4_constants():
    a, b = reduced_delayed_coeffs(DelayedParams(1.0, 0.5, 0.5, 0.1))
    assert a == pytest.approx(0.5 / 0.75, rel=1e-15)
    assert b == pytest.approx(0.1 / 0.75, rel=1e-15)


def test_reduced_coeffs_scale_consistency():
    lam = 3.0
    base = DelayedParams(0.9, 0.4, 0.5, 0.2)
    scaled = DelayedParams(0.4 + lam * 0.5, 0.4, 0.5, lam * 0.2)
    a0, b0 = reduced_delayed_coeffs(base)
    a1, b1 = reduced_delayed_coeffs(scaled)
    assert a1 == pytest.approx(lam * a0, rel=1e-14)
    assert b1 == pytest.approx(lam * b0, rel=1e-14)


def test_singular_model_rejected():
    with pytest.raises(SingularModelError):
        DelayedParams(0.5, 2.0, 0.5, 0.05)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
@pytest.mark.parametrize("args", [
    (0.5, 1e308, 10.0, 0.05),  # 1 - beta*sigma = -inf made (a, b) = (0.0, -0.0)
    (1.5e308, 0.5, 1.9999, 0.05),  # a = inf
    (1e308, -1e308, 0.25, 0.05),  # alpha - beta = inf
    (0.5, 0.3, 0.25, 1.7e308),  # b = inf
])
def test_an_overflowing_reduction_is_refused(args):
    with pytest.raises(SingularModelError, match="overflows"):
        DelayedParams(*args)


@pytest.mark.filterwarnings("ignore::ensoseries.ParameterRangeWarning")
def test_the_largest_finite_reductions_build():
    assert reduced_delayed_coeffs(DelayedParams(1e308, 0.3, 0.25, 0.05))[0] == (1e308 - 0.3) / 0.925
    assert reduced_delayed_coeffs(DelayedParams(0.5, 0.3, 0.25, 1e308))[1] == 1e308 / 0.925


def test_non_finite_parameters_rejected():
    with pytest.raises(UsageError):
        CoupledParams(math.nan, 1, 1, 1, 0.1)
    with pytest.raises(UsageError):
        DelayedParams(1.0, math.inf, 0.5, 0.1)


@pytest.mark.parametrize("bad", ["0.5", None])
def test_parameters_that_are_no_real_numbers_are_refused(bad):
    # a string was parsed as a float, None raised a plain TypeError
    with pytest.raises(UsageError, match=f"^eps must be a real number, got {bad!r}$"):
        CoupledParams(1, 1, 1, 1, bad)
    with pytest.raises(UsageError, match=f"^beta must be a real number, got {bad!r}$"):
        DelayedParams(1.0, bad, 0.5, 0.1)


def test_parameters_take_any_real_number():
    assert CoupledParams(Fraction(1, 2), Decimal("0.5"), 1, True, 0.1) == CoupledParams(0.5, 0.5, 1.0, 1.0, 0.1)


def test_eps_outside_unit_interval_warns():
    with pytest.warns(ParameterRangeWarning):
        CoupledParams(1, 1, 1, 1, eps=1.5)
    with pytest.warns(ParameterRangeWarning):
        CoupledParams(1, 1, 1, 1, eps=-0.1)


def test_non_positive_delayed_parameters_warn_but_build():
    with pytest.warns(ParameterRangeWarning):
        p = DelayedParams(-0.5, 0.3, 0.25, 0.05)
    assert p.alpha == -0.5


def test_tabulated_ranges_stay_silent():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        CoupledParams(1, 1, 1, 1, 0.05)
        CoupledParams(2, 1, 1, 1, 0.2)
        DelayedParams(0.5, 0.3, 0.25, 0.1)


def test_solution_pair_requires_matching_series():
    H = SeriesPoly((1.0, 2.0))
    with pytest.raises(UsageError):
        SolutionPair(H, SeriesPoly((1.0, 2.0, 3.0)))
    with pytest.raises(UsageError):
        SolutionPair(SeriesPoly((1.0, 2.0, 3.0)), H)


def test_pointwise_rhs():
    p = CoupledParams(1, 1, 1, 1, 0.1)
    dH, dh = coupled_rhs(p, 1.0, 1.0)
    assert dH == pytest.approx(1.9)
    assert dh == pytest.approx(-2.0)
    d = DelayedParams(0.5, 0.3, 0.25, 0.05)
    assert delayed_rhs(d, 1.0) == pytest.approx(0.15 / 0.925, rel=1e-14)


def test_delayed_rhs_uses_the_reduced_coefficients_exactly():
    # delayed_rhs reads a, b cached on the parameters; the cache must not
    # change its values or the parameters' equality, hash and repr
    d = DelayedParams(0.7, 0.3, 0.25, 0.15, H0=-2.0)
    before = (repr(d), hash(d))
    a, b = reduced_delayed_coeffs(d)
    for H in (0.0, -0.0, 1.0, -1.3, 3.7e-5, 1e100):
        assert delayed_rhs(d, H).hex() == (a * H - b * (H * H * H)).hex()
    assert (repr(d), hash(d)) == before
    assert d == DelayedParams(0.7, 0.3, 0.25, 0.15, H0=-2.0)
