"""Truncated power series arithmetic against hand and brute-force oracles."""

import math
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ensoseries import SeriesOverflowError, SeriesPoly, UsageError
from ensoseries.series import _cube, _live_degree, _product
from conftest import plain_convolution, plain_product
from test_pinned_bits import SPECIAL


def poly(*coeffs):
    return SeriesPoly(tuple(float(c) for c in coeffs))


def naive_convolution(a, b):
    """Brute-force truncated product: the oracle for cauchy_mul."""
    out = [0.0] * len(a)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < len(out):
                out[i + j] += ai * bj
    return out


# -- construction and invariants --------------------------------------


def test_rejects_non_finite_coefficients():
    with pytest.raises(UsageError):
        poly(1.0, math.nan)
    with pytest.raises(UsageError):
        poly(math.inf)
    with pytest.raises(UsageError):
        SeriesPoly(())


def test_overflow_in_an_operation_is_a_numeric_error():
    with pytest.raises(SeriesOverflowError) as err:
        SeriesPoly((1e200,)) * SeriesPoly((1e200,))
    assert err.value.index == 0
    # caller-supplied non-finite values stay usage errors
    with pytest.raises(UsageError):
        SeriesPoly((math.inf,))
    with pytest.raises(UsageError):
        poly(1, 2).scale(math.inf)


@pytest.mark.parametrize("op, index", [
    (lambda s: s + s, 2),
    (lambda s: s - s.scale(-1.0), 2),
    (lambda s: s.scale(4.0), 2),
    (lambda s: s.derivative(), 1),
    (lambda s: s.cauchy_mul(poly(0, 4, 0, 0)), 3),
    (lambda s: s.cube(), 2),
], ids=["add", "sub", "scale", "derivative", "cauchy_mul", "cube"])
def test_an_overflowing_result_names_its_coefficient(op, index):
    # one coefficient near the float maximum: only the result's index `index` overflows
    s = poly(1, 0, 1e308, 0)
    with pytest.raises(SeriesOverflowError) as err:
        op(s)
    assert err.value.index == index
    assert math.isinf(err.value.value)


def test_a_finite_result_whose_magnitudes_overflow_in_sum_passes():
    # the one-pass check sums magnitudes; a sum past the float range alone is no error
    assert poly(1e308, -1e308).scale(1.5).coeffs == (1.5e308, -1.5e308)


def test_is_immutable():
    s = poly(1, 2)
    with pytest.raises(AttributeError):
        s.coeffs = (0.0, 0.0)


def test_cap_counts_highest_degree():
    assert poly(1, 2, 3).cap == 2


# -- add / scale -------------------------------------------------------


def test_add_identity():
    assert (poly(1, 1) + poly(0, 0)).coeffs == (1.0, 1.0)


def test_add_termwise():
    assert (poly(1, 2) + poly(3, 4)).coeffs == (4.0, 6.0)


def test_add_inverse():
    assert (poly(1, -1, 0.5) + poly(-1, 1, -0.5)).coeffs == (0.0, 0.0, 0.0)


def test_add_rejects_mismatched_operands():
    with pytest.raises(UsageError):
        poly(1, 2) + poly(1, 2, 3)
    with pytest.raises(UsageError):
        poly(1, 2, 3) - poly(1, 2)
    with pytest.raises(UsageError):
        poly(1, 2) * poly(1, 2, 3)


def test_neg_flips_every_sign():
    assert repr((-SeriesPoly((1.0, -0.0, 2.5))).coeffs) == repr((-1.0, 0.0, -2.5))


@pytest.mark.parametrize("op, method", [
    (lambda s: s + None, "__add__"),
    (lambda s: s - None, "__sub__"),
    (lambda s: s * None, "__mul__"),
], ids=["add", "sub", "mul"])
def test_a_non_series_operand_is_a_type_error(op, method):
    assert getattr(poly(1, 2), method)(None) is NotImplemented
    with pytest.raises(TypeError):
        op(poly(1, 2))


def test_scale():
    assert poly(1, 2).scale(1.0).coeffs == (1.0, 2.0)
    assert poly(1, 2).scale(0.0).coeffs == (0.0, 0.0)
    assert (-2 * poly(1, 2, 3)).coeffs == (-2.0, -4.0, -6.0)
    with pytest.raises(UsageError):
        poly(1, 2).scale(math.inf)


# -- convolution product ----------------------------------------------


def test_mul_squares_one_plus_t():
    assert (poly(1, 1, 0) * poly(1, 1, 0)).coeffs == (1.0, 2.0, 1.0)


def test_mul_identity_both_sides():
    one = SeriesPoly.monomial(1.0, 0, 4)
    a = poly(3, -1, 2, 0.5, 7)
    assert (a * one).coeffs == a.coeffs
    assert (one * a).coeffs == a.coeffs


def test_mul_matches_convolution_oracle():
    a = [1.0, 2.0, 3.0, 0.0, 0.0]
    b = [4.0, 5.0, 6.0, 0.0, 0.0]
    expected = naive_convolution(a, b)
    assert expected == [4.0, 13.0, 28.0, 27.0, 18.0]
    assert (poly(*a) * poly(*b)).coeffs == tuple(expected)


def test_mul_truncates_high_degrees():
    # degree-2 cap: the t^2 cross terms beyond the cap vanish silently
    assert (poly(0, 1, 1) * poly(0, 1, 1)).coeffs == (0.0, 0.0, 1.0)


def test_mul_commutes_and_associates():
    rng = random.Random(7)
    for _ in range(30):
        a = poly(*[rng.uniform(-2, 2) for _ in range(6)])
        b = poly(*[rng.uniform(-2, 2) for _ in range(6)])
        c = poly(*[rng.uniform(-2, 2) for _ in range(6)])
        ab, ba = a * b, b * a
        for x, y in zip(ab.coeffs, ba.coeffs):
            assert x == pytest.approx(y, rel=1e-13, abs=1e-15)
        left, right = (a * b) * c, a * (b * c)
        for x, y in zip(left.coeffs, right.coeffs):
            assert x == pytest.approx(y, rel=1e-13, abs=1e-13)


# Signed zeros, values hypothesis likes (often short binary fractions, whose
# sums are exact in any order) and values with every mantissa bit drawn.
signed = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3),
                   st.integers(-2**62, 2**62).map(lambda n: n / 2**52))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 64).flatmap(lambda cap: st.tuples(
    st.lists(signed, min_size=cap + 1, max_size=cap + 1), st.lists(signed, min_size=cap + 1, max_size=cap + 1))))
def test_mul_is_bit_identical_to_the_plain_double_loop(ab):
    a, b = ab
    got = SeriesPoly(tuple(a)).cauchy_mul(SeriesPoly(tuple(b))).coeffs
    assert [x.hex() for x in got] == [x.hex() for x in plain_convolution(a, b)]


def product_bits(op):
    """Exact hex coefficients of a product, or the index of its overflow."""
    try:
        return [x.hex() for x in op()]
    except SeriesOverflowError as exc:
        return exc.index


# The top of a live prefix: a signed zero, a subnormal or a plain value.
top_coeff = st.sampled_from([-0.0, 5e-324, -5e-324, 2.0**-1070, -(2.0**-1050)]) | st.floats(-1e3, 1e3)
body_coeff = signed | st.sampled_from([5e-324, -5e-324])
huge_coeff = st.sampled_from([1e160, -1e200, 1.7e308])


@st.composite
def zero_tailed(draw, cap):
    """``cap + 1`` coefficients: a live prefix, its top drawn apart, then a +0.0 tail.

    In one prefix of four, one coefficient is huge, so that a product overflows.
    """
    live = draw(st.integers(0, cap))
    prefix = draw(st.lists(body_coeff, min_size=live, max_size=live)) + [draw(top_coeff)]
    if draw(st.integers(0, 3)) == 0:
        prefix[draw(st.integers(0, live))] = draw(huge_coeff)
    return tuple(prefix + [0.0] * (cap - live))


# No shrink phase: a wrong product fails within seconds rather than minutes of
# shrinking 70-coefficient operands.
@settings(max_examples=400, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(st.integers(0, 69).flatmap(lambda cap: st.tuples(zero_tailed(cap), zero_tailed(cap))))
def test_zero_tails_are_skipped_bit_for_bit(ab):
    # the products sum only below the live degrees, four coefficients per sweep
    # where they can; the plain loops sum every term, one coefficient at a time.
    # Lengths 1-70 and independent live degrees end the four-wide blocks at
    # every residue mod 4.
    a, b = ab
    A, B = SeriesPoly(a), SeriesPoly(b)
    assert product_bits(lambda: A.cauchy_mul(B).coeffs) == product_bits(lambda: plain_product(a, b))
    assert product_bits(lambda: B.cauchy_mul(A).coeffs) == product_bits(lambda: plain_product(b, a))
    assert product_bits(lambda: A.cauchy_mul(A).coeffs) == product_bits(lambda: plain_product(a, a))
    assert product_bits(lambda: A.cube().coeffs) == product_bits(lambda: plain_product(a, a, a))


def test_every_block_start_and_window_seed_at_small_caps_bit_for_bit():
    # at caps 0..11, every pair of live degrees and every da, db from them up
    # to the cap runs each four-wide block start, window seed b[k+1..k+3] and
    # head term.  Each operand's live prefix takes -0.0 and both 5e-324 at
    # seeded places, and a takes one huge value, which the swapped product
    # reads through the window; no product overflows.
    rng = random.Random(32)

    def operand(cap, live):
        prefix = [rng.uniform(-4.0, 4.0) for _ in range(live + 1)]
        for x in (-0.0, 5e-324, -5e-324):
            prefix[rng.randint(0, live)] = x
        return prefix + [0.0] * (cap - live)

    for cap in range(12):
        for la in range(cap + 1):
            for lb in range(cap + 1):
                a, b = operand(cap, la), operand(cap, lb)
                a[rng.randint(0, la)] = rng.choice((1e200, -1e160))
                a, b = tuple(a), tuple(b)
                for x, y in ((a, b), (b, a)):
                    want = [c.hex() for c in plain_product(x, y)]
                    for dx in range(_live_degree(x), cap + 1):
                        for dy in range(_live_degree(y), cap + 1):
                            assert [c.hex() for c in _product(x, y, dx, dy)] == want, (cap, x, y, dx, dy)


def cube_bits(op):
    """Exact hex coefficients of a cube, or the index and value of its overflow."""
    try:
        return [x.hex() for x in op()]
    except SeriesOverflowError as exc:
        return exc.index, exc.value.hex()


@st.composite
def special_prefixed(draw):
    """A live prefix of plain values with up to three pinned-bits ``SPECIAL`` values, then a +0.0 tail."""
    cap = draw(st.integers(0, 70))
    live = draw(st.integers(0, cap))
    prefix = draw(st.lists(st.floats(-4.0, 4.0), min_size=live + 1, max_size=live + 1))
    for i, x in draw(st.lists(st.tuples(st.integers(0, live), st.sampled_from(SPECIAL)), max_size=3)):
        prefix[i] = x
    return tuple(prefix + [0.0] * (cap - live))


@settings(max_examples=400, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(special_prefixed().flatmap(lambda H: st.tuples(st.just(H), st.integers(_live_degree(H), len(H) - 1))))
def test_tuple_cube_is_the_chained_product_bit_for_bit(Hd):
    # cube() and VIM steps cube with _cube; the live degree, or any larger index
    # up to the cap, gives the bits and the overflow of two chained cauchy_mul
    H, d = Hd
    A = SeriesPoly(H)
    want = cube_bits(lambda: A.cauchy_mul(A).cauchy_mul(A).coeffs)
    assert cube_bits(lambda: A.cube().coeffs) == want
    assert cube_bits(lambda: _cube(H, _live_degree(H))) == want
    assert cube_bits(lambda: _cube(H, d)) == want


def test_mul_exact_on_small_integers():
    # integer coefficients stay exact, so commutativity is literal equality
    a = poly(1, -2, 3, 4)
    b = poly(5, 0, -1, 2)
    assert (a * b).coeffs == (b * a).coeffs


# -- cube ---------------------------------------------------------------


def test_cube_of_one():
    assert poly(1, 0, 0, 0).cube().coeffs == (1.0, 0.0, 0.0, 0.0)


def test_cube_binomial():
    assert poly(1, 1, 0, 0).cube().coeffs == (1.0, 3.0, 3.0, 1.0)


def test_cube_linear_coefficient_is_3_w0sq_w1():
    rng = random.Random(11)
    for _ in range(50):
        w = [rng.uniform(-2, 2) for _ in range(4)]
        cubed = poly(*w).cube()
        assert cubed.coeffs[1] == pytest.approx(3 * w[0] ** 2 * w[1], rel=1e-13, abs=1e-13)


def expanded_cube_coefficients(w):
    """Hand-expanded triple products through degree 5 (the oracle)."""
    w0, w1, w2, w3, w4, w5 = w
    return [
        w0 ** 3,
        3 * w0 ** 2 * w1,
        3 * w0 * w1 ** 2 + 3 * w0 ** 2 * w2,
        3 * w0 ** 2 * w3 + 6 * w0 * w1 * w2 + w1 ** 3,
        3 * w0 * w2 ** 2 + 3 * w1 ** 2 * w2 + 3 * w0 ** 2 * w4 + 6 * w0 * w1 * w3,
        3 * w1 * w2 ** 2 + 3 * w1 ** 2 * w3 + 3 * w0 ** 2 * w5 + 6 * w0 * w1 * w4 + 6 * w0 * w2 * w3,
    ]


def test_cube_matches_expanded_forms_to_degree_5():
    rng = random.Random(23)
    for _ in range(100):
        w = [rng.uniform(-2, 2) for _ in range(6)]
        cubed = poly(*w).cube()
        for k, expected in enumerate(expanded_cube_coefficients(w)):
            assert cubed.coeffs[k] == pytest.approx(expected, rel=1e-12, abs=1e-12)


# -- calculus -----------------------------------------------------------


def test_antiderivative_of_constant():
    assert poly(1, 0).antiderivative().coeffs == (0.0, 1.0)


def test_antiderivative_power_rule():
    assert poly(0, 2, 0).antiderivative().coeffs == (0.0, 0.0, 1.0)
    a0, a1, a2 = 3.0, -1.0, 8.0
    assert poly(a0, a1, a2).antiderivative().coeffs == (0.0, a0, a1 / 2)


def test_derivative_of_constant_and_square():
    assert poly(5, 0, 0).derivative().coeffs == (0.0, 0.0, 0.0)
    assert poly(0, 0, 1).derivative().coeffs == (0.0, 2.0, 0.0)


def test_derivative_of_antiderivative_round_trip():
    rng = random.Random(3)
    a = poly(*[rng.uniform(-5, 5) for _ in range(8)])
    back = a.antiderivative().derivative()
    assert back.coeffs[:-1] == a.coeffs[:-1]
    assert back.coeffs[-1] == 0.0


# -- monomial -----------------------------------------------------------


def test_monomial_placement():
    assert SeriesPoly.monomial(5.0, 0, 3).coeffs == (5.0, 0.0, 0.0, 0.0)
    assert SeriesPoly.monomial(1.0, 2, 3).coeffs == (0.0, 0.0, 1.0, 0.0)
    assert SeriesPoly.monomial(0.0, 1, 1).coeffs == (0.0, 0.0)


def test_monomial_rejects_degree_above_cap():
    with pytest.raises(UsageError):
        SeriesPoly.monomial(1.0, 4, 3)


def test_monomial_rejects_a_negative_cap():
    with pytest.raises(UsageError, match=r"^cap must be >= 0$"):
        SeriesPoly.monomial(1.0, 0, -1)


# -- evaluation ---------------------------------------------------------


def test_eval_at_expansion_point():
    assert poly(1, 1, 0.5).eval(0.0) == 1.0
    assert poly(-0.0, 1, 0.5).eval(0.0) == 0.0
    assert math.copysign(1.0, poly(-0.0, 1, 0.5).eval(-0.0)) == -1.0


def test_eval_simple_line():
    assert poly(1, 2).eval(0.5) == 2.0
    assert poly(1, 2).eval(2) == poly(1, 2)(True) + 2.0 == 5.0


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_eval_refuses_a_non_finite_t(t):
    with pytest.raises(UsageError, match=f"^t must be finite, got {t!r}$"):
        poly(1, 2).eval(t)


def test_eval_matches_naive_power_sum():
    rng = random.Random(19)
    for _ in range(40):
        coeffs = [rng.uniform(-3, 3) for _ in range(10)]
        t = rng.uniform(-2, 2)
        naive = sum(c * t ** k for k, c in enumerate(coeffs))
        horner = SeriesPoly(tuple(coeffs)).eval(t)
        assert horner == pytest.approx(naive, rel=1e-13, abs=1e-13)


def test_eval_is_additive():
    rng = random.Random(29)
    for _ in range(30):
        a = poly(*[rng.uniform(-2, 2) for _ in range(7)])
        b = poly(*[rng.uniform(-2, 2) for _ in range(7)])
        t = rng.uniform(-1.5, 1.5)
        assert (a + b).eval(t) == pytest.approx(a.eval(t) + b.eval(t), rel=1e-12, abs=1e-12)
