"""The moment functional, M-expressions, and the executable lemma checks.

An M-expression is built only by its constructor and ``*``: u + M is
``MExpression({0: u, 1: one})`` and its powers are running products.
"""

import math
from itertools import accumulate, repeat
from operator import mul

import pytest

from lacunary import Rational
from lacunary.hermite import hermite_h, m_moment
from lacunary.poly import UPolynomial
from lacunary.series import TruncSeries
from lacunary.umbral import (
    MExpression,
    exp_of_m_power,
    umbral_eval,
    verify_corollary_and_ecor,
    verify_lemma_fm_i,
    verify_lemma_fm_ii,
)

from helpers import check_eval_linearity


def scalar_series(value, order=4):
    return TruncSeries.from_poly(UPolynomial.constant(value), order)


def umbra(order, vars=("z",)):
    """The bare umbra M."""
    return MExpression({1: TruncSeries.one(order, vars)})


def plus_m(series):
    """series + M."""
    return MExpression({0: series, 1: TruncSeries.one(series.order, series.vars)})


def powers(expr, top):
    """expr^0, expr^1, ..., expr^top as running products."""
    one = MExpression({0: TruncSeries.one(expr.order, expr.vars)})
    return list(accumulate(repeat(expr, top), mul, initial=one))


def test_eval_monomials():
    M = powers(umbra(4), 6)
    assert umbral_eval(M[2]) == scalar_series(1)
    assert umbral_eval(M[5]) == TruncSeries.zero(4)
    assert umbral_eval(M[6]) == scalar_series(15)


def test_eval_u_plus_m_square():
    u_plus_m = plus_m(TruncSeries.from_poly(UPolynomial.u(), 4))
    expected = TruncSeries.from_poly(UPolynomial({(2, 0): 1, (0, 0): 1}), 4)
    assert umbral_eval(u_plus_m * u_plus_m) == expected


def test_eval_u_plus_m_gives_hermite():
    order = 2
    u_plus_m = plus_m(TruncSeries.from_poly(UPolynomial.u(), order))
    for n, power in enumerate(powers(u_plus_m, 16)):
        assert umbral_eval(power) == TruncSeries.from_poly(hermite_h(n), order)


def test_eval_m_power_equals_h_at_zero():
    for n, power in enumerate(powers(umbra(3), 16)):
        got = umbral_eval(power)
        assert got.constant_coefficient() == UPolynomial.constant(hermite_h(n).coefficient(0))


def test_exp_of_linear_M_structure():
    z = TruncSeries.variable("z", 2)
    e = exp_of_m_power(z, 1)
    assert e.coefficient(0) == TruncSeries.one(2)
    assert e.coefficient(1) == z
    assert e.coefficient(2) == TruncSeries.monomial((2,), Rational(1, 2), 2)


def test_eval_exp_mz_is_exp_half_z_squared():
    order = 8
    z = TruncSeries.variable("z", order)
    lhs = umbral_eval(exp_of_m_power(z, 1))
    rhs = TruncSeries(order, {(2,): UPolynomial.constant(Rational(1, 2))}).exp()
    assert lhs == rhs


def test_eval_exp_m_of_sum_of_variables():
    order = 6
    vars = ("z", "x")
    z = TruncSeries.variable("z", order, vars)
    x = TruncSeries.variable("x", order, vars)
    lhs = umbral_eval(exp_of_m_power(z + x, 1))
    rhs = (((z + x) * (z + x)) / 2).exp()
    assert lhs == rhs


def test_zero_expression():
    zero = MExpression({0: TruncSeries.zero(3)})
    assert (zero.order, zero.vars) == (3, ("z",))
    assert zero.coefficient(0) == TruncSeries.zero(3)
    assert umbral_eval(zero) == TruncSeries.zero(3)
    assert zero * umbra(3) == zero
    # a zero coefficient is dropped and adds nothing to the evaluation
    m_squared = MExpression({0: TruncSeries.zero(3), 2: TruncSeries.one(3)})
    assert m_squared == MExpression({2: TruncSeries.one(3)})
    assert umbral_eval(m_squared) == TruncSeries.one(3)


def test_exp_of_m_power_degrees():
    # the M-degrees are p*d for d <= N, where z^d is the last nonzero power
    for p in (1, 2, 3):
        for order in range(7):
            z = TruncSeries.variable("z", order)
            e = exp_of_m_power(z, p)
            for k in range(p * (order + 3)):
                d, r = divmod(k, p)
                expected = z**d / math.factorial(d) if r == 0 else TruncSeries.zero(order)
                assert e.coefficient(k) == expected
                assert bool(e.coefficient(k)) == (r == 0 and d <= order)


def test_product_keeps_every_nonzero_m_degree():
    # M^(2i) z^i / i! times M^(3j) x^j / j! survives while i + j <= N, so the
    # top M-degree is 3N (i = 0, j = N) and nothing lies above it up to 6N
    order = 4
    vars = ("z", "x")
    z = TruncSeries.variable("z", order, vars)
    x = TruncSeries.variable("x", order, vars)
    product = exp_of_m_power(z, 2) * exp_of_m_power(x, 3)
    assert product.coefficient(3 * order) == x**order / math.factorial(order)
    for k in range(3 * order + 1, 6 * order + 1):
        assert not product.coefficient(k)


def test_coefficients_must_share_order():
    with pytest.raises(ValueError):
        MExpression({0: TruncSeries.one(3), 1: TruncSeries.one(4)})
    with pytest.raises(ValueError):
        MExpression({-1: TruncSeries.one(3)})


def test_m_degrees_must_be_int():
    for build in (
        lambda: MExpression({1.5: TruncSeries.one(4)}),
        lambda: umbra(4).coefficient(1.0),
        lambda: m_moment(1.5),
    ):
        with pytest.raises(TypeError, match="got float$"):
            build()
    with pytest.raises(ValueError, match="M-degree must be >= 0, got -1$"):
        MExpression({-1: TruncSeries.one(4)})


def test_product_takes_the_smaller_order():
    a = MExpression({0: TruncSeries.one(4)})
    b = MExpression({1: TruncSeries.one(3)})
    for got in (a * b, b * a):
        assert (got.order, got.vars) == (3, ("z",))
    assert a * b == b
    zero = MExpression({0: TruncSeries.zero(4)})
    assert zero * b == b * zero == MExpression({0: TruncSeries.zero(3)})


def test_product_needs_equal_variables():
    two = ("z", "x")
    pairs = [
        (MExpression({0: TruncSeries.zero(3, two)}), umbra(3)),
        (umbra(3, two), umbra(3)),
        (umbra(3, two), MExpression({0: TruncSeries.zero(3)})),
    ]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="incompatible variable sets"):
                x * y


def test_product_takes_only_m_expressions():
    M = umbra(3)
    for other in (2, Rational(1, 2), UPolynomial.u(), TruncSeries.variable("z", 3)):
        for op in (lambda: M * other, lambda: other * M):
            with pytest.raises(TypeError, match="unsupported operand type"):
                op()


def test_exp_of_m_power_requires_zero_constant():
    with pytest.raises(ValueError):
        exp_of_m_power(TruncSeries.one(3), 2)


def test_shift_rule_for_monomials():
    # eval(e^(Mz) M^k) == e^(z^2/2) eval((M+z)^k)
    order = 4
    z = TruncSeries.variable("z", order)
    exp_mz = exp_of_m_power(z, 1)
    gauss = TruncSeries(order, {(2,): UPolynomial.constant(Rational(1, 2))}).exp()
    m_powers = powers(umbra(order), 3 * order)
    shifted_powers = powers(plus_m(z), 3 * order)
    for m_k, shifted_k in zip(m_powers, shifted_powers):
        assert umbral_eval(exp_mz * m_k) == gauss * umbral_eval(shifted_k)


def test_lemma_fm_i_reports():
    for order in (0, 2, 8):
        report = verify_lemma_fm_i(order)
        assert report.verified, report.to_dict()
        assert report.identity == "lemma-fm-i"
        assert report.order == order


def test_lemma_fm_ii_low_coefficients():
    report = verify_lemma_fm_ii(8)
    assert report.verified
    z = TruncSeries.variable("z", 4)
    lhs = umbral_eval(exp_of_m_power(z, 2))
    assert lhs.coefficient((0,)) == UPolynomial.one()
    assert lhs.coefficient((1,)) == UPolynomial.constant(m_moment(2))
    assert lhs.coefficient((2,)) == UPolynomial.constant(Rational(3, 2))


def test_corollary_and_ecor():
    report = verify_corollary_and_ecor(8)
    assert report.verified, report.to_dict()
    assert report.identity == "corollary-ecor"


def test_corollary_x_slice_values():
    # coefficient of x^2 z^0 on both corollary sides is 1/2, and of x^2 z^1
    # in the cube variant it is m_moment(8)/2 = 105/2
    order = 4
    vars = ("z", "x")
    z = TruncSeries.variable("z", order, vars)
    x = TruncSeries.variable("x", order, vars)
    lhs_a = umbral_eval(exp_of_m_power(z, 2) * exp_of_m_power(x, 1))
    assert lhs_a.coefficient((0, 2)) == UPolynomial.constant(Rational(1, 2))
    lhs_b = umbral_eval(exp_of_m_power(z, 2) * exp_of_m_power(x, 3))
    assert lhs_b.coefficient((1, 2)) == UPolynomial.constant(Rational(105, 2))


def test_corollary_x_zero_slice_is_lemma_fm_ii():
    order = 6
    vars = ("z", "x")
    z = TruncSeries.variable("z", order, vars)
    x = TruncSeries.variable("x", order, vars)
    lhs = umbral_eval(exp_of_m_power(z, 2) * exp_of_m_power(x, 1))
    univariate = umbral_eval(exp_of_m_power(TruncSeries.variable("z", order), 2))
    for n in range(order + 1):
        assert lhs.coefficient((n, 0)) == univariate.coefficient((n,))


def test_eval_linearity_randomized():
    check_eval_linearity(300)
