"""Exact rational scalars and sparse u/x polynomial arithmetic."""

from decimal import Decimal

import pytest

from lacunary import Rational
from lacunary.poly import UPolynomial
from lacunary.series import TruncSeries

from helpers import check_diff_u_rules, check_poly_ring_axioms, check_rational_roundtrip, int_u

U = UPolynomial.u()
X = UPolynomial({(0, 1): 1})
ONE = UPolynomial.one()


def test_rational_normalization():
    q = Rational(6, -4)
    assert q.numerator == -3 and q.denominator == 2
    assert str(q) == "-3/2"
    assert str(Rational(4, 2)) == "2"
    assert Rational(1, 3) + Rational(1, 6) == Rational(1, 2)


def test_add_additive_inverse():
    assert U + (-U) == UPolynomial.zero()
    assert not (U - U)


def test_add_disjoint_supports():
    assert U * U + ONE + 3 * U == UPolynomial({(2, 0): 1, (1, 0): 3, (0, 0): 1})


def test_add_rational_normalization():
    half_u = UPolynomial({(1, 0): Rational(1, 2)})
    assert half_u + half_u == U


def test_mul_basic():
    assert U * U == UPolynomial({(2, 0): 1})
    assert (U + ONE) * (U - ONE) == U * U - ONE


def test_mul_mixed_variables():
    assert (U * X) * (U + X) == UPolynomial({(2, 1): 1, (1, 2): 1})


def test_pow():
    assert (U + ONE) ** 3 == UPolynomial({(3, 0): 1, (2, 0): 3, (1, 0): 3, (0, 0): 1})
    assert (U + X) ** 0 == ONE
    assert (U + X) ** 1 == U + X
    assert (U - X) ** 5 == (U - X) * (U - X) * (U - X) * (U - X) * (U - X)
    with pytest.raises(ValueError):
        (U + ONE) ** -1


def test_diff_u():
    assert UPolynomial.u(power=3).diff_u() == UPolynomial.u(power=2, coeff=3)
    assert (U * U * X).diff_u() == UPolynomial({(1, 1): 2})
    assert ONE.diff_u() == UPolynomial.zero()


def test_int_u():
    assert int_u(U) == UPolynomial({(2, 0): Rational(1, 2)})
    # integration constant is fixed to 0
    assert int_u(ONE) == U
    assert int_u(UPolynomial.zero()) == UPolynomial.zero()


def test_diff_int_roundtrip():
    p = UPolynomial({(3, 1): Rational(2, 7), (0, 2): 5, (1, 0): -1})
    assert int_u(p).diff_u() == p


def test_constant_value():
    assert UPolynomial.constant(Rational(3, 4)).constant_value() == Rational(3, 4)
    assert UPolynomial.zero().constant_value() == 0
    with pytest.raises(ValueError):
        U.constant_value()


def test_constant_hashes_as_its_scalar():
    # equal values hash alike, so a constant and its scalar are one set member
    assert ONE == 1 and len({ONE, 1}) == 1
    assert hash(UPolynomial.constant(Rational(-3, 2))) == hash(Rational(-3, 2))
    assert {UPolynomial.zero(): "zero"}[0] == "zero"
    assert len({U, X, ONE}) == 3


def test_coefficient_lookup():
    p = 3 * U + ONE
    assert p.coefficient(1) == 3
    assert p.coefficient(0) == 1
    assert p.coefficient(5) == 0


def test_zero_coefficients_pruned():
    p = UPolynomial({(2, 0): 0, (1, 0): 1})
    assert len(p) == 1
    assert not p - U


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        UPolynomial({(-1, 0): 1})


def test_unsupported_operand_raises_type_error():
    for op in (lambda: 1.5 - U, lambda: U - 1.5, lambda: 1.5 + U, lambda: 1.5 * U):
        with pytest.raises(TypeError, match="'float' and 'UPolynomial'|'UPolynomial' and 'float'"):
            op()
    assert 3 - U == UPolynomial({(1, 0): -1, (0, 0): 3})
    assert Rational(1, 2) - U == -(U - Rational(1, 2))


def test_inexact_coefficients_raise_type_error():
    """Coefficients are exact: an int or a Fraction, never a float, str or Decimal."""
    for build, kind in (
        (lambda: UPolynomial({(0, 0): 0.1}), "float"),
        (lambda: UPolynomial.constant("1/3"), "str"),
        (lambda: UPolynomial.u(coeff=Decimal("0.5")), "Decimal"),
        (lambda: TruncSeries(2, {(1,): 0.1}), "float"),
    ):
        with pytest.raises(TypeError, match=f"got {kind}$"):
            build()


def test_division_by_zero_names_the_polynomial():
    with pytest.raises(ZeroDivisionError, match="division of polynomial by zero scalar"):
        U / 0


def test_division_by_a_non_scalar_raises_type_error():
    for divisor in (1.5, "a", U):
        with pytest.raises(TypeError, match="unsupported operand type"):
            U / divisor
    assert U / 2 == UPolynomial.u(coeff=Rational(1, 2))


def test_rendering_grammar():
    assert str(UPolynomial.zero()) == "0"
    assert str(UPolynomial({(3, 0): 1, (1, 0): 3})) == "u^3 + 3*u"
    assert str(UPolynomial({(2, 0): 4, (0, 0): -2})) == "4*u^2 - 2"
    assert str(UPolynomial({(2, 0): Rational(-3, 2), (1, 1): 1, (0, 0): 1})) == "-3/2*u^2 + u*x + 1"
    assert str(UPolynomial({(0, 2): 1, (0, 0): Rational(1, 2)})) == "x^2 + 1/2"


def test_ring_axioms_randomized():
    check_poly_ring_axioms(300)


def test_diff_u_linearity_and_leibniz_randomized():
    check_diff_u_rules(300)


def test_rational_roundtrip_randomized():
    check_rational_roundtrip(300)
