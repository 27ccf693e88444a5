"""Truncated-series ring operations, powers and the coefficient recurrences."""

import math
from fractions import Fraction

import pytest

from lacunary import Rational
from lacunary.poly import UPolynomial
from lacunary.series import TruncSeries
from lacunary.umbral import MExpression, umbral_eval

from helpers import (
    check_inverse_pairs,
    check_series_ring_axioms,
    check_truncation_consistency,
    make_rng,
    random_poly,
    random_series,
    random_unit_series,
    random_zero_constant_series,
)


def one(order, vars=("z",)):
    return TruncSeries.one(order, vars)


def z(order, vars=("z",)):
    return TruncSeries.variable("z", order, vars)


def u_z(order, coeff=1):
    """The series coeff * u * z."""
    return TruncSeries.monomial((1,), UPolynomial.u(coeff=coeff), order)


def test_mul_difference_of_squares():
    assert (one(2) + z(2)) * (one(2) - z(2)) == one(2) - TruncSeries.monomial((2,), 1, 2)


def test_mul_geometric_inverse():
    geometric = TruncSeries(5, {(n,): UPolynomial.one() for n in range(6)})
    assert geometric * (one(5) - z(5)) == one(5)


def test_mul_poly_coefficients():
    s = one(2) + u_z(2)
    expected = TruncSeries(
        2, {(0,): UPolynomial.one(), (1,): UPolynomial.u(coeff=2), (2,): UPolynomial.u(power=2)}
    )
    assert s * s == expected


def test_mul_order_is_min():
    assert (one(5) * one(3)).order == 3
    assert (one(5) + one(3)).order == 3


def test_mul_incompatible_vars():
    with pytest.raises(ValueError):
        one(3) * one(3, vars=("z", "x"))


def test_inverse_geometric():
    assert (one(3) - z(3)) ** -1 == TruncSeries(3, {(n,): UPolynomial.one() for n in range(4)})


def test_inverse_poly_then_mul_back():
    a = one(2) - u_z(2, coeff=6)
    inv = a**-1
    assert inv == TruncSeries(
        2, {(0,): UPolynomial.one(), (1,): UPolynomial.u(coeff=6), (2,): UPolynomial.u(power=2, coeff=36)}
    )
    assert inv * a == one(2)


def test_inverse_of_one():
    assert one(4) ** -1 == one(4)


def test_inverse_scaled_unit():
    a = 2 * one(3) - z(3)
    assert a**-1 * a == one(3)


def test_inverse_rejects_non_unit_constant():
    with pytest.raises(ValueError):
        z(3) ** -1
    with pytest.raises(ValueError):
        (one(3) + TruncSeries.from_poly(UPolynomial.u() - UPolynomial.one(), 3)) ** -1


def test_sqrt_of_one():
    assert one(4) ** Rational(1, 2) == one(4)


def test_sqrt_frozen_values():
    got = (one(2) - 2 * z(2)) ** Rational(1, 2)
    expected = TruncSeries(
        2,
        {(0,): UPolynomial.one(), (1,): UPolynomial.constant(-1), (2,): UPolynomial.constant(Rational(-1, 2))},
    )
    assert got == expected
    assert got * got == one(2) - 2 * z(2)

    got2 = (one(2) - u_z(2, coeff=12)) ** Rational(1, 2)
    expected2 = TruncSeries(
        2, {(0,): UPolynomial.one(), (1,): UPolynomial.u(coeff=-6), (2,): UPolynomial.u(power=2, coeff=-18)}
    )
    assert got2 == expected2
    assert got2 * got2 == one(2) - u_z(2, coeff=12)


def test_sqrt_rejects_constant_not_one():
    with pytest.raises(ValueError):
        (4 * one(3)) ** Rational(1, 2)  # only constant term exactly 1 is supported


def test_exp_of_z():
    assert z(2).exp() == TruncSeries(
        2, {(0,): UPolynomial.one(), (1,): UPolynomial.one(), (2,): UPolynomial.constant(Rational(1, 2))}
    )


def test_exp_homomorphism_splits_log():
    a = one(4) - u_z(4, coeff=6)
    half_log = a.log() * Rational(1, 2)
    assert half_log.exp() * half_log.exp() == a


def test_exp_matches_matching_census():
    # coefficient of z^n in exp(u z + z^2/2) is (sum over matchings)/n!
    arg = TruncSeries(3, {(1,): UPolynomial.u(), (2,): UPolynomial.constant(Rational(1, 2))})
    got = arg.exp()
    assert got.coefficient((2,)) == UPolynomial({(2, 0): Rational(1, 2), (0, 0): Rational(1, 2)})
    assert got.coefficient((3,)) == UPolynomial({(3, 0): Rational(1, 6), (1, 0): Rational(1, 2)})


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        one(3).exp()
    with pytest.raises(ValueError):
        z(3).log()


def test_log_exp_roundtrip_two_vars():
    rng = make_rng(100)
    for _ in range(20):
        b = random_zero_constant_series(rng, order=4, vars=("z", "x"))
        assert b.exp().log() == b


def test_pow_int():
    assert (one(3) + z(3)) ** 3 == TruncSeries(
        3, {(0,): 1, (1,): 3, (2,): 3, (3,): 1}
    )
    assert (one(3) - z(3)) ** -2 == TruncSeries(3, {(n,): n + 1 for n in range(4)})
    s = random_series(make_rng(101), order=3)
    assert s**0 == s ** Rational(0) == one(3)
    assert z(3) ** Rational(2) == z(3) ** 2  # an integral Rational on a zero constant
    rng = make_rng(102)
    for vars in (("z",), ("z", "x")):
        s = random_unit_series(rng, 4, vars) * Rational(-3, 2)
        assert s**0 == one(4, vars)
        assert s**1 == s
        assert s**5 == s * s * s * s * s
        assert s ** Rational(2) == s**2
        assert s**-1 * s == one(4, vars)
        assert s**-3 == (s**-1) ** 3
        assert s**-3 * s**3 == one(4, vars)


def test_pow_negative_needs_unit_constant():
    with pytest.raises(ValueError):
        z(3) ** -1


def test_pow_rejects_bad_constant_and_float_exponent():
    u = TruncSeries.from_poly(UPolynomial.u(), 3)
    for alpha in (-3, Rational(-1, 2), Rational(2, 3)):
        with pytest.raises(ValueError, match="constant term"):
            z(3) ** alpha  # a zero constant
        with pytest.raises(ValueError, match="constant term"):
            (u + z(3)) ** alpha  # a constant u
    with pytest.raises(ValueError, match="constant term"):
        (2 * one(3) + z(3)) ** Rational(1, 2)
    for alpha in (0.5, 2.0, -1.0):
        with pytest.raises(TypeError, match="int or a Rational"):
            (one(3) + z(3)) ** alpha


def test_coefficient_extraction():
    arg = TruncSeries(4, {(1,): UPolynomial.u(), (2,): UPolynomial.constant(Rational(1, 2))})
    assert arg.exp().coefficient((2,)) == UPolynomial(
        {(2, 0): Rational(1, 2), (0, 0): Rational(1, 2)}
    )
    assert one(3).coefficient((1,)) == UPolynomial.zero()
    assert (one(3) - u_z(3, coeff=6)).coefficient((1,)) == UPolynomial.u(coeff=-6)


def test_coefficient_beyond_order_rejected():
    with pytest.raises(ValueError):
        one(3).coefficient((4,))
    with pytest.raises(ValueError):
        one(3, vars=("z", "x")).coefficient((2, 2))


def test_coefficient_using_the_second_slot_rejected():
    second_slot = UPolynomial({(1, 1): 1})
    with pytest.raises(ValueError):
        TruncSeries(3, {(1,): second_slot})
    with pytest.raises(ValueError):
        TruncSeries(3, {(1, 0): second_slot}, ("z", "x"))
    with pytest.raises(ValueError):
        TruncSeries.from_poly(second_slot, 3) + one(3)


def test_items_and_coefficient_roundtrip_randomized():
    """items() gives back what the constructor took, exponent tuple by tuple."""
    rng = make_rng(102)
    for trial in range(100):
        vars = ("z", "x") if trial % 4 else ("z",)
        order = rng.randint(0, 5)
        coeffs = {}
        for _ in range(rng.randint(0, 8)):
            a = rng.randint(0, order)
            e = (a, rng.randint(0, order - a)) if len(vars) == 2 else (a,)
            coeffs[e] = random_poly(rng, max_deg_u=3, max_deg_x=0)
        s = TruncSeries(order, coeffs, vars)
        assert TruncSeries(s.order, dict(s.items()), s.vars) == s
        assert {e: p for e, p in coeffs.items() if p} == dict(s.items())
        for a in range(order + 1):
            for e in [(a, b) for b in range(order - a + 1)] if len(vars) == 2 else [(a,)]:
                assert s.coefficient(e) == coeffs.get(e, UPolynomial.zero())


def test_division_by_zero_names_the_series():
    for divisor in (0, Rational(0)):
        with pytest.raises(ZeroDivisionError, match="division of series by zero scalar"):
            one(3) / divisor
    assert (u_z(3, 6) / Rational(3, 2)) == u_z(3, 4)


def test_division_by_a_non_scalar_raises_type_error():
    """Only an int or a Rational divides a series; anything else is the operator's TypeError."""
    for divisor in (1.5, "a", one(3), UPolynomial.u()):
        with pytest.raises(TypeError, match="unsupported operand type"):
            u_z(3) / divisor
    with pytest.raises(TypeError, match="'UPolynomial' and 'TruncSeries'"):
        UPolynomial.u() / one(3)
    assert u_z(3, 6) / 2 == u_z(3, 3)


def test_equality_requires_equal_order():
    assert one(3) != one(4)
    assert one(3) == one(4).truncated(3)


def test_two_variable_total_degree_truncation():
    vars = ("z", "x")
    zz = TruncSeries.variable("z", 2, vars)
    xx = TruncSeries.variable("x", 2, vars)
    prod = (zz + xx) * (zz + xx)
    assert prod.coefficient((1, 1)) == UPolynomial.constant(2)
    # (z + x)^3 exceeds total order 2 everywhere
    assert not (zz + xx) * prod
    # construction embeds into the truncated ring: above-order terms drop
    assert not TruncSeries(2, {(2, 1): UPolynomial.one()}, vars)
    with pytest.raises(ValueError):
        TruncSeries(2, {(2,): UPolynomial.one()}, vars)
    with pytest.raises(ValueError):
        TruncSeries(2, {(-1, 0): UPolynomial.one()}, vars)


def test_ring_axioms_randomized():
    check_series_ring_axioms(300)


def test_inverse_pairs_randomized():
    check_inverse_pairs(300)


def test_truncation_consistency_randomized():
    check_truncation_consistency(300)


# -- the integer kernel against a schoolbook Fraction reference ----------------
#
# The reference works on plain {exponents: {(deg_u, deg_x): Fraction}} dicts
# read through items(), and builds powers, exp and log as truncated sums of
# powers (binomial, exponential and logarithmic series), not by the kernel's
# degree-by-degree recurrences.


def plain(s):
    return {e: dict(p.items()) for e, p in s.items()}


def ref_mul(a, b, order):
    out = {}
    for ea, pa in a.items():
        for eb, pb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            if sum(e) > order:
                continue
            poly = out.setdefault(e, {})
            for (au, ax), ca in pa.items():
                for (bu, bx), cb in pb.items():
                    k = (au + bu, ax + bx)
                    poly[k] = poly.get(k, Fraction(0)) + ca * cb
    return ref_prune(out)


def ref_prune(s):
    pruned = {e: {k: c for k, c in p.items() if c} for e, p in s.items()}
    return {e: p for e, p in pruned.items() if p}


def ref_add(a, b, scale=Fraction(1)):
    """a + scale * b."""
    out = {e: dict(p) for e, p in a.items()}
    for e, p in b.items():
        poly = out.setdefault(e, {})
        for k, c in p.items():
            poly[k] = poly.get(k, Fraction(0)) + scale * c
    return ref_prune(out)


def ref_one(nvars):
    return {(0,) * nvars: {(0, 0): Fraction(1)}}


def ref_power_sum(g, weights, order, nvars):
    """sum_k weights(k) * g^k for k = 0..order; g has zero constant term."""
    total, power = {}, ref_one(nvars)
    for k in range(order + 1):
        total = ref_add(total, power, weights(k))
        power = ref_mul(power, g, order)
    return total


def ref_constant(a, nvars):
    return a.get((0,) * nvars, {}).get((0, 0), Fraction(0))


def ref_power(a, alpha, order, nvars):
    """c^alpha * sum_k binom(alpha, k) * g^k with g = a/c - 1, for a's constant c."""
    alpha = Fraction(alpha)
    c = ref_constant(a, nvars)
    assert alpha.denominator == 1 or c == 1  # c^alpha stays rational
    monic = {e: {k: v / c for k, v in p.items()} for e, p in a.items()}
    g = ref_add(monic, ref_one(nvars), Fraction(-1))
    def binom(k):
        return math.prod((alpha - i for i in range(k)), start=Fraction(1)) / math.factorial(k)

    return ref_power_sum(g, lambda k: c**alpha.numerator * binom(k), order, nvars)


def ref_exp(f, order, nvars):
    return ref_power_sum(f, lambda k: Fraction(1, math.factorial(k)), order, nvars)


def ref_log(a, order, nvars):
    g = ref_add(a, ref_one(nvars), Fraction(-1))
    weights = lambda k: Fraction((-1) ** (k + 1), k) if k else Fraction(0)
    return ref_power_sum(g, weights, order, nvars)


def kernel_cases():
    """Random operands plus the cancelling, zero and two-variable edge cases."""
    rng = make_rng(200)
    for trial in range(60):
        vars = ("z",) if trial % 2 else ("z", "x")
        order = rng.randint(0, 5)
        yield tuple(random_series(rng, order, vars, max_terms=6) for _ in range(2))
    yield one(3) + z(3), one(3) - z(3)
    yield TruncSeries.zero(4), random_series(rng, 4)
    yield TruncSeries.zero(2, ("z", "x")), TruncSeries.zero(2, ("z", "x"))
    mixed = TruncSeries(
        3,
        {(1, 0): UPolynomial.constant(Rational(-7, 12)), (0, 1): UPolynomial.u(2, Rational(5, 18))},
        ("z", "x"),
    )
    yield mixed, mixed * Rational(-3, 35)
    yield from lacunary_shape_cases()


# A large factor shared by every coefficient of some parts, so their content is
# far from 1; the coefficients themselves carry mixed signs.
SHARED = 2**89 * 3**40 * 7**11


def u_poly(rng, degrees, shared=1) -> UPolynomial:
    """sum of shared * c * u^k over ``degrees``, each c a random nonzero rational."""
    return UPolynomial(
        {(k, 0): shared * rng.choice((-1, 1)) * Rational(rng.randint(1, 9), rng.randint(1, 9))
         for k in degrees}
    )


def lacunary_shape_cases():
    """Operands shaped like the paper's lacunary factors: dense runs of one u-parity
    with 8 or more terms, runs with gaps, mixed parities, several y-degrees per part,
    large shared factors, one-term parts beside long ones, and products that cancel
    in one coefficient of a part or in a whole part."""
    rng = make_rng(204)

    def run(start, length, shared=1):
        return u_poly(rng, range(start, start + 2 * length, 2), shared)

    dense = TruncSeries(
        3, {(0,): 1, (1,): run(1, 9), (2,): run(0, 8, SHARED), (3,): run(3, 10, -SHARED)}
    )
    other = TruncSeries(3, {(1,): run(0, 12, Rational(SHARED, 5)), (2,): run(1, 8)})
    yield dense, other
    gaps = TruncSeries(
        3, {(1,): u_poly(rng, (1, 3, 11, 17), SHARED), (2,): u_poly(rng, (0, 10, 12))}
    )
    yield gaps, dense
    mixed = TruncSeries(
        3,
        {(0,): 2, (1,): run(0, 5) + run(1, 9, -SHARED), (3,): u_poly(rng, (2, 5, 6, 9, 30))},
    )
    yield mixed, gaps
    zx = ("z", "x")
    parts_y = TruncSeries(
        3,
        {
            (1, 0): run(1, 8),
            (0, 1): run(0, 9, SHARED),
            (2, 0): run(0, 3) + run(5, 8),
            (1, 1): u_poly(rng, (0, 1, 2, 3, 8)),
            (0, 2): run(2, 8, -SHARED),
            (0, 3): UPolynomial.u(4, 3),
        },
        zx,
    )
    yield parts_y, parts_y * Rational(-2, 9) + TruncSeries.variable("x", 3, zx)
    single = TruncSeries(
        3, {(1,): UPolynomial.u(5, Rational(-7, 3) * SHARED), (2,): UPolynomial.constant(11)}
    )
    yield single, dense
    yield dense, single
    # (z p + x q)(-c z p + c x q): the z x coefficient cancels, z^2 and x^2 stay
    p, q, c = run(0, 8, SHARED), run(1, 9), Rational(3, 7)
    zx_p = TruncSeries(3, {(1, 0): p, (0, 1): q}, zx)
    yield zx_p, TruncSeries(3, {(1, 0): -c * p, (0, 1): c * q}, zx)
    # (1 + z f)(1 - z f) = 1 - z^2 f^2: part 1 cancels
    f = TruncSeries(3, {(1,): run(1, 10, SHARED)})
    yield one(3) + f, one(3) - f


def test_kernel_mul_matches_schoolbook():
    for a, b in kernel_cases():
        order = min(a.order, b.order)
        assert plain(a * b) == ref_mul(plain(a), plain(b), order)


def test_kernel_cancellation_prunes_rows_and_parts():
    cases = list(lacunary_shape_cases())  # the last two products cancel
    zx_product = cases[-2][0] * cases[-2][1]
    assert {e for e, _ in zx_product.items() if sum(e) == 2} == {(2, 0), (0, 2)}
    assert {sum(e) for e, _ in (cases[-1][0] * cases[-1][1]).items()} == {0, 2}


def test_kernel_is_exact_at_large_u_degrees():
    huge = TruncSeries.monomial((1,), UPolynomial.u(2**31), 2)
    assert (huge * huge).coefficient((2,)) == UPolynomial.u(2**32)
    assert huge.exp().coefficient((2,)) == UPolynomial.u(2**32, Rational(1, 2))


POWER_EXPONENTS = (-3, -2, -1) + tuple(
    Rational(p, q) for p, q in ((-3, 2), (-1, 2), (1, 2), (3, 2), (2, 3))
)


def test_kernel_recurrences_match_schoolbook():
    """Integer powers of scaled constants, the others of constant 1; one and two variables."""
    rng = make_rng(201)
    for a, _ in kernel_cases():
        order, nvars = a.order, len(a.vars)
        zc = a - TruncSeries.from_poly(a.constant_coefficient(), order, a.vars)
        unit = TruncSeries.one(order, a.vars) + zc
        scaled = unit * Rational(rng.choice([-5, -2, 3, 7]), rng.randint(1, 9))
        for alpha in POWER_EXPONENTS:
            base = scaled if isinstance(alpha, int) else unit
            assert plain(base**alpha) == ref_power(plain(base), alpha, order, nvars)
        assert plain(zc.exp()) == ref_exp(plain(zc), order, nvars)
        assert plain(unit.log()) == ref_log(plain(unit), order, nvars)


def test_powers_match_schoolbook():
    rng = make_rng(203)
    cases = [z(5), z(4, ("z", "x")) + TruncSeries.variable("x", 4, ("z", "x"))]
    for trial in range(60):
        vars = ("z",) if trial % 2 else ("z", "x")
        cases.append(random_zero_constant_series(rng, trial % 6, vars))
    for s in cases:
        expected, power = [], ref_one(len(s.vars))
        while power:  # the powers of s up to the last nonzero one
            expected.append(power)
            power = ref_mul(power, plain(s), s.order)
        got = list(s.powers())
        assert [plain(p) for p in got] == expected
        assert all((p.order, p.vars) == (s.order, s.vars) for p in got)


def test_powers_edge_cases():
    for vars in (("z",), ("z", "x")):
        for order in range(4):
            assert list(TruncSeries.zero(order, vars).powers()) == [one(order, vars)]
    assert len(list(z(5).powers())) == 6  # 1, z, ..., z^5
    with pytest.raises(ValueError, match="zero constant term"):
        (one(3) + z(3)).powers()
    with pytest.raises(ValueError, match="zero constant term"):
        TruncSeries.from_poly(UPolynomial.u(), 3).powers()


# -- M-expression products and evaluation against the same reference ------------
#
# An M-expression is read as {M-degree: plain series}.  The reference multiplies
# pair by pair with ref_mul and sums with ref_add; it evaluates with the moments
# counted as (d-1)!! perfect matchings, not by the library's m_moment.


def plain_m(expr, top):
    return {d: plain(expr.coefficient(d)) for d in range(top + 1) if expr.coefficient(d)}


def ref_m_mul(a, b, order):
    out = {}
    for da, sa in a.items():
        for db, sb in b.items():
            out[da + db] = ref_add(out.get(da + db, {}), ref_mul(sa, sb, order))
    return {d: s for d, s in out.items() if s}


def ref_eval(a):
    total = {}
    for d, s in a.items():
        if d % 2 == 0:
            total = ref_add(total, s, Fraction(math.prod(range(d - 1, 0, -2))))
    return total


def random_m_expression(rng, order, vars, top=5):
    coeffs = {d: random_series(rng, order, vars, max_terms=4) for d in range(top + 1)}
    return MExpression({d: s for d, s in coeffs.items() if rng.random() < 0.7} or coeffs)


def m_expression_cases():
    """Random pairs with mixed denominators, then the zero, order and cancelling cases."""
    rng = make_rng(202)
    for trial in range(40):
        vars = ("z",) if trial % 2 else ("z", "x")
        order = rng.randint(0, 4)
        orders = (order, order + trial % 3)  # every third pair has equal orders
        yield tuple(random_m_expression(rng, k, vars) for k in orders)
    s = TruncSeries(3, {(1,): UPolynomial.u(1, Rational(2, 3)), (0,): Rational(-5, 4)})
    yield MExpression({0: s, 1: s}), MExpression({0: -s, 1: s})  # M-degree 1 cancels
    yield MExpression({0: TruncSeries.zero(2)}), random_m_expression(rng, 5, ("z",))


def test_m_expression_mul_matches_schoolbook():
    for a, b in m_expression_cases():
        got = a * b
        order = min(a.order, b.order)
        assert (got.order, got.vars) == (order, a.vars)
        assert plain_m(got, 12) == ref_m_mul(plain_m(a, 6), plain_m(b, 6), order)


def test_m_expression_eval_matches_schoolbook():
    for a, b in m_expression_cases():
        for expr in (a, b, a * b):
            got = umbral_eval(expr)
            assert (got.order, got.vars) == (expr.order, expr.vars)
            assert plain(got) == ref_eval(plain_m(expr, 12))


def test_m_expression_mul_edge_cases():
    M = MExpression({1: TruncSeries.one(3)})
    s = TruncSeries(3, {(1,): UPolynomial.u(1, Rational(2, 3)), (0,): Rational(-5, 4)})
    # (s + M s) (M s - s) = M^2 s^2 - s^2
    product = MExpression({0: s, 1: s}) * MExpression({0: -s, 1: s})
    assert not product.coefficient(1)
    assert product.coefficient(2) == s * s
    assert product.coefficient(0) == -(s * s)
    # every M-degree cancels: the zero product keeps the operands' order and vars
    z2 = TruncSeries.variable("z", 3) ** 2
    vanished = MExpression({1: z2}) * MExpression({0: z2})
    assert vanished == MExpression({0: TruncSeries.zero(3)})
    # a zero operand gives a zero product at the smaller order
    zero = MExpression({0: TruncSeries.zero(5)})
    assert zero * M == M * zero == MExpression({0: TruncSeries.zero(3)})
    with pytest.raises(ValueError, match="incompatible variable sets"):
        M * MExpression({1: TruncSeries.one(3, ("z", "x"))})
