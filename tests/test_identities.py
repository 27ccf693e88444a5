"""The w series, identity factors, and the coefficient-exact verifier."""

import math

import pytest

from lacunary import Rational, identities
from lacunary.hermite import hermite_H, hermite_h
from lacunary.identities import (
    catalan_number,
    hypergeom_form_check,
    hypergeom_series_route,
    hypergeom_term,
    lhs_lacunary,
    multi_cycle_coefficient,
    multi_cycle_factor,
    one_cycle_exp_log_route,
    one_cycle_factor,
    one_cycle_power_route,
    rhs_doetsch,
    rhs_main,
    rhs_main_product_route,
    tree_gf,
    tree_gf_integral_route,
    tree_gf_product_route,
    verify,
    w_closed_form,
    w_fixed_point,
    w_series,
)
from lacunary.poly import UPolynomial
from lacunary.report import compare_series
from lacunary.series import TruncSeries

from helpers import multi_cycle_power_sum


def test_catalan_numbers():
    assert [catalan_number(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_w_low_coefficients():
    w = w_series(4)
    assert w.coefficient((0,)) == UPolynomial.u()
    assert w.coefficient((1,)) == UPolynomial.u(power=2, coeff=3)
    assert w.coefficient((2,)) == UPolynomial.u(power=3, coeff=18)


def test_w_routes_agree():
    for order in (0, 1, 5, 10, 12):
        assert w_fixed_point(order) == w_closed_form(order) == w_series(order)


def test_w_functional_equation():
    order = 10
    w = w_series(order)
    z = TruncSeries.variable("z", order)
    u = TruncSeries.from_poly(UPolynomial.u(), order)
    assert w == u + 3 * (w * w) * z


def test_lhs_lacunary():
    lhs3 = lhs_lacunary(3, 3)
    assert lhs3.coefficient((0,)) == UPolynomial.one()
    assert lhs3.coefficient((1,)) == hermite_h(3)
    assert lhs3.coefficient((2,)) == hermite_h(6) / 2
    lhs2 = lhs_lacunary(2, 2)
    assert lhs2.coefficient((1,)) == hermite_h(2)
    for stride in (2, 3):
        for order in (0, 1, 2, 7):
            expected = {(n,): hermite_h(stride * n) / math.factorial(n) for n in range(order + 1)}
            assert lhs_lacunary(stride, order) == TruncSeries(order, expected)
    with pytest.raises(ValueError):
        lhs_lacunary(4, 3)


def test_rhs_doetsch_low_coefficients():
    rhs = rhs_doetsch(2)
    assert rhs.coefficient((0,)) == UPolynomial.one()
    assert rhs.coefficient((1,)) == hermite_h(2)
    assert rhs.coefficient((2,)) == hermite_h(4) / 2


def test_tree_gf_routes_and_values():
    t = tree_gf(6)
    assert t.coefficient((0,)) == UPolynomial.zero()
    assert t.coefficient((1,)) == UPolynomial.u(power=3)
    assert t.coefficient((2,)) == UPolynomial.u(power=4, coeff=Rational(9, 2))
    assert t.coefficient((3,)) == UPolynomial.u(power=5, coeff=27)
    assert (
        tree_gf_product_route(6)
        == tree_gf_integral_route(6)
        == tree_gf(6)
    )


def test_tree_gf_derivative_is_w_minus_u():
    order = 8
    derivative = tree_gf(order).diff_u().truncated(order - 1)
    w_minus_u = (w_series(order) - TruncSeries.from_poly(UPolynomial.u(), order)).truncated(
        order - 1
    )
    assert derivative == w_minus_u


def test_one_cycle_factor():
    factor = one_cycle_factor(4)
    assert factor.coefficient((0,)) == UPolynomial.one()
    assert factor.coefficient((1,)) == UPolynomial.u(coeff=3)
    assert factor.coefficient((2,)) == UPolynomial.u(power=2, coeff=Rational(45, 2))
    assert one_cycle_exp_log_route(4) == one_cycle_factor(4)


def test_multi_cycle_factor():
    factor = multi_cycle_factor(4)
    assert factor.coefficient((0,)) == UPolynomial.one()
    assert factor.coefficient((1,)) == UPolynomial.zero()
    assert factor.coefficient((2,)) == UPolynomial.constant(Rational(15, 2))
    # z^4 mixes the n=2 constant 12!/(2^6 6!)/4! = 10395/24 with the n=1 tail
    assert factor.coefficient((4,)).coefficient(0) == Rational(10395, 24)
    assert Rational(10395, 24) == Rational(3465, 8)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 12, 48, 64])
def test_cycle_factor_closed_forms_match_every_route(order):
    """Both closed forms in 1 - 12uz equal the routes that read w through 1 - 6wz."""
    assert one_cycle_factor(order) == one_cycle_power_route(order) == one_cycle_exp_log_route(order)
    assert multi_cycle_factor(order) == multi_cycle_power_sum(order) == hypergeom_series_route(order)


def test_rhs_main_composition():
    """The term-by-term sum equals exp(T) * one-cycle * multi-cycle exactly; orders
    0-2 keep only the n = 0 term or few n, and 48 sums 25 terms."""
    for order in [*range(21), 48]:
        product = tree_gf(order).exp() * one_cycle_factor(order) * multi_cycle_factor(order)
        assert rhs_main(order) == rhs_main_product_route(order) == product, order
    assert rhs_main(5).coefficient((0,)) == UPolynomial.one()


@pytest.mark.parametrize("name", ["w-routes", "tree-gf-routes", "rhs-main-routes"])
def test_route_identities_at_order_48(name):
    """A route that goes wrong only at high order fails here, not only at order 12."""
    assert verify(name, 48).verified


def test_main_fails_for_every_recurrence_entry_off_by_one(monkeypatch):
    """rhs_main reads every entry of the Y_0 operator and of the step."""
    y0, source, step = identities._Y0_OPERATOR, identities._STEP_SOURCE, identities._step_operator
    mutants = [("_Y0_OPERATOR", key, {**y0, key: c + 1}) for key, c in y0.items()]
    mutants += [("_STEP_SOURCE", key, {**source, key: c + 1}) for key, c in source.items()]
    mutants += [
        ("_step_operator", key, lambda n, key=key: {**step(n), key: step(n)[key] + 1})
        for key in step(1)
    ]
    for name, key, mutant in mutants:
        with monkeypatch.context() as patch:
            patch.setattr(identities, name, mutant)
            assert not verify("main", 8).verified, (name, key)


def test_main_identity_first_order_by_hand():
    # z^1: the tree term contributes u^3, the cycle factor 3u; h_3 = u^3 + 3u
    assert rhs_main(1).coefficient((1,)) == hermite_h(3)
    report = verify("main", 1)
    assert report.verified


def test_hypergeometric_scalars():
    assert hypergeom_term(1) == Rational(15, 2) == multi_cycle_coefficient(1)
    assert hypergeom_term(2) == Rational(3465, 8) == multi_cycle_coefficient(2)
    report = hypergeom_form_check(20)
    assert report.verified


def test_verify_all_identities_small_order():
    for name in (
        "doetsch",
        "main",
        "tree-gf-routes",
        "one-cycle-routes",
        "w-routes",
        "rhs-main-routes",
        "hypergeom",
        "lemma-fm-i",
        "lemma-fm-ii",
        "corollary-ecor",
        "dT-du",
    ):
        report = verify(name, 5)
        assert report.verified, (name, report.to_dict())


def test_verify_order_zero():
    assert verify("main", 0).verified
    assert verify("doetsch", 0).verified


def test_verify_unknown_identity():
    with pytest.raises(ValueError):
        verify("nonsense", 3)
    with pytest.raises(ValueError):
        verify("main", -1)


@pytest.mark.parametrize("order, kind", [(2.0, "float"), (2.5, "float"), (Rational(2), "Fraction")])
def test_non_int_order_is_a_type_error(order, kind):
    with pytest.raises(TypeError, match=f"truncation order must be an int, got {kind}$"):
        TruncSeries(order)
    for name in ("doetsch", "w-routes"):
        with pytest.raises(TypeError, match=f"order must be an int, got {kind}$"):
            verify(name, order)


_Z = TruncSeries.variable("z", 4)

# every order, index, exponent and power is checked as an int >= 0 before use
BAD_INT_ARGUMENTS = [
    # a non-int is a TypeError naming its type
    ("truncated", lambda: TruncSeries.one(4).truncated(2.5), TypeError),
    ("poly exponent", lambda: UPolynomial({(2.5, 0): 1}), TypeError),
    ("u power", lambda: UPolynomial.u(power=2.5), TypeError),
    ("series exponent", lambda: TruncSeries(4, {(2.5,): 1}), TypeError),
    ("coefficient", lambda: TruncSeries.one(4).coefficient((2.5,)), TypeError),
    ("hermite_h", lambda: hermite_h(2.5), TypeError),
    ("hermite_H", lambda: hermite_H(2.5), TypeError),
    ("lhs_lacunary", lambda: lhs_lacunary(3, 2.5), TypeError),
    ("one_cycle_factor", lambda: one_cycle_factor(2.5), TypeError),
    ("multi_cycle_factor", lambda: multi_cycle_factor(2.5), TypeError),
    ("hypergeom_form_check", lambda: hypergeom_form_check(2.5), TypeError),
    ("w_series", lambda: w_series(2.5), TypeError),
    ("w_fixed_point", lambda: w_fixed_point(2.5), TypeError),
    ("tree_gf", lambda: tree_gf(2.5), TypeError),
    ("rhs_main", lambda: rhs_main(2.5), TypeError),
    ("series pow", lambda: (1 + _Z) ** 0.5, TypeError),
    ("poly pow", lambda: UPolynomial.u() ** 2.5, TypeError),
    # a negative int is a ValueError naming its value
    ("truncated", lambda: TruncSeries.one(4).truncated(-1), ValueError),
    ("poly exponent", lambda: UPolynomial({(-1, 0): 1}), ValueError),
    ("series exponent", lambda: TruncSeries(4, {(-1,): 1}), ValueError),
    ("coefficient", lambda: TruncSeries.one(4).coefficient((-1,)), ValueError),
    ("hermite_h", lambda: hermite_h(-1), ValueError),
    ("lhs_lacunary", lambda: lhs_lacunary(3, -1), ValueError),
    ("one_cycle_factor", lambda: one_cycle_factor(-1), ValueError),
    ("multi_cycle_factor", lambda: multi_cycle_factor(-1), ValueError),
    ("hypergeom_form_check", lambda: hypergeom_form_check(-1), ValueError),
    ("w_fixed_point", lambda: w_fixed_point(-1), ValueError),
    ("rhs_main", lambda: rhs_main(-1), ValueError),
    ("poly pow", lambda: UPolynomial.u() ** -1, ValueError),
]


@pytest.mark.parametrize(
    "build, error",
    [case[1:] for case in BAD_INT_ARGUMENTS],
    ids=[f"{name}-{error.__name__}" for name, _, error in BAD_INT_ARGUMENTS],
)
def test_bad_int_arguments_are_rejected(build, error):
    match = "got float$" if error is TypeError else "must be >= 0, got -1$"
    with pytest.raises(error, match=match):
        build()


def test_mismatch_reporting():
    lhs = TruncSeries(2, {(1,): UPolynomial.u()})
    rhs = TruncSeries(2, {(1,): UPolynomial.u(coeff=2), (2,): UPolynomial.one()})
    report = compare_series("probe", 2, lhs, rhs)
    assert not report.verified
    assert report.status == "mismatch"
    assert report.mismatch.exponents == (1,)
    assert str(report.mismatch.lhs) == "u"
    assert str(report.mismatch.rhs) == "2*u"
    d = report.to_dict()
    assert d["status"] == "mismatch"
    assert d["mismatch"]["exponents"] == [1]


def test_compare_series_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        compare_series("probe", 2, TruncSeries.one(2), TruncSeries.one(3))


def test_doetsch_coefficients_match_hermite():
    order = 8
    rhs = rhs_doetsch(order)
    for n in range(order + 1):
        assert rhs.coefficient((n,)) * math.factorial(n) == hermite_h(2 * n)


def test_main_coefficients_match_hermite():
    order = 6
    rhs = rhs_main(order)
    for n in range(order + 1):
        assert rhs.coefficient((n,)) * math.factorial(n) == hermite_h(3 * n)


def _sympy_closed_forms():
    sp = pytest.importorskip("sympy")
    u, z = sp.symbols("u z")
    w = (1 - sp.sqrt(1 - 12 * u * z)) / (6 * z)
    tree = (w - u) * (3 * u - w) / 6
    base = 1 - 6 * w * z
    multi = sum(
        sp.factorial(6 * n) / (2 ** (3 * n) * sp.factorial(3 * n) * sp.factorial(2 * n))
        * base ** (-3 * n) * z ** (2 * n)
        for n in range(3)  # later terms start at z^6, above every order tested
    )
    doetsch = (1 - 2 * z) ** sp.Rational(-1, 2) * sp.exp(u**2 * z / (1 - 2 * z))
    return sp, u, z, {
        "w": w,
        "tree-integral": ((1 - 12 * u * z) ** sp.Rational(3, 2) - 1 + 18 * u * z) / (108 * z**2)
        - u**2 / 2,
        "doetsch": doetsch,
        "main": sp.exp(tree) / sp.sqrt(base) * multi,
    }


@pytest.mark.parametrize(
    "name, builder, order",
    [
        ("w", w_series, 8),
        ("w", w_closed_form, 8),
        ("tree-integral", tree_gf_integral_route, 8),
        ("doetsch", rhs_doetsch, 5),
        ("main", rhs_main, 4),
    ],
)
def test_series_match_sympy_expansion(name, builder, order):
    """Every coefficient agrees with sympy's own series expansion of the closed form."""
    sp, u, z, closed_forms = _sympy_closed_forms()
    expansion = sp.Poly(sp.expand(sp.series(closed_forms[name], z, 0, order + 1).removeO()), z)
    built = builder(order)
    for n in range(order + 1):
        ours = sum(
            sp.Rational(c.numerator, c.denominator) * u**du
            for (du, _), c in built.coefficient((n,)).items()
        )
        assert sp.expand(expansion.coeff_monomial(z**n) - ours) == 0, (name, n)


def _split_in_s(sp, expr, s):
    """(even, odd) with expr = even + odd * s, both rational in s^2 only."""
    num, den = sp.fraction(sp.together(expr))
    num, den = sp.expand(num * den.subs(s, -s)), sp.expand(den * den.subs(s, -s))
    even, odd = 0, 0
    for (e,), c in sp.Poly(num, s).terms():
        if e % 2:
            odd += c * s ** (e - 1)
        else:
            even += c * s**e
    return even / den, odd / den


def _table(sp, polys, z, u):
    """{(k, j, p): c} of sum_k polys[k] (d/dz)^k with polys[k] = sum c z^j u^p."""
    return {
        (k, j, p): sp.expand(c)
        for k, poly in enumerate(polys)
        for (j, p), c in sp.Poly(poly, z, u).terms()
    }


def _main_recurrence_symbols():
    """Y_n = e^T s^(-1/2-3n) with s = sqrt(1 - 12uz) and T' = 8u^3 / (1+s)^3:
    the logarithmic derivative of Y_n and the substitution z = (1 - s^2) / (12u)."""
    sp = pytest.importorskip("sympy")
    u, z, s, n = sp.symbols("u z s n")
    w = (1 - sp.sqrt(1 - 12 * u * z)) / (6 * z)
    tree = (w - u) * (3 * u - w) / 6
    tree_prime = 8 * u**3 / (1 + s) ** 3
    at_z = {s: sp.sqrt(1 - 12 * u * z)}
    assert sp.simplify(sp.diff(tree, z) - tree_prime.subs(at_z)) == 0
    log_derivative = tree_prime + 3 * u * (1 + 6 * n) / s**2  # d/dz log Y_n
    return sp, u, z, s, n, log_derivative, at_z


def _to_polys(sp, exprs, z, u, at_z):
    """Rational functions of u and s^2 as coprime polynomials in u, z."""
    exprs = [sp.cancel(e.subs(at_z)) for e in exprs]
    den = sp.lcm([sp.fraction(sp.together(e))[1] for e in exprs])
    polys = [sp.cancel(e * den) for e in exprs]
    g = sp.gcd_list(polys)
    return [sp.expand(sp.cancel(p / g)) for p in polys]


def test_y0_operator_is_derived_from_the_tree_series():
    """A2 Y'' + A1 Y' + A0 Y = 0 for Y_0 = e^T (1-12uz)^(-1/4), derived as the
    relation among Y, Y' = aY and Y'' = (a' + a^2) Y over Q(u, z)(s)."""
    sp, u, z, s, n, log_derivative, at_z = _main_recurrence_symbols()
    a = log_derivative.subs(n, 0)
    a_even, a_odd = _split_in_s(sp, a, s)
    b_even, b_odd = _split_in_s(sp, sp.diff(a, s) * (-6 * u / s) + a**2, s)
    a0, a1, a2 = _to_polys(sp, [b_odd * a_even - a_odd * b_even, -b_odd, a_odd], z, u, at_z)
    lead = a1.subs(z, 0)
    derived = _table(sp, [sp.expand(c / lead) for c in (a0, a1, a2)], z, u)
    assert derived == identities._Y0_OPERATOR


def test_step_operator_is_derived_from_the_tree_series():
    """(P + Q d/dz) Y_n = R Y_(n-1) with Y_(n-1) = s^3 Y_n: the odd part in s gives
    Q = R (1-12uz) / odd(a_n), the even part P = -Q even(a_n); R = 1 - 3uz is the
    least denominator of both."""
    sp, u, z, s, n, log_derivative, at_z = _main_recurrence_symbols()
    a_even, a_odd = _split_in_s(sp, log_derivative, s)
    q = (1 - 12 * u * z) / a_odd.subs(at_z)
    p, q, r = _to_polys(sp, [-q * a_even, q, sp.Integer(1)], z, u, at_z)
    lead = p.subs(z, 0)
    p, q, r = (sp.expand(c / lead) for c in (p, q, r))
    assert _table(sp, [r], z, u) == identities._STEP_SOURCE
    step = {key: sp.expand(c) for key, c in identities._step_operator(n).items()}
    assert _table(sp, [p, q], z, u) == step
