"""The w series, identity factors, and the coefficient-exact verifier."""

import math
import re
from itertools import islice

import pytest

from lacunary import Rational, hermite, identities
from lacunary.hermite import HermiteKind, hermite_H, hermite_h, operator_rows
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
from lacunary.oracle import (
    enumerate_marked_graphs,
    enumerate_matchings,
    enumerate_w_trees,
    factor_census_check,
)
from lacunary.poly import UPolynomial
from lacunary.report import compare_series
from lacunary.series import TruncSeries
from lacunary.umbral import exp_of_m_power

from helpers import doetsch_product, multi_cycle_power_sum, normalization_relation_check


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
    """The solution of the operator equals exp(T) * one-cycle * multi-cycle exactly,
    from order 0, where it is the one row G_0 = 1, to 20 and at 48."""
    for order in [*range(21), 48]:
        product = tree_gf(order).exp() * one_cycle_factor(order) * multi_cycle_factor(order)
        assert rhs_main(order) == rhs_main_product_route(order) == product, order
    assert rhs_main(5).coefficient((0,)) == UPolynomial.one()


@pytest.mark.parametrize("name", ["w-routes", "tree-gf-routes", "rhs-main-routes"])
def test_route_identities_at_order_48(name):
    """A route that goes wrong only at high order fails here, not only at order 12."""
    assert verify(name, 48).verified


# (the dict that holds a table, its key there, a check that passes only if it is exact):
# main and doetsch each read their own table, and their left sides count matchings, so
# the h table is checked against the matchings oracle; H feeds neither identity, so the
# h/H coefficient relation checks it
OPERATOR_TABLES = [
    (vars(identities), "_F_OPERATOR", lambda: verify("main", 8).verified),
    (vars(identities), "_DOETSCH_OPERATOR", lambda: verify("doetsch", 8).verified),
    (
        hermite._OPERATORS,
        HermiteKind.PROBABILIST,
        lambda: all(hermite_h(n) == enumerate_matchings(n) for n in range(9)),
    ),
    (
        hermite._OPERATORS,
        HermiteKind.PHYSICIST,
        lambda: all(normalization_relation_check(n) for n in range(9)),
    ),
]


def test_main_fails_for_every_recurrence_entry_off_by_one(monkeypatch):
    """operator_rows reads every entry of each table, and an entry one too high fails
    the check that reads the table.  A table holds no lead entry for F' itself: the
    solver reads F' as row t, so there is no coefficient of it to perturb."""
    for namespace, name, check in OPERATOR_TABLES:
        assert check(), name
        exact = namespace[name]
        for key, c in exact.items():
            with monkeypatch.context() as patch:
                patch.setitem(namespace, name, {**exact, key: c + 1})
                assert not check(), (name, key)


# the four tables in their earlier form L F = 0, each with the lead entry (1, 0, 0) = 1
LEAD_ENTRY_TABLES = [
    ({
        (0, 0, 1): -3, (0, 0, 3): -1, (0, 1, 0): -15, (0, 1, 4): 3, (0, 2, 1): 18,
        (1, 0, 0): 1, (1, 1, 1): -12, (1, 2, 0): -81, (1, 2, 2): 27, (1, 3, 1): 162,
        (2, 3, 0): -27, (2, 4, 1): 81,
    }, 3),
    ({(0, 0, 0): -1, (0, 0, 2): -1, (0, 1, 0): 2, (1, 0, 0): 1, (1, 1, 0): -4, (1, 2, 0): 4}, 2),
    ({(1, 0, 0): 1, (0, 0, 1): -1, (0, 1, 0): -1}, 1),
    ({(1, 0, 0): 1, (0, 0, 1): -2, (0, 1, 0): 2}, 1),
]


@pytest.mark.parametrize(
    "table, stride, bad",
    [
        (identities._F_OPERATOR, 3, None),
        (identities._DOETSCH_OPERATOR, 2, None),
        (hermite._OPERATORS[HermiteKind.PROBABILIST], 1, None),
        (hermite._OPERATORS[HermiteKind.PHYSICIST], 1, None),
        # F' = (u^3 + z) F: u^3 F_r reaches past u^(r+1), whichever entry comes first
        ({(0, 0, 3): 1, (0, 1, 0): 1}, 1, (0, 0, 3)),
        ({(0, 1, 0): 1, (0, 0, 3): 1}, 1, (0, 0, 3)),
        # F' = (u^2 + z) F: u^2 F_r has the parity of row r, not of row r + 1
        ({(0, 0, 2): 1, (0, 1, 0): 1}, 1, (0, 0, 2)),
        # F' = (u + z) F + 5z F'': z F'' reads row t itself
        ({(0, 0, 1): 1, (0, 1, 0): 1, (2, 1, 0): 5}, 1, (2, 1, 0)),
        # a derivative of negative order is no term of an ODE
        ({(0, 0, 1): 1, (-1, 0, 0): 1}, 1, (-1, 0, 0)),
        # F' itself is row t, so an entry (1, 0, 0) for it reads row t
        *[(table, stride, (1, 0, 0)) for table, stride in LEAD_ENTRY_TABLES],
    ],
    ids=["main", "doetsch", "h", "H", "u3-first", "u3-last", "u2", "zF''", "k<0"]
    + [f"{name}-lead" for name in ["main", "doetsch", "h", "H"]],
)
def test_operator_rows_keeps_or_rejects_the_row_layout(table, stride, bad):
    """Row t holds the stride*t//2 + 1 coefficients of u^(stride*t%2), ..., u^(stride*t);
    a table with an entry that leaves that layout, or reads row t or a later row, raises
    before the first row, naming that entry."""
    rows = operator_rows(table, stride)
    if bad:
        with pytest.raises(ValueError, match=re.escape(f"entry {bad} ") + f".*stride {stride}"):
            next(rows)
        return
    assert [len(row) for row in islice(rows, 13)] == [stride * t // 2 + 1 for t in range(13)]


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_operator_rows_of_the_empty_table_are_zero(stride):
    """The empty table is F' = 0, whose solution with F(0) = 1 is 1."""
    rows = list(islice(operator_rows({}, stride), 6))
    assert rows == [[1]] + [[0] * (stride * t // 2 + 1) for t in range(1, 6)]


@pytest.mark.parametrize("stride, table", [(3, "_F_OPERATOR"), (2, "_DOETSCH_OPERATOR")])
def test_right_side_rows_count_matchings(stride, table):
    """Row t of each right side's solution lists the k-matching counts of a
    (stride t)-set, m!/(2^k k! (m-2k)!) for m = stride t, by ascending u-degree m - 2k,
    for t <= 100: the paper's definition of h_m, which shares no arithmetic with the
    solver."""
    rhs = islice(operator_rows(getattr(identities, table), stride), 101)
    for t, row in enumerate(rhs):
        m = stride * t
        counts = [
            math.factorial(m) // (2**k * math.factorial(k) * math.factorial(m - 2 * k))
            for k in range(m // 2 + 1)
        ]
        assert row == counts[::-1], t


def test_rhs_doetsch_equals_the_product_of_its_factors():
    """The solution of _DOETSCH_OPERATOR equals the series product of its closed form,
    exactly, from order 0 (the one row G_0 = 1) to 48."""
    for order in range(49):
        assert rhs_doetsch(order) == doetsch_product(order), order


@pytest.mark.parametrize("stride, table", [(3, "_F_OPERATOR"), (2, "_DOETSCH_OPERATOR")])
def test_right_side_rows_are_the_hermite_rows(stride, table):
    """Before any Fraction is made, row t of each right side's solution is the int
    coefficient list of h_(stride t) in the one row layout, for t <= 64."""
    h = operator_rows(hermite._OPERATORS[HermiteKind.PROBABILIST], 1)
    rhs = operator_rows(getattr(identities, table), stride)
    assert list(islice(h, 0, 64 * stride + 1, stride)) == list(islice(rhs, 65))


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
    ("truncated", lambda: TruncSeries.one(4).truncated(2.5), TypeError, "float"),
    ("poly exponent", lambda: UPolynomial({(2.5, 0): 1}), TypeError, "float"),
    ("u power", lambda: UPolynomial.u(power=2.5), TypeError, "float"),
    ("series exponent", lambda: TruncSeries(4, {(2.5,): 1}), TypeError, "float"),
    ("coefficient", lambda: TruncSeries.one(4).coefficient((2.5,)), TypeError, "float"),
    ("hermite_h", lambda: hermite_h(2.5), TypeError, "float"),
    ("hermite_H", lambda: hermite_H(2.5), TypeError, "float"),
    ("lhs_lacunary", lambda: lhs_lacunary(3, 2.5), TypeError, "float"),
    ("one_cycle_factor", lambda: one_cycle_factor(2.5), TypeError, "float"),
    ("multi_cycle_factor", lambda: multi_cycle_factor(2.5), TypeError, "float"),
    ("hypergeom_form_check", lambda: hypergeom_form_check(2.5), TypeError, "float"),
    ("w_series", lambda: w_series(2.5), TypeError, "float"),
    ("w_fixed_point", lambda: w_fixed_point(2.5), TypeError, "float"),
    ("tree_gf", lambda: tree_gf(2.5), TypeError, "float"),
    ("rhs_main", lambda: rhs_main(2.5), TypeError, "float"),
    ("series pow", lambda: (1 + _Z) ** 0.5, TypeError, "float"),
    ("poly pow", lambda: UPolynomial.u() ** 2.5, TypeError, "float"),
    ("poly coefficient", lambda: UPolynomial.u().coefficient(2.5), TypeError, "float"),
    ("poly coefficient x", lambda: UPolynomial.u().coefficient(1, 2.5), TypeError, "float"),
    ("lhs_lacunary stride", lambda: lhs_lacunary(2.0, 4), TypeError, "float"),
    ("exp_of_m_power", lambda: exp_of_m_power(_Z, 2.0), TypeError, "float"),
    ("multi_cycle_coefficient", lambda: multi_cycle_coefficient(2.0), TypeError, "float"),
    ("hypergeom_term", lambda: hypergeom_term(2.0), TypeError, "float"),
    ("enumerate_matchings", lambda: enumerate_matchings(2.0), TypeError, "float"),
    ("enumerate_w_trees", lambda: enumerate_w_trees(2.0), TypeError, "float"),
    ("enumerate_marked_graphs", lambda: enumerate_marked_graphs(2.0), TypeError, "float"),
    ("factor_census_check", lambda: factor_census_check(2.0), TypeError, "float"),
    # a bool is not an order, though Python counts it as an int
    ("verify bool", lambda: verify("main", True), TypeError, "bool"),
    ("rhs_main bool", lambda: rhs_main(True), TypeError, "bool"),
    ("series pow bool", lambda: (1 + _Z) ** True, TypeError, "bool"),
    ("exp_of_m_power bool", lambda: exp_of_m_power(_Z, True), TypeError, "bool"),
    ("multi_cycle_coefficient bool", lambda: multi_cycle_coefficient(True), TypeError, "bool"),
    ("hypergeom_term bool", lambda: hypergeom_term(True), TypeError, "bool"),
    ("enumerate_matchings bool", lambda: enumerate_matchings(True), TypeError, "bool"),
    ("enumerate_w_trees bool", lambda: enumerate_w_trees(True), TypeError, "bool"),
    ("enumerate_marked_graphs bool", lambda: enumerate_marked_graphs(True), TypeError, "bool"),
    ("factor_census_check bool", lambda: factor_census_check(True), TypeError, "bool"),
    # a negative int is a ValueError naming its value
    ("truncated", lambda: TruncSeries.one(4).truncated(-1), ValueError, "-1"),
    ("poly exponent", lambda: UPolynomial({(-1, 0): 1}), ValueError, "-1"),
    ("series exponent", lambda: TruncSeries(4, {(-1,): 1}), ValueError, "-1"),
    ("coefficient", lambda: TruncSeries.one(4).coefficient((-1,)), ValueError, "-1"),
    ("hermite_h", lambda: hermite_h(-1), ValueError, "-1"),
    ("lhs_lacunary", lambda: lhs_lacunary(3, -1), ValueError, "-1"),
    ("one_cycle_factor", lambda: one_cycle_factor(-1), ValueError, "-1"),
    ("multi_cycle_factor", lambda: multi_cycle_factor(-1), ValueError, "-1"),
    ("hypergeom_form_check", lambda: hypergeom_form_check(-1), ValueError, "-1"),
    ("w_fixed_point", lambda: w_fixed_point(-1), ValueError, "-1"),
    ("rhs_main", lambda: rhs_main(-1), ValueError, "-1"),
    ("poly pow", lambda: UPolynomial.u() ** -1, ValueError, "-1"),
    ("poly coefficient", lambda: UPolynomial.u().coefficient(-1), ValueError, "-1"),
    ("poly coefficient x", lambda: UPolynomial.u().coefficient(1, -1), ValueError, "-1"),
    ("exp_of_m_power", lambda: exp_of_m_power(_Z, -1), ValueError, "-1"),
    ("multi_cycle_coefficient", lambda: multi_cycle_coefficient(-1), ValueError, "-1"),
    ("hypergeom_term", lambda: hypergeom_term(-1), ValueError, "-1"),
    ("enumerate_matchings", lambda: enumerate_matchings(-1), ValueError, "-1"),
    ("enumerate_w_trees", lambda: enumerate_w_trees(-1), ValueError, "-1"),
    ("enumerate_marked_graphs", lambda: enumerate_marked_graphs(-1), ValueError, "-1"),
    ("factor_census_check", lambda: factor_census_check(-1), ValueError, "-1"),
]


@pytest.mark.parametrize(
    "build, error, got",
    [case[1:] for case in BAD_INT_ARGUMENTS],
    ids=[f"{name}-{error.__name__}" for name, _, error, _ in BAD_INT_ARGUMENTS],
)
def test_bad_int_arguments_are_rejected(build, error, got):
    with pytest.raises(error, match=f"got {got}$"):
        build()


@pytest.mark.parametrize(
    "build, name",
    [(lambda: exp_of_m_power(_Z, 2.0), "power"), (lambda: factor_census_check(True), "n_max")],
)
def test_int_check_names_the_argument(build, name):
    """The check blames the argument given, not a value derived from it further in."""
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
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


def test_egf_series_stores_no_part_for_a_zero_row():
    """A zero row adds no part: the series equals the constructor's, and all-zero rows
    make a zero series."""
    egf = hermite._egf_series(3, [[1], [0], [0, 0], [1, 0, 0, 0]], 2)
    assert egf == TruncSeries(3, {(0,): 1, (3,): Rational(1, 6)})
    zero = hermite._egf_series(2, [[0], [0, 0], [0, 0, 0]], 2)
    assert not zero and zero == TruncSeries.zero(2)


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


def test_f_operator_annihilates_the_right_side():
    """F = e^T s^(-1/2) y(54z^2/s^3) solves F' = sum c z^j u^p F^(k) over _F_OPERATOR
    for every solution y of the 2F0(1/6, 5/6;; x) equation
    x^2 y'' + (2x - 1) y' + (5/36) y = 0, of which sum_n c_n z^(2n) s^(-3n) is the
    formal one.  It works in the field Q(u, s), whose
    fractions stay in lowest terms, with s = sqrt(1 - 12uz), z = (1 - s^2) / (12u),
    w = 2u / (1 + s) and d/dz = -(6u/s) d/ds: F^(k) / (e^T s^(-1/2)) is
    A_k y + B_k y' once y'' is eliminated, and A_1 and B_1 equal the table's sums of
    the A_k and of the B_k."""
    sp = pytest.importorskip("sympy")
    field, u, s = sp.field("u, s", sp.QQ)
    z = (1 - s**2) / (12 * u)
    w = 2 * u / (1 + s)
    tree = (w - u) * (3 * u - w) / 6

    def d_dz(expr):
        return -6 * u / s * expr.diff(s)

    log_derivative = d_dz(tree) - d_dz(s) / (2 * s)  # of e^T s^(-1/2)
    x = 54 * z**2 / s**3
    dx = d_dz(x)
    derivatives = [(field.one, field.zero)]
    for _ in range(2):
        # d/dz (a y + b y') = (a' + a log_derivative) y + (a dx + b' + b log_derivative) y'
        #     + b dx y'', with x^2 y'' = -(2x - 1) y' - (5/36) y
        a, b = derivatives[-1]
        derivatives.append((
            d_dz(a) + a * log_derivative - b * dx * sp.Rational(5, 36) / x**2,
            a * dx + d_dz(b) + b * log_derivative - b * dx * (2 * x - 1) / x**2,
        ))
    for part in (0, 1):
        total = sum(
            c * z**j * u**p * derivatives[k][part]
            for (k, j, p), c in identities._F_OPERATOR.items()
        )
        assert derivatives[1][part] - total == 0, part
    # every entry reads an earlier row, so operator_rows divides no row
    assert all(j >= k for k, j, _ in identities._F_OPERATOR)


@pytest.mark.parametrize(
    "namespace, name, closed_form",
    [
        (vars(identities), "_DOETSCH_OPERATOR", "(1 - 2*z)**(-1/2) * exp(u**2*z / (1 - 2*z))"),
        (hermite._OPERATORS, HermiteKind.PROBABILIST, "exp(u*z + z**2/2)"),
        (hermite._OPERATORS, HermiteKind.PHYSICIST, "exp(2*u*z - z**2)"),
    ],
    ids=["doetsch", "h", "H"],
)
def test_first_order_operators_annihilate_their_series(namespace, name, closed_form):
    """Each first-order table is the right side of F' = ... for its closed form, which
    is 1 at z = 0, and every entry reads an earlier row, so operator_rows divides none."""
    sp = pytest.importorskip("sympy")
    u, z = sp.symbols("u z")
    f = sp.sympify(closed_form, locals={"u": u, "z": z})
    table = namespace[name]
    total = sum(c * z**j * u**p * f.diff(z, k) for (k, j, p), c in table.items())
    assert sp.simplify((f.diff(z) - total) / f) == 0
    assert f.subs(z, 0) == 1
    assert all(j >= k for k, j, _ in table)
