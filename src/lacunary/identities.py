"""Construction and coefficient-exact verification of the generating-function
identities.

Everything here is a univariate truncated series in z with polynomial
coefficients in u.  The central object is the weighted rooted-tree series

    w = u + 3*w^2*z = (1 - sqrt(1 - 12*u*z)) / (6*z),

whose z^n coefficient is 3^n * C_n * u^(n+1) with C_n the Catalan numbers,
and 1 - 6wz = s = sqrt(1 - 12uz), so w = 2u (1 + s)^(-1).  Each factor is
built by one route, ``_ratio_series``, from coefficients that are each the
last times a rational term ratio: ``w_series`` by that Catalan formula,
``tree_gf`` by its explicit one, and the two cycle factors as binomial
series, ``one_cycle_factor`` = (1 - 12uz)^(-1/4) and ``multi_cycle_factor`` =
sum_n c_n z^(2n) (1 - 12uz)^(-3n/2), one run per n.  The other routes are
checks only: ``w-routes`` compares the fixed point and the closed form
against ``w_series``, ``tree-gf-routes`` the product and integral routes
against ``tree_gf``, ``one-cycle-routes`` the power (1 - 6wz)^(-1/2) and the
exp-log route against ``one_cycle_factor``, and ``hypergeom`` the
hypergeometric sum of ``hypergeom_term(n)`` times the powers of
z^2 (1 - 6wz)^(-3) against ``multi_cycle_factor``; the last two carry the
check of w against the cycle factors.  The closed form and the integral
route are written in s, so no route divides by z.  Nothing is cached; w is
cheap to rebuild.

Both headline right sides are D-finite: ``rhs_main`` and ``rhs_doetsch`` solve
their ODEs, in the solved form F' = ... of ``_F_OPERATOR`` and ``_DOETSCH_OPERATOR``,
by ``hermite.operator_rows`` (which gives the Hermite EGFs' rows too), and the left
sides count matchings by ``hermite.matching_rows``; ``hermite._egf_series`` holds
either as a series of rows, so a verified check compares ``int`` rows.  So ``main``
reads neither w nor c_n nor any factor builder, no headline check multiplies a
series, and the three factors' product, ``rhs_main_product_route``, is main's
check, run by ``rhs-main-routes``.

The identities themselves form a closed enumeration (see IDENTITIES);
``verify`` builds both sides and compares coefficient by coefficient,
returning an :class:`IdentityReport`.  The two headline identities are the
even-stride (Doetsch) generating function

    sum_n h_{2n}(u) z^n/n!  =  (1-2z)^(-1/2) * exp(u^2 z / (1-2z))

and the triple-stride one, whose right side is the product of three
combinatorially meaningful factors: exp(T) for forests of unrooted trees,
(1-6wz)^(-1/2) for cycles of trees, and an explicit double sum for the
components with at least two independent cycles.  The product route
multiplies the two cycle factors first, since they hold one term per degree
and power of u.
"""

from __future__ import annotations

import math
from fractions import Fraction as Rational

from .hermite import _egf_series, matching_rows, operator_rows
from .poly import POLY_U, UPolynomial, _check_nonnegative_int
from .poly import _make as _make_poly
from .report import IdentityReport, Mismatch, compare_series
from .series import DEFAULT_VARS, TruncSeries
from .series import _make as _make_series
from .umbral import verify_corollary_and_ecor, verify_lemma_fm_i, verify_lemma_fm_ii


def catalan_number(n: int) -> int:
    """C_n = binom(2n, n) / (n + 1)."""
    _check_nonnegative_int(n, "n")
    return math.comb(2 * n, n) // (n + 1)


def _u_series(order: int) -> TruncSeries:
    return TruncSeries.from_poly(POLY_U, order)


def w_fixed_point(order: int) -> TruncSeries:
    """Iterate w <- u + 3*w^2*z; pass k settles z^k, so it runs at order k, with
    3*w^2 of the previous pass placed one degree up."""
    w = _u_series(0)
    for k in range(1, _check_nonnegative_int(order, "truncation order") + 1):
        square = w * w
        w = TruncSeries(k, {(0,): POLY_U, **{(d + 1,): 3 * c for (d,), c in square.items()}})
    return w


def _sqrt_1_minus_12uz(order: int) -> TruncSeries:
    """s = (1 - 12uz)^(1/2), in which w = 2u / (1 + s) needs no division by z."""
    return (1 - TruncSeries.monomial((1,), UPolynomial.u(coeff=12), order)) ** Rational(1, 2)


def w_closed_form(order: int) -> TruncSeries:
    """(1 - sqrt(1 - 12*u*z)) / (6*z) = 2u * (1 + s)^(-1), with s = sqrt(1 - 12uz)."""
    return 2 * POLY_U * (1 + _sqrt_1_minus_12uz(order)) ** -1


def _ratio_series(order: int, runs) -> TruncSeries:
    """The sum over ``runs`` (z0, u0, t0, ratio) of t_k u^(u0+k) z^(z0+k), z0+k <= order,
    with t_(k+1) = t_k p/q for (p, q) = ratio(k): one int numerator and denominator
    per run, which ends at its first zero term."""
    parts: dict[int, dict] = {}
    for z0, u0, t0, ratio in runs:
        num, den = t0.numerator, t0.denominator
        for k in range(_check_nonnegative_int(order, "truncation order") - z0 + 1):
            if not num:
                break
            parts.setdefault(z0 + k, {})[(u0 + k, 0)] = Rational(num, den)
            p, q = ratio(k)
            num, den = num * p, den * q
    return _make_series(order, {d: _make_poly(p) for d, p in parts.items()}, DEFAULT_VARS)


def w_series(order: int) -> TruncSeries:
    """The tree series w by its coefficients: z^n |-> 3^n C_n u^(n+1), of ratio 6(2n+1)/(n+2)."""
    return _ratio_series(order, [(0, 1, 1, lambda n: (6 * (2 * n + 1), n + 2))])


def lhs_lacunary(stride: int, order: int) -> TruncSeries:
    """sum_{n<=order} h_{stride*n}(u) z^n / n! for stride 2 or 3, from the matching counts."""
    if _check_nonnegative_int(stride, "stride") not in (2, 3):
        raise ValueError(f"stride must be 2 or 3, got {stride}")
    return _egf_series(order, matching_rows(stride), stride)


# F = rhs_doetsch solves (1 - 2z)^2 F' = (1 - 2z + u^2) F with F(0) = 1, that is
#     F' = (1 - 2z + u^2) F + (4z - 4z^2) F',
# kept as the table {(k, j, p): c} of its right side's terms c z^j u^p (d/dz)^k F.
_DOETSCH_OPERATOR = {(0, 0, 0): 1, (0, 0, 2): 1, (0, 1, 0): -2, (1, 1, 0): 4, (1, 2, 0): -4}


def rhs_doetsch(order: int) -> TruncSeries:
    """(1 - 2z)^(-1/2) * exp(u^2 z / (1 - 2z)), solved from its own operator."""
    return _egf_series(order, operator_rows(_DOETSCH_OPERATOR, 2), 2)


# -- the tree generating function, three ways --------------------------------


def tree_gf_product_route(order: int) -> TruncSeries:
    """(w - u) * (3u - w) / 6 from the shared w."""
    w = w_series(order)
    u = _u_series(order)
    return (w - u) * (3 * u - w) / 6


def tree_gf_integral_route(order: int) -> TruncSeries:
    """((1-12uz)^(3/2) - 1 + 18uz) / (108 z^2) - u^2/2, the antiderivative of w - u,
    as (2u^2/3) (1 + 2s) (1 + s)^(-2) - u^2/2 with s = sqrt(1 - 12uz)."""
    s = _sqrt_1_minus_12uz(order)
    u2 = UPolynomial.u(power=2)
    return u2 * Rational(2, 3) * (1 + 2 * s) * (1 + s) ** -2 - u2 / 2


def tree_gf(order: int) -> TruncSeries:
    """The unrooted-tree series T = sum_{n>=1} 3^n (2n)!/(n+2)! u^(n+2) z^n / n!, whose
    ratio from z^n to z^(n+1) is 6(2n+1)/(n+3); its run starts at z^1, so n = k + 1."""
    return _ratio_series(order, [(1, 3, 1, lambda k: (6 * (2 * k + 3), k + 4))])


# -- cycle factors ------------------------------------------------------------


def _one_minus_6wz(order: int) -> TruncSeries:
    return TruncSeries.one(order) - 6 * w_series(order) * TruncSeries.variable("z", order)


def one_cycle_exp_log_route(order: int) -> TruncSeries:
    return (_one_minus_6wz(order).log() * Rational(-1, 2)).exp()


def one_cycle_power_route(order: int) -> TruncSeries:
    return _one_minus_6wz(order) ** Rational(-1, 2)


def one_cycle_factor(order: int) -> TruncSeries:
    """(1 - 6wz)^(-1/2) = (1 - 12uz)^(-1/4): graphs whose components are single cycles
    of trees, by its coefficients u^k z^k |-> 3^k prod_{j<k} (1+4j)/k!, of ratio 3(1+4k)/(k+1)."""
    return _ratio_series(order, [(0, 0, 1, lambda k: (3 * (1 + 4 * k), k + 1))])


def multi_cycle_coefficient(n: int) -> Rational:
    """(6n)! / (2^(3n) (3n)! (2n)!), the z^(2n) scalar of the multi-cycle sum."""
    _check_nonnegative_int(n, "n")
    return Rational(
        math.factorial(6 * n), 2 ** (3 * n) * math.factorial(3 * n) * math.factorial(2 * n)
    )


def multi_cycle_factor(order: int) -> TruncSeries:
    """sum_n c_n z^(2n) (1-6wz)^(-3n) = sum_n c_n z^(2n) (1-12uz)^(-3n/2), with
    c_n = ``multi_cycle_coefficient(n)``: one run per n, u^k z^(2n+k) |-> c_n 6^k
    prod_{j<k} (3n+2j) / k!, of ratio 6(3n+2k)/(k+1), which ends after c_0 at n = 0."""
    runs = [
        (2 * n, 0, multi_cycle_coefficient(n), lambda k, n=n: (6 * (3 * n + 2 * k), k + 1))
        for n in range(_check_nonnegative_int(order, "truncation order") // 2 + 1)
    ]
    return _ratio_series(order, runs)


def rhs_main_product_route(order: int) -> TruncSeries:
    """exp(T) * ((1-6wz)^(-1/2) * multi-cycle sum), the sparse cycle factors first."""
    return tree_gf(order).exp() * (one_cycle_factor(order) * multi_cycle_factor(order))


# -- the right side of main, from its own ODE ----------------------------------
# F = rhs_main is the power-series solution with F(0) = 1 of
#     F' = (u^3 + 3u + 15z - 3u^4 z - 18uz^2) F
#         + (12uz + 81z^2 - 27u^2 z^2 - 162uz^3) F' + 27 z^3 (1 - 3uz) F'',
# kept as the table {(k, j, p): c} of its right side's terms c z^j u^p (d/dz)^k F.
_F_OPERATOR = {
    (0, 0, 1): 3, (0, 0, 3): 1, (0, 1, 0): 15, (0, 1, 4): -3, (0, 2, 1): -18,
    (1, 1, 1): 12, (1, 2, 0): 81, (1, 2, 2): -27, (1, 3, 1): -162,
    (2, 3, 0): 27, (2, 4, 1): -81,
}


def rhs_main(order: int) -> TruncSeries:
    """exp(T) (1-6wz)^(-1/2) sum_n c_n z^(2n) (1-6wz)^(-3n), solved from its own operator."""
    return _egf_series(order, operator_rows(_F_OPERATOR, 3), 3)


# -- hypergeometric form -------------------------------------------------------


def hypergeom_term(n: int) -> Rational:
    """(1/6)_n (5/6)_n 54^n / n!, the 2F0-style expansion scalar, as the product of
    its ratios (1/6 + i)(5/6 + i) 54 / (i + 1) over i < n."""
    num = den = 1
    for i in range(_check_nonnegative_int(n, "n")):  # (1/6 + i)(5/6 + i) = (1+6i)(5+6i)/36
        num, den = num * (1 + 6 * i) * (5 + 6 * i) * 54, den * 36 * (i + 1)
    return Rational(num, den)


def hypergeom_form_check(terms: int) -> IdentityReport:
    """Scalar identity making the hypergeometric form equal the multi-cycle sum.

    Checks (1/6)_n (5/6)_n 54^n / n! == (6n)!/(2^(3n)(3n)!(2n)!) for n <= terms.
    """
    for n in range(_check_nonnegative_int(terms, "terms") + 1):
        lhs = hypergeom_term(n)
        rhs = multi_cycle_coefficient(n)
        if lhs != rhs:
            return IdentityReport(
                "hypergeom",
                terms,
                Mismatch((n,), UPolynomial.constant(lhs), UPolynomial.constant(rhs)),
            )
    return IdentityReport("hypergeom", terms)


def hypergeom_series_route(order: int) -> TruncSeries:
    """The hypergeometric sum sum_n hypergeom_term(n) P^n over P = z^2 (1-6wz)^(-3)."""
    p = TruncSeries.monomial((2,), 1, order) * _one_minus_6wz(order) ** -3
    terms = (hypergeom_term(n) * p_n for n, p_n in enumerate(p.powers()))
    return sum(terms, TruncSeries.zero(order))


# -- the closed identity enumeration ------------------------------------------


def _verify_doetsch(order: int) -> IdentityReport:
    return compare_series("doetsch", order, lhs_lacunary(2, order), rhs_doetsch(order))


def _verify_main(order: int) -> IdentityReport:
    return compare_series("main", order, lhs_lacunary(3, order), rhs_main(order))


def _verify_routes(name, order, routes) -> IdentityReport:
    baseline = routes[0](order)
    for other in routes[1:]:
        report = compare_series(name, order, baseline, other(order))
        if not report.verified:
            return report
    return IdentityReport(name, order)


def _verify_tree_gf_routes(order: int) -> IdentityReport:
    return _verify_routes(
        "tree-gf-routes",
        order,
        (tree_gf, tree_gf_product_route, tree_gf_integral_route),
    )


def _verify_one_cycle_routes(order: int) -> IdentityReport:
    return _verify_routes(
        "one-cycle-routes",
        order,
        (one_cycle_factor, one_cycle_power_route, one_cycle_exp_log_route),
    )


def _verify_w_routes(order: int) -> IdentityReport:
    return _verify_routes(
        "w-routes", order, (w_series, w_fixed_point, w_closed_form)
    )


def _verify_rhs_main_routes(order: int) -> IdentityReport:
    return _verify_routes("rhs-main-routes", order, (rhs_main, rhs_main_product_route))


def _verify_hypergeom(order: int) -> IdentityReport:
    report = hypergeom_form_check(order)
    if not report.verified:
        return report
    series_report = compare_series(
        "hypergeom", order, multi_cycle_factor(order), hypergeom_series_route(order)
    )
    return series_report


def _verify_dt_du(order: int) -> IdentityReport:
    """d(tree gf)/du = w - u, checked one order down."""
    reduced = max(order - 1, 0)
    lhs = tree_gf(order).diff_u().truncated(reduced)
    rhs = (w_series(order) - _u_series(order)).truncated(reduced)
    return IdentityReport("dT-du", order, compare_series("dT-du", reduced, lhs, rhs).mismatch)


IDENTITIES = {
    "doetsch": _verify_doetsch,
    "main": _verify_main,
    "tree-gf-routes": _verify_tree_gf_routes,
    "one-cycle-routes": _verify_one_cycle_routes,
    "w-routes": _verify_w_routes,
    "rhs-main-routes": _verify_rhs_main_routes,
    "hypergeom": _verify_hypergeom,
    "lemma-fm-i": verify_lemma_fm_i,
    "lemma-fm-ii": verify_lemma_fm_ii,
    "corollary-ecor": verify_corollary_and_ecor,
    "dT-du": _verify_dt_du,
}


def identity_names() -> list[str]:
    return list(IDENTITIES)


def verify(identity: str, order: int) -> IdentityReport:
    """Verify one named identity to the given truncation order."""
    try:
        checker = IDENTITIES[identity]
    except KeyError:
        raise ValueError(
            f"unknown identity {identity!r}; choose from {', '.join(IDENTITIES)}"
        ) from None
    return checker(_check_nonnegative_int(order, "order"))
