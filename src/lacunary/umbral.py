"""Polynomials in the umbra M and the moment-substitution functional.

An ``MExpression`` maps M-degrees to ``TruncSeries`` coefficients that all
share one truncation order and variable set; it stores only the nonzero
ones, so its M-degrees are exactly those of its nonzero coefficients.
``umbral_eval`` is the linear functional replacing M^n by the
perfect-matching moment ``m_moment(n)``; odd degrees vanish.  A product or
an evaluation is one ``_sum_products`` pass of the series kernel per
M-degree, over M-coefficients each lifted once.

The paper's umbral proofs need only exponentials of one M-monomial
(``exp_of_m_power``), their products and the moment functional, so that is
all an M-expression does: the constructor, ``*`` between two M-expressions
and ``umbral_eval``.  Like a series product, a product takes the smaller
operand order and needs equal variable sets.  Nothing is truncated in M.  A
product keeps every nonzero coefficient, and ``umbral_eval`` sums them all.
``exp_of_m_power`` sums over ``TruncSeries.powers()`` of its argument,
which must have zero constant term, so it stops by itself.
"""

from __future__ import annotations

import math
from fractions import Fraction as Rational
from typing import Mapping

from .hermite import m_moment
from .poly import _check_nonnegative_int
from .report import IdentityReport, compare_series
from .series import _LIFTED_ONE, TruncSeries, _lift, _make, _operand, _sum_products


class MExpression:
    """Immutable polynomial in the umbra M with TruncSeries coefficients.

    ``order`` and ``vars`` come from the coefficients given, zero ones
    included, so a zero expression is ``MExpression({0: zero_series})``.
    """

    __slots__ = ("order", "vars", "_coeffs")

    def __init__(self, coeffs: Mapping[int, TruncSeries]):
        if not coeffs:
            raise ValueError("need at least one coefficient")
        cleaned: dict[int, TruncSeries] = {}
        order = vars = None
        for d, series in coeffs.items():
            _check_nonnegative_int(d, "M-degree")
            if order is None:
                order, vars = series.order, series.vars
            elif (series.order, series.vars) != (order, vars):
                raise ValueError("all M-coefficients must share order and variables")
            if series:
                cleaned[d] = series
        self.order = order
        self.vars = vars
        self._coeffs = cleaned

    # -- inspection ----------------------------------------------------------

    def coefficient(self, mdeg: int) -> TruncSeries:
        _check_nonnegative_int(mdeg, "M-degree")
        return self._coeffs.get(mdeg) or TruncSeries.zero(self.order, self.vars)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MExpression):
            return NotImplemented
        return (
            self.order == other.order
            and self.vars == other.vars
            and self._coeffs == other._coeffs
        )

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other) -> "MExpression":
        if not isinstance(other, MExpression):
            return NotImplemented
        # an expression has the order and vars of its coefficients
        _, order = _operand(other.coefficient(0), self.order, self.vars)
        lifted_b = [(db, _lift(sb._parts)) for db, sb in other._coeffs.items()]
        groups: dict[int, list] = {0: []}  # so a zero product keeps its order and vars
        for da, sa in self._coeffs.items():
            lifted_a = _lift(sa._parts)
            for db, lb in lifted_b:
                groups.setdefault(da + db, []).append((1, lifted_a, lb))
        out = {d: _sum_products(products, order) for d, products in groups.items()}
        return MExpression({d: _make(order, parts, self.vars) for d, parts in out.items()})


def umbral_eval(expr: MExpression) -> TruncSeries:
    """Apply the moment functional: sum_d m_moment(d) * coefficient(M^d)."""
    products = [
        (m_moment(d), _lift(series._parts), _LIFTED_ONE)
        for d, series in expr._coeffs.items()
        if not d % 2
    ]
    return _make(expr.order, _sum_products(products, expr.order), expr.vars)


def exp_of_m_power(s: TruncSeries, power: int) -> MExpression:
    """exp(M^power * s) as an M-polynomial: sum_d M^(power*d) s^d / d!.

    ``s`` must have zero constant term; the sum runs over ``s.powers()``.
    """
    if _check_nonnegative_int(power, "power") < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    return MExpression(
        {power * d: s_d / math.factorial(d) for d, s_d in enumerate(s.powers())}
    )


# -- executable identity checks ---------------------------------------------


def _two_var(order: int):
    vars = ("z", "x")
    z = TruncSeries.variable("z", order, vars)
    x = TruncSeries.variable("x", order, vars)
    return vars, z, x


def verify_lemma_fm_i(order: int) -> IdentityReport:
    """Shift rule at f(t)=e^(t*x):  eval(e^(Mz) e^(Mx)) = e^(z^2/2) e^(zx) eval(e^(Mx))."""
    _, z, x = _two_var(order)
    lhs = umbral_eval(exp_of_m_power(z, 1) * exp_of_m_power(x, 1))
    rhs = ((z * z) / 2).exp() * (z * x).exp() * umbral_eval(exp_of_m_power(x, 1))
    return compare_series("lemma-fm-i", order, lhs, rhs)


def verify_lemma_fm_ii(order: int) -> IdentityReport:
    """Moment series of M^2:  eval(e^(M^2 z)) = (1 - 2z)^(-1/2)."""
    z = TruncSeries.variable("z", order)
    lhs = umbral_eval(exp_of_m_power(z, 2))
    rhs = (TruncSeries.one(order) - 2 * z) ** Rational(-1, 2)
    return compare_series("lemma-fm-ii", order, lhs, rhs)


def verify_corollary_and_ecor(order: int) -> IdentityReport:
    """Both rescaling consequences of the shift rule, as two-variable series.

    (a) eval(e^(M^2 z + M x))   = (1-2z)^(-1/2) * exp(x^2 / (2(1-2z)))
    (b) eval(e^(M^2 z + M^3 x)) = (1-2z)^(-1/2) * sum_n m_moment(3n)/n! * x^n (1-2z)^(-3n/2)

    The sum in (b) is a power series in Q = x (1-2z)^(-3/2), summed over
    ``Q.powers()``; each power of 1 - 2z is one run of the series power recurrence.
    """
    vars, z, x = _two_var(order)
    exp_m2z = exp_of_m_power(z, 2)
    base = TruncSeries.one(order, vars) - 2 * z
    inv_sqrt = base ** Rational(-1, 2)

    lhs_a = umbral_eval(exp_m2z * exp_of_m_power(x, 1))
    rhs_a = inv_sqrt * ((x * x) * base**-1 / 2).exp()
    report = compare_series("corollary", order, lhs_a, rhs_a)
    if not report.verified:
        return IdentityReport("corollary-ecor", order, report.mismatch)

    lhs_b = umbral_eval(exp_m2z * exp_of_m_power(x, 3))
    q = x * base ** Rational(-3, 2)
    acc = TruncSeries.zero(order, vars)
    for n, q_n in enumerate(q.powers()):
        moment = m_moment(3 * n)
        if moment:
            acc = acc + q_n * Rational(moment, math.factorial(n))
    rhs_b = inv_sqrt * acc
    report = compare_series("ecor", order, lhs_b, rhs_b)
    return IdentityReport("corollary-ecor", order, report.mismatch)
