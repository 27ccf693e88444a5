"""Polynomials in the umbra M and the moment-substitution functional.

An ``MExpression`` maps M-degrees to ``TruncSeries`` coefficients that all
share one truncation order and variable set; it stores only the nonzero
ones, so its M-degrees are exactly those of its nonzero coefficients.
``umbral_eval`` is the linear functional replacing M^n by the
perfect-matching moment ``m_moment(n)``; odd degrees vanish.  A product or
an evaluation is one ``_sum_products`` pass of the series kernel per
M-degree, over M-coefficients each lifted once.

Like series, sums and products take the smaller operand order and need
equal variable sets.  Nothing is truncated in M.  Sums and products keep
every nonzero coefficient, and ``umbral_eval`` sums them all.  The
exponential constructors sum over ``TruncSeries.powers()`` of their
argument, which must have zero constant term, so they stop by themselves.
"""

from __future__ import annotations

import math
from fractions import Fraction as Rational
from typing import Mapping

from .hermite import m_moment
from .poly import _power
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
            _check_m_degree(d)
            if order is None:
                order, vars = series.order, series.vars
            elif (series.order, series.vars) != (order, vars):
                raise ValueError("all M-coefficients must share order and variables")
            if series:
                cleaned[d] = series
        self.order = order
        self.vars = vars
        self._coeffs = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_series(cls, series: TruncSeries) -> "MExpression":
        """Embed an ordinary series as the M-degree-0 part."""
        return cls({0: series})

    @classmethod
    def umbra(cls, order: int, vars=("z",)) -> "MExpression":
        """The bare umbra M."""
        return cls({1: TruncSeries.one(order, vars)})

    # -- inspection ----------------------------------------------------------

    def coefficient(self, mdeg: int) -> TruncSeries:
        _check_m_degree(mdeg)
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

    def _coerce(self, value) -> tuple:
        """``_operand`` of ``value``, a series or constant joining as M-degree 0."""
        if isinstance(value, MExpression):
            # an expression has the order and vars of its coefficients
            _, order = _operand(value.coefficient(0), self.order, self.vars)
            return value, order
        series, order = _operand(value, self.order, self.vars)
        return (series if series is NotImplemented else MExpression({0: series})), order

    def __add__(self, other) -> "MExpression":
        other, order = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {0: TruncSeries.zero(order, self.vars)}
        for expr in (self, other):
            for d, series in expr._coeffs.items():
                out[d] = out[d] + series if d in out else series.truncated(order)
        return MExpression(out)

    __radd__ = __add__

    def __neg__(self) -> "MExpression":
        out = {d: -s for d, s in self._coeffs.items()}
        return MExpression(out) if out else self

    def __sub__(self, other) -> "MExpression":
        other, _ = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "MExpression":
        other, order = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        lifted_b = [(db, _lift(sb._parts)) for db, sb in other._coeffs.items()]
        groups: dict[int, list] = {0: []}  # so a zero product keeps its order and vars
        for da, sa in self._coeffs.items():
            lifted_a = _lift(sa._parts)
            for db, lb in lifted_b:
                groups.setdefault(da + db, []).append((1, lifted_a, lb))
        out = {d: _sum_products(products, order) for d, products in groups.items()}
        return MExpression({d: _make(order, parts, self.vars) for d, parts in out.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MExpression":
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"M-expression power must be a nonnegative int, got {k!r}")
        return _power(self, k, MExpression.from_series(TruncSeries.one(self.order, self.vars)))


def _check_m_degree(d) -> None:
    if not isinstance(d, int):
        raise TypeError(f"M-degrees must be int, got {type(d).__name__}")
    if d < 0:
        raise ValueError(f"negative M-degree {d}")


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
    if power < 1:
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
