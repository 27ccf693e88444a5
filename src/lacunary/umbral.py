"""Polynomials in the umbra M and the moment-substitution functional.

An ``MExpression`` maps M-degrees to ``TruncSeries`` coefficients that all
share one truncation order and variable set.  ``umbral_eval`` is the linear
functional replacing M^n by the perfect-matching moment ``m_moment(n)``;
odd degrees vanish.

Truncation in the M-degree is sound, never heuristic: an expression carries
an explicit ``mdeg_bound``, and any operation that would need to store a
NONZERO coefficient above the bound raises instead of dropping it.  The
exponential constructors rely on their argument having zero constant term,
so the coefficient of M^(p*d) is a series of total degree >= d; with the
default bound 3*order (each M is paired with at least a third of a series
power, the worst case being cubes of M against single powers) every
coefficient beyond the bound is already zero in the truncated series ring,
and construction succeeds.  Passing a too-small bound fails loudly.

Products add the operands' bounds, which over-counts but never discards,
keeping polynomial arithmetic in M exact.
"""

from __future__ import annotations

import math
from typing import Mapping

from .hermite import m_moment
from .poly import UPolynomial
from .rational import RATIONAL_ZERO, Rational
from .report import IdentityReport, compare_series
from .series import TruncSeries


def default_mdeg_bound(order: int) -> int:
    """M-degree bound that makes truncation lossless at this series order."""
    return 3 * order


class MExpression:
    """Immutable polynomial in the umbra M with TruncSeries coefficients."""

    __slots__ = ("order", "vars", "mdeg_bound", "_coeffs")

    def __init__(self, coeffs: Mapping[int, TruncSeries], mdeg_bound: int):
        if mdeg_bound < 0:
            raise ValueError(f"mdeg_bound must be >= 0, got {mdeg_bound}")
        cleaned: dict[int, TruncSeries] = {}
        order = vars = None
        for d, series in coeffs.items():
            if d < 0:
                raise ValueError(f"negative M-degree {d}")
            if series.is_zero():
                continue
            if d > mdeg_bound:
                raise ValueError(
                    f"nonzero coefficient at M^{d} exceeds mdeg_bound {mdeg_bound}"
                )
            if order is None:
                order, vars = series.order, series.vars
            elif (series.order, series.vars) != (order, vars):
                raise ValueError("all M-coefficients must share order and variables")
            cleaned[d] = series
        if order is None:
            raise ValueError(
                "need at least one nonzero coefficient; use from_series for zero"
            )
        self.order = order
        self.vars = vars
        self.mdeg_bound = mdeg_bound
        self._coeffs = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_series(cls, series: TruncSeries, mdeg_bound: int = 0) -> "MExpression":
        """Embed an ordinary series as the M-degree-0 part."""
        return cls({0: series}, mdeg_bound) if series else cls._empty(series, mdeg_bound)

    @classmethod
    def umbra(cls, order: int, vars=("z",), mdeg_bound: int = 1) -> "MExpression":
        """The bare umbra M."""
        return cls({1: TruncSeries.one(order, vars)}, mdeg_bound)

    @classmethod
    def _empty(cls, template: TruncSeries, mdeg_bound: int) -> "MExpression":
        expr = cls.__new__(cls)
        expr.order = template.order
        expr.vars = template.vars
        expr.mdeg_bound = mdeg_bound
        expr._coeffs = {}
        return expr

    # -- inspection ----------------------------------------------------------

    def coefficient(self, mdeg: int) -> TruncSeries:
        if mdeg < 0 or mdeg > self.mdeg_bound:
            raise ValueError(f"M-degree {mdeg} outside bound {self.mdeg_bound}")
        return self._coeffs.get(mdeg, TruncSeries.zero(self.order, self.vars))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MExpression):
            return NotImplemented
        return (
            self.order == other.order
            and self.vars == other.vars
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.order, self.vars, frozenset(self._coeffs.items())))

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, value) -> "MExpression":
        if isinstance(value, MExpression):
            return value
        if not isinstance(value, TruncSeries):
            if not isinstance(value, (int, UPolynomial, type(RATIONAL_ZERO))):
                return NotImplemented
            series = TruncSeries.from_poly(
                value if isinstance(value, UPolynomial) else UPolynomial.constant(value),
                self.order,
                self.vars,
            )
        else:
            series = value
        return MExpression.from_series(series)

    def __add__(self, other) -> "MExpression":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._coeffs)
        for d, series in other._coeffs.items():
            s = out.get(d)
            s = series if s is None else s + series
            if s:
                out[d] = s
            else:
                out.pop(d, None)
        bound = max(self.mdeg_bound, other.mdeg_bound)
        return MExpression(out, bound) if out else MExpression._empty(
            TruncSeries.zero(self.order, self.vars), bound
        )

    __radd__ = __add__

    def __neg__(self) -> "MExpression":
        out = {d: -s for d, s in self._coeffs.items()}
        return MExpression(out, self.mdeg_bound) if out else self

    def __sub__(self, other) -> "MExpression":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "MExpression":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        bound = self.mdeg_bound + other.mdeg_bound
        out: dict[int, TruncSeries] = {}
        for da, sa in self._coeffs.items():
            for db, sb in other._coeffs.items():
                prod = sa * sb
                if not prod:
                    continue
                d = da + db
                s = out.get(d)
                out[d] = prod if s is None else s + prod
        out = {d: s for d, s in out.items() if s}
        if not out:
            return MExpression._empty(TruncSeries.zero(self.order, self.vars), bound)
        return MExpression(out, bound)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MExpression":
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"M-expression power must be a nonnegative int, got {k!r}")
        result = MExpression.from_series(TruncSeries.one(self.order, self.vars))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result


def umbral_eval(expr: MExpression) -> TruncSeries:
    """Apply the moment functional: sum_d m_moment(d) * coefficient(M^d)."""
    total = TruncSeries.zero(expr.order, expr.vars)
    for d, series in expr._coeffs.items():
        moment = m_moment(d)
        if moment:
            total = total + series * moment
    return total


def exp_of_m_power(s: TruncSeries, power: int, mdeg_bound: int) -> MExpression:
    """exp(M^power * s) as an M-polynomial: sum_d M^(power*d) s^d / d!.

    ``s`` must have zero constant term so that successive powers gain total
    degree and the sum terminates within the truncation; a nonzero term that
    would land beyond ``mdeg_bound`` raises rather than being dropped.
    """
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    if s.constant_coefficient():
        raise ValueError("exp_of_m_power needs a series with zero constant term")
    coeffs: dict[int, TruncSeries] = {}
    s_pow = TruncSeries.one(s.order, s.vars)
    d = 0
    while s_pow:
        coeffs[power * d] = s_pow / math.factorial(d)
        d += 1
        s_pow = s_pow * s
    return MExpression(coeffs, mdeg_bound)


def exp_of_linear_M(s: TruncSeries, mdeg_bound: int) -> MExpression:
    """exp(M * s), the linear-exponent special case."""
    return exp_of_m_power(s, 1, mdeg_bound)


# -- executable identity checks ---------------------------------------------


def _two_var(order: int):
    vars = ("z", "x")
    z = TruncSeries.variable("z", order, vars)
    x = TruncSeries.variable("x", order, vars)
    return vars, z, x


def verify_lemma_fm_i(order: int) -> IdentityReport:
    """Shift rule at f(t)=e^(t*x):  eval(e^(Mz) e^(Mx)) = e^(z^2/2) e^(zx) eval(e^(Mx))."""
    _, z, x = _two_var(order)
    bound = default_mdeg_bound(order)
    lhs = umbral_eval(exp_of_linear_M(z, bound) * exp_of_linear_M(x, bound))
    rhs = (
        ((z * z) / 2).exp()
        * (z * x).exp()
        * umbral_eval(exp_of_linear_M(x, bound))
    )
    return compare_series("lemma-fm-i", order, lhs, rhs)


def verify_lemma_fm_ii(order: int) -> IdentityReport:
    """Moment series of M^2:  eval(e^(M^2 z)) = (1 - 2z)^(-1/2)."""
    z = TruncSeries.variable("z", order)
    lhs = umbral_eval(exp_of_m_power(z, 2, default_mdeg_bound(order)))
    rhs = (TruncSeries.one(order) - 2 * z).sqrt().inverse()
    return compare_series("lemma-fm-ii", order, lhs, rhs)


def verify_corollary_and_ecor(order: int) -> IdentityReport:
    """Both rescaling consequences of the shift rule, as two-variable series.

    (a) eval(e^(M^2 z + M x))   = (1-2z)^(-1/2) * exp(x^2 / (2(1-2z)))
    (b) eval(e^(M^2 z + M^3 x)) = (1-2z)^(-1/2) * sum_n m_moment(3n)/n! * x^n (1-2z)^(-3n/2)

    Fractional powers never appear: (1-2z)^(-3n/2) is formed from the one
    square root s = sqrt(1-2z) by integer powers of its inverse.
    """
    vars, z, x = _two_var(order)
    bound = default_mdeg_bound(order)
    one = TruncSeries.one(order, vars)
    exp_m2z = exp_of_m_power(z, 2, bound)
    inv = (one - 2 * z).inverse()
    inv_sqrt = (one - 2 * z).sqrt().inverse()

    lhs_a = umbral_eval(exp_m2z * exp_of_linear_M(x, bound))
    rhs_a = inv_sqrt * ((x * x) * inv / 2).exp()
    report = compare_series("corollary", order, lhs_a, rhs_a)
    if not report.verified:
        return IdentityReport("corollary-ecor", order, report.mismatch)

    lhs_b = umbral_eval(exp_m2z * exp_of_m_power(x, 3, bound))
    inv_s3 = (inv_sqrt * inv_sqrt * inv_sqrt)
    acc = TruncSeries.zero(order, vars)
    x_pow = one
    scale_pow = one
    for n in range(order + 1):
        moment = m_moment(3 * n)
        if moment:
            acc = acc + x_pow * scale_pow * Rational(moment, math.factorial(n))
        x_pow = x_pow * x
        scale_pow = scale_pow * inv_s3
    rhs_b = inv_sqrt * acc
    report = compare_series("ecor", order, lhs_b, rhs_b)
    return IdentityReport("corollary-ecor", order, report.mismatch)
