"""Truncated formal power series with exact polynomial coefficients.

A ``TruncSeries`` is a polynomial-coefficient series in one or two series
variables (``z``, optionally a second one, ``x``), truncated at a fixed
total order N inclusive.  Every arithmetic result carries ``order = min``
of the operand orders, and two series are equal only when both order and
all coefficients agree.  Terms the truncation cannot see are unknown, not
zero, which is why the order is part of the value.  Building a series from
raw coefficients embeds them into the truncated ring, so terms above the
order are simply dropped.

Storage is graded by total degree: a series is a sparse mapping from each
degree d <= N to its nonzero homogeneous part.  Part d is
sum_b z^(d-b) x^b p_(d-b,b)(u), kept as the polynomial
sum_b p_(d-b,b)(u) y^b in u and the grading variable y = x/z, which sits in
the second slot of ``UPolynomial`` with deg_y <= d.  So a two-variable
series truncated by total degree is a series in one variable, and
single-variable series never contain y.  The exponent tuples of the paper
appear only at the boundary: the constructor takes
``{(a,) or (a, b): polynomial in u}``, and ``coefficient((a, b))`` and
``items()`` give back the u-polynomial of y^b in part a+b.

A power s^a for a negative int or a ``Rational`` a, exp and log are computed
by order-by-order coefficient recurrences on the homogeneous parts.  The
power's is J. C. P. Miller's, from the Euler operator E that multiplies part
d by d: s * E(s^a) = a * s^a * E(s).  With exact rationals these give the
mathematically exact coefficients up to the truncation order.  No operation
divides by a series variable, so none loses an order.

A power sum sum_n c_n s^n is built from ``s.powers()``.  s has zero
constant term, so s^k starts at total degree k and the powers stop by
themselves; a shift such as z^(2n) belongs inside s, and no power is
truncated by hand, since the kernel skips every degree pair above the order.

Products run on one integer kernel whose single entry is ``_sum_products``,
``scale * sum(w * x * y)`` over weighted products: ``*`` is one call, the
power, exp and log recurrences one per degree (over the base's nonzero parts
only), ``umbral`` one per M-degree.  Each operand (or homogeneous part) is
*lifted* to ``int`` numerators over the lcm of its denominators; one operand of
each product is scaled by an integer to a common denominator, the multiply-add
loop adds pure ``int`` products into sums keyed by (degree, (deg_u, deg_y)),
and each sum is *lowered* once, with one gcd, back to a ``Rational``; sums that
cancel are pruned.  Only the check routes, the umbral lemmas and the census
check call it: the hot paths build series of integer rows (``_from_rows``),
which lower the rows to parts when first read (the unset ``_parts`` slot reaches
``__getattr__``, which no other series calls).  Two series of equal rows and
stride are equal unlowered; every other pair is compared by parts, so rows never
decide that two series differ.

Instances are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction as Rational
from itertools import accumulate, repeat, takewhile
from operator import mul
from typing import Iterator, Mapping, Sequence, Tuple

from .poly import POLY_ONE, POLY_ZERO, UPolynomial, _check_nonnegative_int, _power
from .poly import _make as _make_poly

Exponents = Tuple[int, ...]

DEFAULT_VARS = ("z",)


class TruncSeries:
    """Immutable truncated power series with UPolynomial coefficients."""

    __slots__ = ("vars", "order", "_parts", "_rows")

    def __init__(
        self,
        order: int,
        coeffs: Mapping[Exponents, UPolynomial] | None = None,
        vars: Sequence[str] = DEFAULT_VARS,
    ):
        _check_nonnegative_int(order, "truncation order")
        names = tuple(vars)
        if not 1 <= len(names) <= 2:
            raise ValueError(f"series support 1 or 2 variables, got {names}")
        graded: dict[int, dict] = {}
        if coeffs:
            for exps, poly in coeffs.items():
                e = tuple(exps)
                if len(e) != len(names):
                    raise ValueError(f"bad exponent tuple {e} for variables {names}")
                for k in e:
                    _check_nonnegative_int(k, "exponent")
                if not isinstance(poly, UPolynomial):
                    poly = UPolynomial.constant(poly)
                if any(dx for (_, dx), _ in poly.items()):
                    raise ValueError(f"series coefficients are polynomials in u, got {poly}")
                d = sum(e)
                if d > order:  # quotient-ring embedding: truncate, don't reject
                    continue
                b = e[1] if len(e) == 2 else 0
                for (du, _), c in poly.items():
                    graded.setdefault(d, {})[(du, b)] = c
        self.vars = names
        self.order = order
        self._parts = {d: _make_poly(p) for d, p in graded.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int, vars: Sequence[str] = DEFAULT_VARS) -> "TruncSeries":
        return cls(order, {}, vars)

    @classmethod
    def one(cls, order: int, vars: Sequence[str] = DEFAULT_VARS) -> "TruncSeries":
        return cls.from_poly(POLY_ONE, order, vars)

    @classmethod
    def from_poly(
        cls, poly: UPolynomial, order: int, vars: Sequence[str] = DEFAULT_VARS
    ) -> "TruncSeries":
        """The constant series whose degree-0 coefficient is ``poly``."""
        return cls(order, {(0,) * len(tuple(vars)): poly}, vars)

    @classmethod
    def monomial(
        cls,
        exponents: Exponents,
        coeff,
        order: int,
        vars: Sequence[str] = DEFAULT_VARS,
    ) -> "TruncSeries":
        return cls(order, {tuple(exponents): coeff}, vars)

    @classmethod
    def variable(
        cls, name: str, order: int, vars: Sequence[str] = DEFAULT_VARS
    ) -> "TruncSeries":
        """The series consisting of the single series variable ``name``."""
        names = tuple(vars)
        exps = [0] * len(names)
        exps[names.index(name)] = 1
        return cls.monomial(tuple(exps), POLY_ONE, order, names)

    # -- inspection --------------------------------------------------------

    def coefficient(self, exponents: Exponents) -> UPolynomial:
        """Exact coefficient at the given exponents (zero polynomial if absent).

        Raises ValueError for exponents beyond the truncation order, where
        the coefficient is unknown rather than zero.
        """
        e = tuple(exponents)
        if len(e) != len(self.vars):
            raise ValueError(f"expected {len(self.vars)} exponents, got {e}")
        for k in e:
            _check_nonnegative_int(k, "exponent")
        if sum(e) > self.order:
            raise ValueError(f"exponents {e} beyond truncation order {self.order}")
        b = e[1] if len(e) == 2 else 0
        part = self._parts.get(sum(e), POLY_ZERO)
        return _make_poly({(du, 0): c for (du, db), c in part.items() if db == b})

    def constant_coefficient(self) -> UPolynomial:
        return self._parts.get(0, POLY_ZERO)

    def items(self) -> Iterator[tuple[Exponents, UPolynomial]]:
        """Every nonzero coefficient with its exponent tuple."""
        for d, part in self._parts.items():
            slices: dict[int, dict] = {}
            for (du, b), c in part.items():
                slices.setdefault(b, {})[(du, 0)] = c
            for b, coeffs in slices.items():
                yield (d - b, b)[: len(self.vars)], _make_poly(coeffs)

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __getattr__(self, name):  # only a series of rows lacks _parts, until first read
        if name != "_parts":
            raise AttributeError(name)
        stride, rows, lower = self._rows
        self._parts = lower(stride, rows)
        return self._parts

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.vars != other.vars or self.order != other.order:
            return False
        mine, theirs = getattr(self, "_rows", None), getattr(other, "_rows", None)
        if mine and theirs and mine[:2] == theirs[:2]:  # equal rows of one stride
            return True
        return self._parts == other._parts

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "TruncSeries":
        other, order = _operand(other, self.order, self.vars)
        if other is NotImplemented:
            return NotImplemented
        out = {d: p for d, p in self._parts.items() if d <= order}
        for d, p in other._parts.items():
            if d > order:
                continue
            s = out.get(d)
            s = p if s is None else s + p
            if s:
                out[d] = s
            else:
                out.pop(d, None)
        return _make(order, out, self.vars)

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return _make(self.order, {d: -p for d, p in self._parts.items()}, self.vars)

    def __sub__(self, other) -> "TruncSeries":
        other, _ = _operand(other, self.order, self.vars)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TruncSeries":
        other, _ = _operand(other, self.order, self.vars)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "TruncSeries":
        other, order = _operand(other, self.order, self.vars)
        if other is NotImplemented:
            return NotImplemented
        products = [(1, _lift(self._parts), _lift(other._parts))]
        return _make(order, _sum_products(products, order), self.vars)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "TruncSeries":
        if not isinstance(scalar, (int, Rational)):
            return NotImplemented
        q = Rational(scalar)
        if not q:
            raise ZeroDivisionError("division of series by zero scalar")
        return self * (1 / q)

    def __pow__(self, alpha) -> "TruncSeries":
        """s^alpha for an int or ``Rational`` alpha = p/q: by repeated squaring for
        an integer alpha >= 0, else by the power recurrence, which needs a nonzero
        scalar constant c, and c = 1 when q > 1: g_0 = c^p and
        g_d = 1/(q*d*c) * sum_{e=1..d} ((p+q)*e - q*d) * s_e * g_(d-e)."""
        if not isinstance(alpha, (int, Rational)) or isinstance(alpha, bool):
            kind = type(alpha).__name__
            raise TypeError(f"series power must be an int or a Rational, got {kind}")
        p, q = alpha.numerator, alpha.denominator
        if q == 1 and p >= 0:
            return _power(self, p, TruncSeries.one(self.order, self.vars))
        c0 = self.constant_coefficient()
        if not c0.is_constant() or not c0 or (q > 1 and c0 != POLY_ONE):
            raise ValueError(
                f"power {alpha} needs a nonzero scalar constant term (1 if fractional), got {c0}"
            )
        c = c0.constant_value()
        a = self._lifted_parts()
        return self._recurrence(
            UPolynomial.constant(c**p),
            lambda d, g: (
                [((p + q) * e - q * d, ae, g[d - e]) for e, ae in a.items() if e <= d],
                1 / (q * d * c),
            ),
        )

    def powers(self) -> Iterator["TruncSeries"]:
        """1, s, s^2, ... up to the last nonzero power of s, which needs zero constant term."""
        if self.constant_coefficient():
            raise ValueError("powers need a series with zero constant term")
        one = TruncSeries.one(self.order, self.vars)
        return takewhile(bool, accumulate(repeat(self, self.order), mul, initial=one))

    # -- truncation and reshaping ------------------------------------------

    def truncated(self, order: int) -> "TruncSeries":
        """The same series at a lower (or equal) truncation order."""
        if _check_nonnegative_int(order, "truncation order") > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return _make(order, {d: p for d, p in self._parts.items() if d <= order}, self.vars)

    def diff_u(self) -> "TruncSeries":
        """Formal derivative of every coefficient with respect to u."""
        out = {d: p.diff_u() for d, p in self._parts.items()}
        return _make(self.order, {d: p for d, p in out.items() if p}, self.vars)

    # -- analytic-style operations -----------------------------------------

    def _lifted_parts(self) -> dict:
        """The nonzero homogeneous parts of positive degree, each lifted, by degree."""
        return {d: _lift({d: self._parts[d]}) for d in sorted(self._parts) if d}

    def _recurrence(self, first: UPolynomial, step) -> "TruncSeries":
        """Homogeneous parts 0..order: part 0 is ``first`` and part d is
        ``scale * sum(weight * x * y)`` for ``(products, scale) = step(d, parts)``,
        where ``parts`` holds the lifted parts 0..d-1."""
        parts = {0: first} if first else {}
        lifted = [_lift(parts)]
        for d in range(1, self.order + 1):
            products, scale = step(d, lifted)
            part = _sum_products(products, d, scale)
            parts.update(part)
            lifted.append(_lift(part))
        return _make(self.order, parts, self.vars)

    def exp(self) -> "TruncSeries":
        """Exponential of a series with zero constant coefficient."""
        if self.constant_coefficient():
            raise ValueError("exp needs a zero constant term")
        f = self._lifted_parts()
        return self._recurrence(
            POLY_ONE,
            lambda d, b: ([(e, fe, b[d - e]) for e, fe in f.items() if e <= d], Rational(1, d)),
        )

    def log(self) -> "TruncSeries":
        """Logarithm of a series with constant coefficient 1 (log has constant 0)."""
        if self.constant_coefficient() != POLY_ONE:
            raise ValueError(
                f"log needs constant coefficient exactly 1, got {self.constant_coefficient()}"
            )
        a = self._lifted_parts()
        return self._recurrence(
            POLY_ZERO,
            lambda d, g: (
                [
                    (e - d, ae, g[d - e]) if e < d else (d, ae, _LIFTED_ONE)
                    for e, ae in a.items()
                    if e <= d
                ],
                Rational(1, d),
            ),
        )

    def __repr__(self) -> str:
        return f"TruncSeries(order={self.order}, vars={self.vars}, {dict(self.items())})"


def _operand(value, order: int, vars: tuple) -> tuple:
    """``value`` as a series beside a series or M-expression of ``order`` and
    ``vars``, with the order of their sum or product.

    A constant (an int, ``Rational`` or ``UPolynomial``) becomes a constant
    series of ``order``; a series must have the same ``vars``.  Anything else
    gives (NotImplemented, None).
    """
    if isinstance(value, TruncSeries):
        if value.vars != vars:
            raise ValueError(f"incompatible variable sets {vars} vs {value.vars}")
        return value, min(order, value.order)
    if isinstance(value, (int, Rational)):
        value = UPolynomial.constant(value)
    if isinstance(value, UPolynomial):
        return TruncSeries.from_poly(value, order, vars), order
    return NotImplemented, None


def _make(order, parts, vars) -> TruncSeries:
    s = TruncSeries.__new__(TruncSeries)
    s.vars = vars
    s.order = order
    s._parts = parts
    return s


def _from_rows(order: int, stride: int, rows: list, lower) -> TruncSeries:
    """A series in z held as int ``rows`` whose parts are ``lower(stride, rows)``."""
    s = TruncSeries.__new__(TruncSeries)
    s.vars, s.order, s._rows = DEFAULT_VARS, order, (stride, rows, lower)
    return s


# -- the integer kernel ----------------------------------------------------------
# A lifted group is (den, [(degree, [(deg_u, deg_y, numerator)])]).


def _lift(parts: Mapping[int, UPolynomial]):
    """The terms of ``parts`` as int numerators over one common denominator."""
    den = math.lcm(*(c.denominator for p in parts.values() for _, c in p.items()))
    return den, [
        (d, [(du, dy, c.numerator * (den // c.denominator)) for (du, dy), c in p.items()])
        for d, p in parts.items()
    ]


def _sum_products(products, order: int, scale=1) -> dict[int, UPolynomial]:
    """``scale * sum(w * x * y)`` over lifted ``(w, x, y)``, in the degrees <= order,
    with every product scaled to one common denominator and lowered once."""
    products = [(w, x, y) for w, x, y in products if x[1] and y[1]]
    den = math.lcm(*(x[0] * y[0] for _, x, y in products))
    acc: dict = {}
    for w, (den_x, xs), (den_y, ys) in products:
        f = w * (den // (den_x * den_y))
        if f != 1:
            xs = [(d, [(du, dy, c * f) for du, dy, c in p]) for d, p in xs]
        _mul_add(acc, xs, ys, order)
    return _lower(acc, den, scale)


_LIFTED_ONE = _lift({0: POLY_ONE})


def _mul_add(acc, parts_a, parts_b, order) -> None:
    """acc[degree][(deg_u, deg_y)] += a * b over lifted terms of degree <= order."""
    for da, pa in parts_a:
        for db, pb in parts_b:
            if da + db > order:
                continue
            sums = acc.setdefault(da + db, {})
            for au, ay, ca in pa:
                for bu, by, cb in pb:
                    k = (au + bu, ay + by)
                    sums[k] = sums.get(k, 0) + ca * cb


def _lower(acc, den: int, scale=1) -> dict[int, UPolynomial]:
    """The accumulated sums times ``scale / den`` as normalized polynomials, zeros pruned."""
    num, den = scale.numerator, den * scale.denominator
    out = {}
    for d, sums in acc.items():
        coeffs = {k: Rational(n * num, den) for k, n in sums.items() if n}
        if coeffs:
            out[d] = _make_poly(coeffs)
    return out
