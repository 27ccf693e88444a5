"""Truncated formal power series with exact polynomial coefficients.

A ``TruncSeries`` is a polynomial-coefficient series in one or two series
variables (``z``, optionally a second one), truncated at a fixed total
order N inclusive: it stores a mapping from exponent tuples of total degree
<= N to ``UPolynomial`` coefficients.  Every arithmetic result carries
``order = min`` of the operand orders, and two series are equal only when
both order and all coefficients agree.  Terms the truncation cannot see are
unknown, not zero, which is why the order is part of the value.  Building a
series from raw coefficients embeds them into the truncated ring, so terms
above the order are simply dropped.

Inverse, square root, exp and log are computed by order-by-order coefficient
recurrences on the homogeneous (total-degree) parts; with exact rationals
these give the mathematically exact coefficients up to the truncation order.
Division by the first series variable is deliberately not part of ``/``: it
is the one operation that loses an order of information, so it is exposed
as the explicit :meth:`div_z`, which checks divisibility and lowers the
recorded order by one.

Products, in ``*`` and in the recurrences, run on one integer kernel.  Each
operand (or homogeneous part) is *lifted*: its coefficients become ``int``
numerators over one denominator, the lcm of their denominators.  The
multiply-add loop then adds pure ``int`` products into sums keyed by
(series exponents, polynomial exponents), and each sum is *lowered* once,
with one gcd, back to a normalized ``Rational``; sums that cancel to zero
are pruned.  A recurrence step brings its products to a common denominator
by scaling one operand of each by an integer factor before the loop.

Instances are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from operator import add
from typing import Iterator, Mapping, Sequence, Tuple

from .poly import POLY_ONE, POLY_ZERO, UPolynomial
from .poly import _make as _make_poly
from .rational import RATIONAL_ZERO, Rational

Exponents = Tuple[int, ...]

DEFAULT_VARS = ("z",)


class TruncSeries:
    """Immutable truncated power series with UPolynomial coefficients."""

    __slots__ = ("vars", "order", "_coeffs")

    def __init__(
        self,
        order: int,
        coeffs: Mapping[Exponents, UPolynomial] | None = None,
        vars: Sequence[str] = DEFAULT_VARS,
    ):
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
        names = tuple(vars)
        if not 1 <= len(names) <= 2:
            raise ValueError(f"series support 1 or 2 variables, got {names}")
        cleaned: dict[Exponents, UPolynomial] = {}
        if coeffs:
            for exps, poly in coeffs.items():
                e = tuple(exps)
                if len(e) != len(names) or any(k < 0 for k in e):
                    raise ValueError(f"bad exponent tuple {e} for variables {names}")
                if sum(e) > order:  # quotient-ring embedding: truncate, don't reject
                    continue
                if not isinstance(poly, UPolynomial):
                    poly = UPolynomial.constant(poly)
                if poly:
                    cleaned[e] = poly
        self.vars = names
        self.order = order
        self._coeffs = cleaned

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

    def coefficient(self, exponents: Exponents | int) -> UPolynomial:
        """Exact coefficient at the given exponents (zero polynomial if absent).

        Raises ValueError for exponents beyond the truncation order, where
        the coefficient is unknown rather than zero.
        """
        e = (exponents,) if isinstance(exponents, int) else tuple(exponents)
        if len(e) != len(self.vars):
            raise ValueError(f"expected {len(self.vars)} exponents, got {e}")
        if any(k < 0 for k in e):
            raise ValueError(f"negative exponents {e}")
        if sum(e) > self.order:
            raise ValueError(f"exponents {e} beyond truncation order {self.order}")
        return self._coeffs.get(e, UPolynomial.zero())

    def constant_coefficient(self) -> UPolynomial:
        return self._coeffs.get((0,) * len(self.vars), UPolynomial.zero())

    def items(self) -> Iterator[tuple[Exponents, UPolynomial]]:
        return iter(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.order == other.order
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.vars, self.order, frozenset(self._coeffs.items())))

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "TruncSeries") -> int:
        if self.vars != other.vars:
            raise ValueError(f"incompatible variable sets {self.vars} vs {other.vars}")
        return min(self.order, other.order)

    def __add__(self, other) -> "TruncSeries":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        order = self._check_compatible(other)
        out = {e: p for e, p in self._coeffs.items() if sum(e) <= order}
        for e, p in other._coeffs.items():
            if sum(e) > order:
                continue
            s = out.get(e)
            s = p if s is None else s + p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _make(order, out, self.vars)

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return _make(self.order, {e: -p for e, p in self._coeffs.items()}, self.vars)

    def __sub__(self, other) -> "TruncSeries":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TruncSeries":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "TruncSeries":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        order = self._check_compatible(other)
        den_a, terms_a = _lift(self._coeffs)
        den_b, terms_b = _lift(other._coeffs)
        acc: dict = {}
        _mul_add(acc, terms_a, terms_b, order)
        return _make(order, _lower(acc, den_a * den_b), self.vars)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "TruncSeries":
        q = Rational(scalar)
        return self * (1 / q)

    def __pow__(self, k: int) -> "TruncSeries":
        if not isinstance(k, int):
            raise ValueError(f"series power must be an int, got {k!r}")
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = TruncSeries.one(self.order, self.vars)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _coerce(self, value) -> "TruncSeries":
        if isinstance(value, TruncSeries):
            return value
        if isinstance(value, UPolynomial):
            return TruncSeries.from_poly(value, self.order, self.vars)
        if isinstance(value, (int, type(RATIONAL_ZERO))):
            return TruncSeries.from_poly(UPolynomial.constant(value), self.order, self.vars)
        return NotImplemented

    # -- truncation and reshaping ------------------------------------------

    def truncated(self, order: int) -> "TruncSeries":
        """The same series at a lower (or equal) truncation order."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return _make(
            order, {e: p for e, p in self._coeffs.items() if sum(e) <= order}, self.vars
        )

    def div_z(self) -> "TruncSeries":
        """Exact division by the first series variable.

        Every stored term must contain that variable; the result's order
        drops by one because the top coefficient of the quotient is not
        determined by a truncated dividend.
        """
        if self.order == 0:
            raise ValueError("cannot divide by the series variable at order 0")
        bad = [e for e in self._coeffs if e[0] == 0]
        if bad:
            raise ValueError(
                f"series not divisible by {self.vars[0]}: nonzero coefficient at {sorted(bad)[0]}"
            )
        out = {(e[0] - 1,) + e[1:]: p for e, p in self._coeffs.items()}
        return _make(self.order - 1, {e: p for e, p in out.items() if sum(e) <= self.order - 1}, self.vars)

    def map_coefficients(self, fn) -> "TruncSeries":
        """Apply ``fn`` to every polynomial coefficient (zeros pruned)."""
        out = {}
        for e, p in self._coeffs.items():
            q = fn(p)
            if q:
                out[e] = q
        return _make(self.order, out, self.vars)

    # -- analytic-style operations -----------------------------------------

    def _lifted_parts(self) -> list:
        """Coefficients grouped by homogeneous total degree 0..order, each lifted."""
        parts: list[dict[Exponents, UPolynomial]] = [{} for _ in range(self.order + 1)]
        for e, p in self._coeffs.items():
            parts[sum(e)][e] = p
        return [_lift(part) for part in parts]

    def _recurrence(self, first: UPolynomial, step) -> "TruncSeries":
        """Homogeneous parts 0..order: part 0 is ``first`` and part d is
        ``scale * sum(weight * x * y)`` for ``(products, scale) = step(d, parts)``,
        where ``parts`` holds the lifted parts 0..d-1."""
        zero = (0,) * len(self.vars)
        parts = [{zero: first} if first else {}]
        lifted = [_lift(parts[0])]
        for d in range(1, self.order + 1):
            products, scale = step(d, lifted)
            products = [(w, x, y) for w, x, y in products if x[1] and y[1]]
            den = math.lcm(*(x[0] * y[0] for _, x, y in products))
            acc: dict = {}
            for w, (den_x, xs), (den_y, ys) in products:
                f = w * (den // (den_x * den_y))
                _mul_add(acc, [(e, [(du, dx, c * f) for du, dx, c in p]) for e, p in xs], ys, d)
            parts.append(_lower(acc, den, scale))
            lifted.append(_lift(parts[-1]))
        return _from_parts(self.order, parts, self.vars)

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; the constant coefficient must be a nonzero scalar."""
        c0 = self.constant_coefficient()
        if not c0.is_constant() or c0.is_zero():
            raise ValueError(f"inverse needs a unit scalar constant term, got {c0}")
        c = c0.constant_value()
        a = self._lifted_parts()
        return self._recurrence(
            UPolynomial.constant(1 / c),
            lambda d, b: ([(1, b[e], a[d - e]) for e in range(d)], -1 / c),
        )

    def sqrt(self) -> "TruncSeries":
        """Square root with constant term 1; requires constant coefficient 1."""
        self._require_constant_one("sqrt")
        a = self._lifted_parts()
        one = _lift({(0,) * len(self.vars): POLY_ONE})
        return self._recurrence(
            POLY_ONE,
            lambda d, b: (
                [(1, a[d], one)] + [(-1, b[e], b[d - e]) for e in range(1, d)],
                Rational(1, 2),
            ),
        )

    def exp(self) -> "TruncSeries":
        """Exponential of a series with zero constant coefficient."""
        if self.constant_coefficient():
            raise ValueError("exp needs a zero constant term")
        f = self._lifted_parts()
        return self._recurrence(
            POLY_ONE,
            lambda d, b: ([(e, f[e], b[d - e]) for e in range(1, d + 1)], Rational(1, d)),
        )

    def log(self) -> "TruncSeries":
        """Logarithm of a series with constant coefficient 1 (log has constant 0)."""
        self._require_constant_one("log")
        a = self._lifted_parts()
        one = _lift({(0,) * len(self.vars): POLY_ONE})
        return self._recurrence(
            POLY_ZERO,
            lambda d, g: (
                [(d, a[d], one)] + [(e - d, a[e], g[d - e]) for e in range(1, d)],
                Rational(1, d),
            ),
        )

    def _require_constant_one(self, opname: str) -> None:
        if self.constant_coefficient() != POLY_ONE:
            raise ValueError(
                f"{opname} needs constant coefficient exactly 1, got {self.constant_coefficient()}"
            )

    # -- rendering ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, UPolynomial]]:
        """Terms sorted by total degree, then lexicographically by exponents."""
        return sorted(self._coeffs.items(), key=lambda item: (sum(item[0]), item[0]))

    def monomial_str(self, exponents: Exponents) -> str:
        parts = [
            f"{name}^{k}" if k != 1 else name
            for name, k in zip(self.vars, exponents)
            if k
        ]
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        if not self._coeffs:
            return f"O({self.vars[0]}^{self.order + 1})"
        terms = [
            f"({p})*{self.monomial_str(e)}" if any(e) else f"({p})"
            for e, p in self.sorted_terms()
        ]
        return " + ".join(terms) + f" + O(total^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncSeries(order={self.order}, vars={self.vars}, {self})"


def _make(order, coeffs, vars) -> TruncSeries:
    s = TruncSeries.__new__(TruncSeries)
    s.vars = vars
    s.order = order
    s._coeffs = coeffs
    return s


def _from_parts(order, parts, vars) -> TruncSeries:
    coeffs: dict[Exponents, UPolynomial] = {}
    for part in parts:
        coeffs.update(part)
    return _make(order, coeffs, vars)


# -- the integer kernel ----------------------------------------------------------
# A lifted group is (den, [(exponents, [(deg_u, deg_x, numerator)])]).


def _lift(coeffs: Mapping[Exponents, UPolynomial]):
    """The terms of ``coeffs`` as int numerators over one common denominator."""
    den = math.lcm(*(c.denominator for p in coeffs.values() for _, c in p.items()))
    return den, [
        (e, [(du, dx, c.numerator * (den // c.denominator)) for (du, dx), c in p.items()])
        for e, p in coeffs.items()
    ]


def _mul_add(acc, terms_a, terms_b, order) -> None:
    """acc[exponents][(deg_u, deg_x)] += a * b over lifted terms of total degree <= order."""
    for ea, pa in terms_a:
        for eb, pb in terms_b:
            e = tuple(map(add, ea, eb))
            if sum(e) > order:
                continue
            sums = acc.setdefault(e, {})
            for au, ax, ca in pa:
                for bu, bx, cb in pb:
                    k = (au + bu, ax + bx)
                    sums[k] = sums.get(k, 0) + ca * cb


def _lower(acc, den: int, scale=1) -> dict[Exponents, UPolynomial]:
    """The accumulated sums times ``scale / den`` as normalized polynomials, zeros pruned."""
    num, den = scale.numerator, den * scale.denominator
    out = {}
    for e, sums in acc.items():
        coeffs = {k: Rational(n * num, den) for k, n in sums.items() if n}
        if coeffs:
            out[e] = _make_poly(coeffs)
    return out
