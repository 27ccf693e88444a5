"""Exact sparse polynomials in u and a second commuting variable.

A polynomial is a mapping from exponent pairs ``(deg_u, deg_x)`` to nonzero
``Rational`` coefficients; the zero polynomial is the empty mapping.  Values
are immutable after construction and all operations are pure, so instances
can be shared freely.

The second slot is the series' grading slot: a homogeneous part of a
two-variable ``TruncSeries`` in (z, x) is stored as a polynomial in u and
y = x/z (see ``series``).  Every coefficient the library hands out is a
polynomial in u alone.

The sparse representation matters: during identity verification at series
order N the degree in u climbs to 3N+2 while the second slot is almost
always empty, so a dense two-variable array would be nearly all zeros.

Canonical text form (used by the CLI and in reports): terms in descending
degree of u, then of the second slot (printed as ``x``), coefficients as
exact ``p/q`` fractions, explicit ``*`` and ``^``, e.g. ``u^3 + 3*u`` or
``1/2*u^2*x - 2``.
"""

from __future__ import annotations

from fractions import Fraction as Rational
from typing import Iterator, Mapping, Tuple

Exponent = Tuple[int, int]  # (deg_u, deg_x)


class UPolynomial:
    """Immutable sparse polynomial in u and x over the rationals."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[Exponent, object] | None = None):
        cleaned: dict[Exponent, Rational] = {}
        if coeffs:
            for (du, dx), c in coeffs.items():
                _check_nonnegative_int(du, "exponent")
                _check_nonnegative_int(dx, "exponent")
                if not isinstance(c, (int, Rational)):
                    raise TypeError(f"coefficients are int or Fraction, got {type(c).__name__}")
                q = Rational(c)
                if q:
                    cleaned[(du, dx)] = q
        self._coeffs = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "UPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "UPolynomial":
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, value) -> "UPolynomial":
        return cls({(0, 0): value})

    @classmethod
    def u(cls, power: int = 1, coeff=1) -> "UPolynomial":
        return cls({(power, 0): coeff})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Exponent, Rational]]:
        return iter(self._coeffs.items())

    def coefficient(self, deg_u: int, deg_x: int = 0) -> Rational:
        """Exact coefficient of u^deg_u * x^deg_x (0 if absent)."""
        _check_nonnegative_int(deg_u, "exponent")
        _check_nonnegative_int(deg_x, "exponent")
        return self._coeffs.get((deg_u, deg_x), Rational(0))

    def is_constant(self) -> bool:
        return not self._coeffs or self._coeffs.keys() == {(0, 0)}

    def constant_value(self) -> Rational:
        """The scalar value, requiring the polynomial to be constant."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coefficient(0, 0)

    def total_degree(self) -> int:
        return max((du + dx for du, dx in self._coeffs), default=-1)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "UPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _make(out)

    __radd__ = __add__

    def __neg__(self) -> "UPolynomial":
        return _make({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other) -> "UPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "UPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "UPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Exponent, Rational] = {}
        for (au, ax), ac in self._coeffs.items():
            for (bu, bx), bc in other._coeffs.items():
                e = (au + bu, ax + bx)
                p = ac * bc
                s = out.get(e)
                out[e] = p if s is None else s + p
        return _make({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "UPolynomial":
        if not isinstance(scalar, (int, Rational)):
            return NotImplemented
        q = Rational(scalar)
        if not q:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (1 / q)

    def __pow__(self, k: int) -> "UPolynomial":
        return _power(self, _check_nonnegative_int(k, "polynomial power"), POLY_ONE)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        # a constant equals its scalar, so it hashes as one
        if self.is_constant():
            return hash(self.coefficient(0, 0))
        return hash(frozenset(self._coeffs.items()))

    # -- calculus in u -----------------------------------------------------

    def diff_u(self) -> "UPolynomial":
        """Formal derivative with respect to u (x held constant)."""
        out = {}
        for (du, dx), c in self._coeffs.items():
            if du > 0:
                out[(du - 1, dx)] = c * du
        return _make(out)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for (du, dx) in sorted(self._coeffs, key=lambda e: (-e[0], -e[1])):
            c = self._coeffs[(du, dx)]
            monomial = "*".join(
                ([f"u^{du}" if du > 1 else "u"] if du else [])
                + ([f"x^{dx}" if dx > 1 else "x"] if dx else [])
            )
            mag = abs(c)
            if monomial:
                term = monomial if mag == 1 else f"{mag}*{monomial}"
            else:
                term = str(mag)
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"UPolynomial({self})"


def _make(coeffs: dict[Exponent, Rational]) -> UPolynomial:
    poly = UPolynomial.__new__(UPolynomial)
    poly._coeffs = coeffs
    return poly


def _check_nonnegative_int(value, name: str) -> int:
    """``value`` if it is an int >= 0: the one check of every order, index,
    exponent and power, raising TypeError for another type (a bool included),
    ValueError below 0."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _power(base, k: int, one):
    """``base ** k`` for an int k >= 0 by repeated squaring, ``one`` at k = 0: the
    one power routine of polynomials and series."""
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def _coerce(value) -> UPolynomial:
    if isinstance(value, UPolynomial):
        return value
    if isinstance(value, (int, Rational)):
        return UPolynomial.constant(value)
    return NotImplemented


POLY_ZERO = UPolynomial.zero()
POLY_ONE = UPolynomial.one()
POLY_U = UPolynomial.u()
