"""The two Hermite normalizations and the moment sequence they share.

``hermite_h`` is the matchings normalization with exponential generating
function e^(u*z + z^2/2): h_n(u) sums u^(#unmatched) over all matchings of
an n-set, so every coefficient is a nonnegative integer.  ``hermite_H`` is
the physicists' normalization with generating function e^(2*u*z - z^2).
Both come from one iterative three-term recurrence on ``int`` coefficient
lists, ``hermite_coefficients`` (both kinds have integer coefficients), and
``hermite`` makes a ``UPolynomial`` of one list; the cross-checks live in
the test suite.

``m_moment`` is the moment sequence (2k)!/(2^k k!) on even indices and 0 on
odd ones, i.e. the number of perfect matchings of an n-set; it drives the
umbral evaluation engine and equals h_n(0).

The classical bridge h_n(u) = i^n/2^(n/2) * H_n(-i*u/sqrt(2)) is never
evaluated with complex numbers: the test suite checks it as the equivalent
coefficient-wise rational identity
H-coeff(u^(n-2k)) = (-1)^k * 2^(n-k) * h-coeff(u^(n-2k)), which is exact
over Q.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from itertools import count, islice

from .poly import UPolynomial, _check_nonnegative_int


class HermiteKind(enum.Enum):
    """Which normalization a caller wants."""

    PROBABILIST = "h"  # EGF e^(u z + z^2/2), monic, nonnegative coefficients
    PHYSICIST = "H"  # EGF e^(2 u z - z^2), leading coefficient 2^n


# (c, d) of the three-term recurrence P_{k+1} = c*u*P_k + d*k*P_{k-1}, P_0 = 1
_RECURRENCE = {HermiteKind.PROBABILIST: (1, 1), HermiteKind.PHYSICIST: (2, -2)}


def hermite_coefficients(kind: HermiteKind) -> Iterator[list[int]]:
    """P_0, P_1, ... of one kind as coefficient lists indexed by degree in u."""
    c, d = _RECURRENCE[kind]
    previous, current = [], [1]
    for k in count():
        yield current
        following = [0] + [c * a for a in current]
        for i, a in enumerate(previous):
            following[i] += d * k * a
        previous, current = current, following


def hermite(kind: HermiteKind, n: int) -> UPolynomial:
    coeffs = next(islice(hermite_coefficients(kind), _check_nonnegative_int(n, "n"), None))
    return UPolynomial({(i, 0): a for i, a in enumerate(coeffs) if a})


def hermite_h(n: int) -> UPolynomial:
    """Matchings-normalized Hermite polynomial: h_{n+1} = u*h_n + n*h_{n-1}."""
    return hermite(HermiteKind.PROBABILIST, n)


def hermite_H(n: int) -> UPolynomial:
    """Physicists' Hermite polynomial: H_{n+1} = 2u*H_n - 2n*H_{n-1}."""
    return hermite(HermiteKind.PHYSICIST, n)


def m_moment(n: int) -> int:
    """Number of perfect matchings of an n-set: (2k)!/(2^k k!) for n=2k, else 0."""
    if _check_nonnegative_int(n, "n") % 2:
        return 0
    k = n // 2
    return math.factorial(2 * k) // (2**k * math.factorial(k))

