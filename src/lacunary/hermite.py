"""The two Hermite normalizations, the moment sequence they share, and the one
integer row solver of the linear ODEs behind both headline right sides.

Both kinds count weighted matchings.  With EGF e^(a u z + b z^2 / 2), the
polynomial of degree m sums, over the matchings of an m-set, a u per unmatched
point times b per edge: (a, b) = (1, 1) for ``hermite_h``, the matchings
normalization with nonnegative integer coefficients, and (2, -2) for
``hermite_H``, the physicists'.  ``hermite_rows`` yields their ``int``
coefficient lists at the degrees stride*t, as ``operator_rows`` yields the rows
t! F_t of the power series F that solves an ODE table (``identities`` solves
the right sides of both headline identities from theirs), so the two sides of a
headline check share no arithmetic.  ``hermite`` makes a ``UPolynomial`` of one
row, and ``series._egf_series`` holds a row recipe as the series sum_t row_t
z^t / t! (``hermite_egf`` here and all four headline sides): two such series of
one stride compare row by row, and a series is lowered to ``Rational`` only
when first read.

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
from collections import deque
from collections.abc import Iterator
from functools import partial
from itertools import count, islice
from operator import add

from .poly import UPolynomial, _check_nonnegative_int
from .series import TruncSeries, _egf_series


class HermiteKind(enum.Enum):
    """Which normalization a caller wants."""

    PROBABILIST = "h"  # EGF e^(u z + z^2/2), monic, nonnegative coefficients
    PHYSICIST = "H"  # EGF e^(2 u z - z^2), leading coefficient 2^n


def operator_rows(operator: dict, stride: int) -> Iterator[list[int]]:
    """The int rows G_t = t! F_t, t = 0, 1, ..., of the power series F with F(0) = 1
    that solves F' = sum c z^j u^p (d/dz)^k F over the table {(k, j, p): c}.  Row t
    lists the coefficients of u^(m%2), u^(m%2 + 2), ..., u^m for m = stride*t, as
    those of h_m do; an entry with k < 0, j < k, p > stride(j-k+1) or p of the other
    parity raises.

    Times (t-1)!, the z^(t-1) coefficient of F' is row t, so no row is divided.  The
    entry (k, j, p) adds the earlier row r = t-1-j+k < t there, as
    c r!/(r-k)! (t-1)!/r! u^p G_r = c perm(r, k) perm(t-1, j-k) u^p G_r, so only
    the last max(j-k)+1 rows are kept; the empty table is F' = 0."""
    for k, j, p in operator:  # u^p times the earlier row t-1-j+k must land inside row t
        if not 0 <= k <= j or not 0 <= p <= stride * (j - k + 1) or (stride * (j - k + 1) - p) % 2:
            raise ValueError(f"entry {(k, j, p)} does not fit the rows of stride {stride}")
    rows = deque([[1]], maxlen=max((j - k for k, j, _ in operator), default=0) + 1)
    yield rows[-1]
    for t in count(1):
        # terms that read the same row at the same shift share one multiply
        factors: dict = {}
        for (k, j, p), c in operator.items():
            r = t - 1 - j + k
            if r >= 0:
                key = (r - t, (stride * r % 2 + p - stride * t % 2) >> 1)
                factors[key] = factors.get(key, 0) + c * math.perm(r, k) * math.perm(t - 1, j - k)
        acc = [0] * (stride * t // 2 + 1)
        for n, ((back, lo), f) in enumerate(factors.items()):
            row = rows[back]
            hi = lo + len(row)
            scaled = map(f.__mul__, row)
            acc[lo:hi] = map(add, acc[lo:hi], scaled) if n else scaled  # the first adds to 0
        rows.append(acc)
        yield acc


_WEIGHTS = {  # (a, b) of the EGF e^(a u z + b z^2 / 2)
    HermiteKind.PROBABILIST: (1, 1),
    HermiteKind.PHYSICIST: (2, -2),
}


def hermite_rows(weights: tuple, stride: int) -> Iterator[list[int]]:
    """Row t = 0, 1, ... is m! [z^m] e^(a u z + b z^2 / 2), m = stride*t, in the layout of
    ``operator_rows``: each matching of an m-set weighs a u per unmatched point and b per
    edge, so the term of k edges at u^(m-2k), m!/(2^k k! (m-2k)!) a^(m-2k) b^k, is that of
    k-1 edges times b (m-2k+2)(m-2k+1) / (2 a^2 k), divided exactly."""
    a, b = weights
    for m in count(0, _check_nonnegative_int(stride, "stride")):
        row = [a**m]
        for k in range(1, m // 2 + 1):
            row.append(row[-1] * (b * (m - 2 * k + 2) * (m - 2 * k + 1)) // (2 * a * a * k))
        yield row[::-1]


def hermite(kind: HermiteKind, n: int) -> UPolynomial:
    # row 1 of stride n has degree n (row 0 is 1, as every row is at n = 0)
    row = next(islice(hermite_rows(_WEIGHTS[kind], _check_nonnegative_int(n, "n")), 1, None))
    return UPolynomial({(n % 2 + 2 * i, 0): a for i, a in enumerate(row) if a})


def hermite_egf(kind: HermiteKind, order: int) -> TruncSeries:
    """sum_(n<=order) h_n(u) z^n / n!, or the same of H_n, from the weighted matchings."""
    return _egf_series(order, partial(hermite_rows, _WEIGHTS[kind], 1), 1)


def hermite_h(n: int) -> UPolynomial:
    """Matchings-normalized Hermite polynomial: u^(#unmatched) summed over n-set matchings."""
    return hermite(HermiteKind.PROBABILIST, n)


def hermite_H(n: int) -> UPolynomial:
    """Physicists' Hermite polynomial: n-set matchings, 2u per unmatched point, -2 per edge."""
    return hermite(HermiteKind.PHYSICIST, n)


def m_moment(n: int) -> int:
    """Number of perfect matchings of an n-set: (2k)!/(2^k k!) for n=2k, else 0."""
    if _check_nonnegative_int(n, "n") % 2:
        return 0
    k = n // 2
    return math.factorial(2 * k) // (2**k * math.factorial(k))
