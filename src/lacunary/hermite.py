"""The two Hermite normalizations, the moment sequence they share, and the one
integer row solver of the linear ODEs behind every row sequence in ``lacunary``.

``hermite_h`` is the matchings normalization with exponential generating
function e^(u*z + z^2/2): h_n(u) sums u^(#unmatched) over all matchings of
an n-set, so every coefficient is a nonnegative integer.  ``hermite_H`` is
the physicists' normalization with generating function e^(2*u*z - z^2).
Each EGF solves F' = (u + z) F or F' = (2u - 2z) F, whose tables
``_OPERATORS`` holds; ``operator_rows`` solves them for the ``int`` rows
t! F_t, the coefficient lists of h_t and H_t, as ``identities`` solves the
right sides of both headline identities from theirs; the left sides' rows of
h_(stride*t) count matchings (``matching_rows``) and share no arithmetic with those.
The two readers of the row layout are ``hermite``, which makes a ``UPolynomial``
of one row, and ``_egf_series``, which holds rows as the series sum_t row_t z^t / t!
(``hermite_egf`` here and all four headline sides), lowered to ``Rational`` only
when first read; equal rows compare equal unlowered, so a verified headline
check compares ``int`` rows.

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
from fractions import Fraction as Rational
from itertools import count, islice
from operator import add

from .poly import UPolynomial, _check_nonnegative_int
from .poly import _make as _make_poly
from .series import TruncSeries, _from_rows


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


def matching_rows(stride: int) -> Iterator[list[int]]:
    """The rows of h_m, m = stride*t, t = 0, 1, ..., in the layout of ``operator_rows``,
    from the matchings they count: m!/(2^k k! (m-2k)!) with k edges, at u^(m-2k), is the
    count with k-1 edges times (m-2k+2)(m-2k+1)/(2k)."""
    for m in count(0, _check_nonnegative_int(stride, "stride")):
        row = [1]
        for k in range(m // 2):
            row.append(row[-1] * ((m - 2 * k) * (m - 2 * k - 1)) // (2 * (k + 1)))
        yield row[::-1]


def _egf_series(order: int, rows, stride: int) -> TruncSeries:
    """sum_(t<=order) row_t(u) z^t / t! of rows in the layout of ``operator_rows``,
    entry i of row t at u^(stride*t%2 + 2i), held as rows until ``_lower_rows``."""
    rows = list(islice(rows, _check_nonnegative_int(order, "truncation order") + 1))
    return _from_rows(order, stride, rows, _lower_rows)


def _lower_rows(stride: int, rows: list) -> dict:
    """The parts row_t(u) / t! of ``_egf_series``; an all-zero row stores no part."""
    parts, scale = {}, 1
    for t, row in enumerate(rows):
        scale *= t or 1
        parity = stride * t % 2
        if part := {(parity + 2 * i, 0): Rational(a, scale) for i, a in enumerate(row) if a}:
            parts[t] = _make_poly(part)
    return parts


_OPERATORS = {  # F' = sum c z^j u^p (d/dz)^k F over the table {(k, j, p): c}
    HermiteKind.PROBABILIST: {(0, 0, 1): 1, (0, 1, 0): 1},  # F' = (u + z) F
    HermiteKind.PHYSICIST: {(0, 0, 1): 2, (0, 1, 0): -2},  # F' = (2u - 2z) F
}


def hermite(kind: HermiteKind, n: int) -> UPolynomial:
    row = next(islice(operator_rows(_OPERATORS[kind], 1), _check_nonnegative_int(n, "n"), None))
    return UPolynomial({(n % 2 + 2 * i, 0): a for i, a in enumerate(row) if a})


def hermite_egf(kind: HermiteKind, order: int) -> TruncSeries:
    """sum_(n<=order) h_n(u) z^n / n!, or the same of H_n, solved from its EGF's operator."""
    return _egf_series(order, operator_rows(_OPERATORS[kind], 1), 1)


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
