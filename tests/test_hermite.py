"""Hermite polynomial generators, moments, and the normalization bridge."""

import gc
import math
import weakref
from functools import partial
from itertools import islice

import pytest

from lacunary import Rational, cli, identities
from lacunary.hermite import (
    _WEIGHTS,
    HermiteKind,
    hermite,
    hermite_H,
    hermite_h,
    hermite_rows,
    m_moment,
    operator_rows,
)
from lacunary.oracle import enumerate_matchings
from lacunary.poly import UPolynomial
from lacunary.series import TruncSeries, _egf_series

from helpers import HERMITE_OPERATORS, hermite_egf_product, normalization_relation_check

U = UPolynomial.u
PROBABILIST_WEIGHTS = _WEIGHTS[HermiteKind.PROBABILIST]


def test_h_small_values():
    assert hermite_h(0) == UPolynomial.one()
    assert hermite_h(1) == U()
    assert hermite_h(2) == UPolynomial({(2, 0): 1, (0, 0): 1})
    assert hermite_h(3) == UPolynomial({(3, 0): 1, (1, 0): 3})
    assert hermite_h(4) == UPolynomial({(4, 0): 1, (2, 0): 6, (0, 0): 3})


def test_H_small_values():
    assert hermite_H(0) == UPolynomial.one()
    assert hermite_H(1) == U(coeff=2)
    assert hermite_H(2) == UPolynomial({(2, 0): 4, (0, 0): -2})
    assert hermite_H(3) == UPolynomial({(3, 0): 8, (1, 0): -12})


def test_kind_dispatch():
    assert hermite(HermiteKind.PROBABILIST, 3) == hermite_h(3)
    assert hermite(HermiteKind.PHYSICIST, 3) == hermite_H(3)


def test_h_monic_with_nonnegative_integer_coefficients():
    for n in range(12):
        p = hermite_h(n)
        assert p.coefficient(n) == 1
        for (du, dx), c in p.items():
            assert dx == 0 and c > 0 and c.denominator == 1


def test_h_matches_generating_function():
    order = 16
    gf = TruncSeries(
        order, {(1,): UPolynomial.u(), (2,): UPolynomial.constant(Rational(1, 2))}
    ).exp()
    for n in range(order + 1):
        assert gf.coefficient((n,)) * math.factorial(n) == hermite_h(n)


def test_H_matches_generating_function():
    order = 16
    gf = TruncSeries(
        order, {(1,): UPolynomial.u(coeff=2), (2,): UPolynomial.constant(-1)}
    ).exp()
    for n in range(order + 1):
        assert gf.coefficient((n,)) * math.factorial(n) == hermite_H(n)


def test_h_matches_matching_enumeration():
    for n in range(11):
        assert hermite_h(n) == enumerate_matchings(n)


def test_h_coefficient_closed_form():
    # coefficient of u^(n-2k) is n! / (2^k k! (n-2k)!)
    for n in range(101):
        expected = {
            (n - 2 * k, 0): math.factorial(n)
            // (2**k * math.factorial(k) * math.factorial(n - 2 * k))
            for k in range(n // 2 + 1)
        }
        assert hermite_h(n) == UPolynomial(expected)


def test_H_coefficient_closed_form():
    # H_n = sum_k (-1)^k n! / (k! (n-2k)!) (2u)^(n-2k)
    for n in range(101):
        expected = {
            (n - 2 * k, 0): (-1) ** k
            * math.factorial(n)
            // (math.factorial(k) * math.factorial(n - 2 * k))
            * 2 ** (n - 2 * k)
            for k in range(n // 2 + 1)
        }
        assert hermite_H(n) == UPolynomial(expected)


def test_m_moment_values():
    assert [m_moment(n) for n in range(9)] == [1, 0, 1, 0, 3, 0, 15, 0, 105]
    assert m_moment(3) == 0
    assert m_moment(6) == 15
    assert m_moment(12) == 10395


def test_m_moment_counts_perfect_matchings():
    for m in range(0, 9, 2):
        assert enumerate_matchings(m).coefficient(0) == m_moment(m)


def test_h_at_zero_is_moment():
    for n in range(20):
        assert hermite_h(n).coefficient(0) == m_moment(n)


def test_normalization_relation():
    for n in range(21):
        assert normalization_relation_check(n)


def test_normalization_relation_explicit_n2():
    # k=0: 4 == 2^2 * 1, k=1: -2 == -2 * 1
    assert hermite_H(2).coefficient(2) == 4 == 2**2 * hermite_h(2).coefficient(2)
    assert hermite_H(2).coefficient(0) == -2 == -2 * hermite_h(2).coefficient(0)


def test_submodule_not_shadowed_by_package_export():
    import lacunary.hermite as module

    assert module.hermite_H(2) == UPolynomial({(2, 0): 4, (0, 0): -2})


@pytest.mark.parametrize("kind", list(HermiteKind), ids=lambda kind: kind.value)
def test_egf_from_rows_equals_the_exp_of_its_exponent(kind):
    """The series that ``expand hermite-<kind>-egf`` prints, lowered from the rows of
    the weighted matchings, equals the exp of its exponent at every order 0 to 48."""
    build = cli.SERIES_BUILDERS[f"hermite-{kind.value}-egf"]
    for order in range(49):
        assert build(order) == hermite_egf_product(kind, order), order


@pytest.mark.parametrize("kind", list(HermiteKind), ids=lambda kind: kind.value)
def test_weighted_matching_rows_are_the_solved_rows(kind):
    """The rows of the weighted matchings equal the rows that ``operator_rows`` solves
    from the EGF's first-order ODE, which shares none of their arithmetic, for m <= 300."""
    solved = operator_rows(HERMITE_OPERATORS[kind], 1)
    assert list(islice(hermite_rows(_WEIGHTS[kind], 1), 301)) == list(islice(solved, 301))


@pytest.mark.parametrize("stride", [2, 3])
def test_matching_rows_are_the_solved_h_rows(stride):
    """The rows counted from matchings equal every stride-th row that ``operator_rows``
    solves from h's operator, for t <= 64."""
    solved = islice(operator_rows(HERMITE_OPERATORS[HermiteKind.PROBABILIST], 1), 0, None, stride)
    assert list(islice(hermite_rows(PROBABILIST_WEIGHTS, stride), 65)) == list(islice(solved, 65))


@pytest.mark.parametrize("stride", [2, 3])
def test_matching_rows_count_the_matchings(stride):
    """Row t is h_m, m = stride*t, as the matchings oracle counts it, for m <= 14."""
    for m, row in zip(range(0, 15, stride), hermite_rows(PROBABILIST_WEIGHTS, stride)):
        assert UPolynomial({(m % 2 + 2 * i, 0): a for i, a in enumerate(row)}) == enumerate_matchings(m)


def test_series_of_rows_compare_by_value():
    """A series held as int rows equals another by value: equal rows of one stride at
    once, else by the lowered parts.  So different rows of equal value are equal, equal
    rows of different strides are not, and a series of rows equals its twin from the
    constructor, both ways.  A list's ``__iter__`` is a recipe of its rows."""
    one = _egf_series(1, [[1], [0]].__iter__, 2)
    assert one == _egf_series(1, [[1], [0, 0]].__iter__, 3)
    assert _egf_series(1, [[1], [0, 0]].__iter__, 3) == one
    assert one == TruncSeries.one(1) and TruncSeries.one(1) == one
    assert _egf_series(1, [[1], [1]].__iter__, 2) != _egf_series(1, [[1], [1]].__iter__, 3)
    h = _egf_series(2, [[1], [1], [1, 1]].__iter__, 1)
    twin = TruncSeries(2, {(0,): 1, (1,): U(), (2,): (U() * U() + 1) / 2})
    assert h == twin and twin == h
    assert h != _egf_series(2, [[1], [1], [1, 2]].__iter__, 1)


class _Row(list):
    """A row that a weak reference can follow."""


def _logged(rows, calls: list):
    """The recipe ``rows``, logged: each call appends a new log to ``calls``, which
    holds a weak reference to each row that call yields."""

    def recipe():
        calls.append(log := [])
        for row in rows():
            log.append(weakref.ref(row := _Row(row)))
            yield row

    return recipe


def test_equal_series_of_rows_stream_each_row_once():
    """Comparing main's two sides at order 24 draws each side's rows once, in one pass,
    lowers neither, and keeps no row once the comparison is done."""
    left, right = [], []
    lhs = _egf_series(24, _logged(partial(hermite_rows, PROBABILIST_WEIGHTS, 3), left), 3)
    rhs = _egf_series(24, _logged(partial(operator_rows, identities._F_OPERATOR, 3), right), 3)
    assert lhs == rhs
    assert [len(log) for log in left] == [len(log) for log in right] == [25]
    gc.collect()
    assert not [ref for ref in left[0] + right[0] if ref() is not None]


def test_series_of_rows_that_differ_at_row_t_stop_there():
    """A pair of series of rows that first differ at row 4 draws no row past 4 from
    either side before it compares their lowered parts, which draws each side's rows
    0..order once more."""
    rows = list(islice(hermite_rows(PROBABILIST_WEIGHTS, 2), 9))
    wrong = [*rows[:4], [c + 1 for c in rows[4]], *rows[5:]]
    left, right = [], []
    lhs = _egf_series(8, _logged(rows.__iter__, left), 2)
    rhs = _egf_series(8, _logged(wrong.__iter__, right), 2)
    assert lhs != rhs
    assert [len(log) for log in left] == [len(log) for log in right] == [5, 9]
