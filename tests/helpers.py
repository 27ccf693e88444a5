"""Seeded randomized property suites shared by module tests and acceptance.

Each check_* function runs ``count`` independent random instances from a
fixed-seed generator and asserts the property on every one, so the module
tests can run a few hundred and the acceptance gate can demand a thousand
without duplicating logic.

``child_env`` is the environment of a fresh interpreter that imports this
lacunary, for the tests that must not share the suite's warm caches.

The helpers at the end are test-only: the antiderivative in u, the
multi-cycle factor as a power sum over P = z^2 (1-6wz)^(-3) (the oracle of
its closed form), Doetsch's right side as a product of series and both
Hermite EGFs as the exp of their exponents (the oracles of their solutions
from their operators), the per-graph model of a marked graph
with its union-find component profile (the oracle of the census walk), the
generator of every canonical w-tree (the oracle of the memoized w-tree
count), views of brute-force objects (the fixed points of a matching, the
slots and edges of a marked graph), every plane drawing of the w-trees
together with the quotient that recovers the canonical ones, and the
coefficient-wise h/H normalization relation.
"""

import itertools
import os
import random
from functools import lru_cache
from pathlib import Path

import lacunary
from lacunary import Rational
from lacunary.hermite import HermiteKind, hermite_H, hermite_h
from lacunary.identities import multi_cycle_coefficient, w_series
from lacunary.poly import UPolynomial
from lacunary.series import TruncSeries
from lacunary.oracle import MARKS, iter_matchings
from lacunary.umbral import MExpression, umbral_eval

SEED = 20260811


def child_env(**overrides) -> dict:
    """The environment for a fresh interpreter that imports this lacunary."""
    src = str(Path(lacunary.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **overrides}


def make_rng(salt: int = 0) -> random.Random:
    return random.Random(SEED + salt)


def random_rational(rng, span=9):
    return Rational(rng.randint(-span, span), rng.randint(1, span))


def random_poly(rng, max_deg_u=4, max_deg_x=2, max_terms=4) -> UPolynomial:
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        coeffs[(rng.randint(0, max_deg_u), rng.randint(0, max_deg_x))] = random_rational(rng)
    return UPolynomial(coeffs)


def random_series(rng, order=4, vars=("z",), max_terms=5) -> TruncSeries:
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = _random_exponents(rng, order, len(vars))
        coeffs[exps] = random_poly(rng, max_deg_u=3, max_deg_x=0)
    return TruncSeries(order, coeffs, vars)


def _random_exponents(rng, order, nvars):
    if nvars == 1:
        return (rng.randint(0, order),)
    a = rng.randint(0, order)
    return (a, rng.randint(0, order - a))


def random_unit_series(rng, order=4, vars=("z",)) -> TruncSeries:
    """Random series with constant coefficient exactly 1."""
    s = random_zero_constant_series(rng, order, vars)
    return TruncSeries.one(order, vars) + s


def random_zero_constant_series(rng, order=4, vars=("z",)) -> TruncSeries:
    s = random_series(rng, order, vars)
    return s - TruncSeries.from_poly(s.constant_coefficient(), order, vars)


# -- the four acceptance property families -----------------------------------


def check_series_ring_axioms(count: int) -> None:
    rng = make_rng(1)
    one = TruncSeries.one(4)
    for _ in range(count):
        a = random_series(rng)
        b = random_series(rng)
        c = random_series(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert one * a == a
        assert a + (-a) == TruncSeries.zero(4)


def check_inverse_pairs(count: int) -> None:
    """Powers -1 and 1/2, exp and log are two-sided partners of mul, square, log
    and exp, and (s^(p/q))^q = s^p."""
    rng = make_rng(2)
    one = TruncSeries.one(4)
    for _ in range(count):
        a = random_unit_series(rng)
        assert a**-1 * a == one
        s = a ** Rational(1, 2)
        assert s * s == a
        alpha = Rational(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 4))
        assert (a**alpha) ** alpha.denominator == a**alpha.numerator
        assert a.log().exp() == a
        b = random_zero_constant_series(rng)
        assert b.exp().log() == b
        b2 = random_zero_constant_series(rng)
        assert (b + b2).exp() == b.exp() * b2.exp()


def check_eval_linearity(count: int) -> None:
    rng = make_rng(3)
    for _ in range(count):
        order = rng.randint(0, 3)
        top = rng.randint(2, 5)
        p = _random_mexpr(rng, order, top)
        q = _random_mexpr(rng, order, top)
        a = random_series(rng, order)
        b = random_series(rng, order)
        # a p + b q, coefficient by coefficient, with a p and b q as products
        ap, bq = MExpression({0: a}) * p, MExpression({0: b}) * q
        combined = MExpression(
            {d: ap.coefficient(d) + bq.coefficient(d) for d in range(top + 1)}
        )
        lhs = umbral_eval(combined)
        rhs = a * umbral_eval(p) + b * umbral_eval(q)
        assert lhs == rhs


def _random_mexpr(rng, order, top) -> MExpression:
    coeffs = {d: random_series(rng, order) for d in range(0, top + 1) if rng.random() < 0.6}
    if not any(coeffs.values()):
        coeffs[0] = TruncSeries.one(order)
    return MExpression(coeffs)


def check_truncation_consistency(count: int) -> None:
    """Computing at order N then truncating matches computing at order N-1."""
    rng = make_rng(4)
    for _ in range(count):
        order = rng.randint(1, 5)
        a = random_series(rng, order)
        b = random_series(rng, order)
        assert (a * b).truncated(order - 1) == a.truncated(order - 1) * b.truncated(order - 1)
        u = random_unit_series(rng, order)
        for alpha in (-1, Rational(1, 2)):
            assert (u**alpha).truncated(order - 1) == u.truncated(order - 1) ** alpha
        assert u.log().truncated(order - 1) == u.truncated(order - 1).log()
        zc = random_zero_constant_series(rng, order)
        assert zc.exp().truncated(order - 1) == zc.truncated(order - 1).exp()


# -- exact-arith property families --------------------------------------------


def check_poly_ring_axioms(count: int) -> None:
    rng = make_rng(5)
    one = UPolynomial.one()
    for _ in range(count):
        a = random_poly(rng)
        b = random_poly(rng)
        c = random_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert one * a == a


def check_diff_u_rules(count: int) -> None:
    rng = make_rng(6)
    for _ in range(count):
        a = random_poly(rng)
        b = random_poly(rng)
        q = random_rational(rng)
        assert (a + b).diff_u() == a.diff_u() + b.diff_u()
        assert (a * q).diff_u() == a.diff_u() * q
        assert (a * b).diff_u() == a.diff_u() * b + a * b.diff_u()
        assert int_u(a).diff_u() == a


def check_rational_roundtrip(count: int) -> None:
    rng = make_rng(7)
    for _ in range(count):
        a = random_rational(rng, span=999)
        b = random_rational(rng, span=999)
        assert (a + b) - b == a
        assert b == 0 or (a / b) * b == a
        c = Rational(a)
        assert c.denominator > 0
        from math import gcd

        assert gcd(int(c.numerator), int(c.denominator)) == 1


def int_u(p: UPolynomial) -> UPolynomial:
    """Formal antiderivative in u with integration constant 0."""
    return UPolynomial({(du + 1, dx): c / (du + 1) for (du, dx), c in p.items()})


def multi_cycle_power_sum(order: int) -> TruncSeries:
    """sum_n c_n P^n over P = z^2 (1-6wz)^(-3), with w by ``w_series`` and the
    power by the series recurrence: the multi-cycle factor without its closed form."""
    z = TruncSeries.variable("z", order)
    p = z * z * (TruncSeries.one(order) - 6 * w_series(order) * z) ** -3
    total = TruncSeries.zero(order)
    for n, p_n in enumerate(p.powers()):
        total = total + multi_cycle_coefficient(n) * p_n
    return total


def doetsch_product(order: int) -> TruncSeries:
    """(1 - 2z)^(-1/2) * exp(u^2 z / (1 - 2z)) by the series power, product and exp
    recurrences: Doetsch's right side without its operator."""
    base = TruncSeries.one(order) - 2 * TruncSeries.variable("z", order)
    arg = TruncSeries.monomial((1,), UPolynomial.u(power=2), order) * base**-1
    return base ** Rational(-1, 2) * arg.exp()


def hermite_egf_product(kind: HermiteKind, order: int) -> TruncSeries:
    """e^(u z + z^2/2) or e^(2u z - z^2) by the series exp recurrence: the Hermite EGF
    without its operator."""
    exponent = {
        HermiteKind.PROBABILIST: {(1,): UPolynomial.u(), (2,): Rational(1, 2)},
        HermiteKind.PHYSICIST: {(1,): UPolynomial.u(coeff=2), (2,): -1},
    }[kind]
    return TruncSeries(order, exponent).exp()


# -- marked graphs, one at a time ------------------------------------------------


class MarkedGraph:
    """n labeled trivalent vertices plus a matching of their 3n half-edge slots."""

    __slots__ = ("n", "pairs")

    def __init__(self, n: int, pairs: tuple):
        used = [v for pair in pairs for v in pair]
        if len(set(used)) != len(used):
            raise ValueError("a half-edge slot is used twice")
        if any(not 0 <= s < 3 * n for s in used):
            raise ValueError("half-edge slot out of range")
        self.n, self.pairs = n, pairs

    def __eq__(self, other) -> bool:
        return isinstance(other, MarkedGraph) and (self.n, self.pairs) == (other.n, other.pairs)

    def __hash__(self):
        return hash((self.n, self.pairs))

    def weight_exponent(self) -> int:
        """Number of u-weighted monovalent leaves."""
        return 3 * self.n - 2 * len(self.pairs)

    def component_profile(self) -> tuple:
        return _component_profile(self.n, self.pairs)


def _component_profile(n: int, pairs: tuple) -> tuple:
    """(#acyclic, #unicyclic, #multicyclic) components of the reduced multigraph."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s, t in pairs:
        ru, rv = find(s // 3), find(t // 3)
        if ru != rv:
            parent[ru] = rv
    vertices = [0] * n
    edges = [0] * n
    for v in range(n):
        vertices[find(v)] += 1
    for s, t in pairs:
        edges[find(s // 3)] += 1
    acyclic = unicyclic = multicyclic = 0
    for v in range(n):
        if find(v) == v:
            cycles = edges[v] - vertices[v] + 1  # cyclomatic number, loops included
            if cycles == 0:
                acyclic += 1
            elif cycles == 1:
                unicyclic += 1
            else:
                multicyclic += 1
    return (acyclic, unicyclic, multicyclic)


def iter_marked_graphs(n: int):
    for pairs in iter_matchings(tuple(range(3 * n))):
        yield MarkedGraph(n, pairs)


# -- w-trees, one at a time -----------------------------------------------------

LEAF = ()


def iter_canonical_w_trees(labels: tuple):
    """Each distinct w-tree on the sorted ``labels`` exactly once, as its canonical drawing.

    The two child half-edges of an internal vertex carry the two marks other
    than the root-facing one, in alphabetical order: left gets the smaller
    mark.  Because the marks differ, this fixes one drawing per tree.
    """
    if not labels:
        yield LEAF
        return
    for root in labels:
        rest = tuple(v for v in labels if v != root)  # labels stay sorted
        for mark in MARKS:  # mark of the unmatched / parent-facing half-edge
            for k in range(len(rest) + 1):
                for left_labels in itertools.combinations(rest, k):
                    right_labels = tuple(v for v in rest if v not in left_labels)
                    lefts, rights = _w_tree_lists(left_labels), _w_tree_lists(right_labels)
                    for left, right in itertools.product(lefts, rights):
                        yield (root, mark, left, right)


@lru_cache(maxsize=None)
def _w_tree_lists(labels: tuple) -> tuple:
    """Memoized canonical w-trees on exactly the given internal labels."""
    return tuple(iter_canonical_w_trees(labels))


# -- oracle views --------------------------------------------------------------


def matching_fixed_points(items: tuple, pairs: tuple) -> tuple:
    """The elements of ``items`` in no pair of the matching."""
    used = {v for pair in pairs for v in pair}
    return tuple(v for v in items if v not in used)


def fixed_slots(graph: MarkedGraph) -> tuple:
    """The unmatched half-edge slots of a marked graph."""
    return matching_fixed_points(tuple(range(3 * graph.n)), graph.pairs)


def reduced_edges(graph: MarkedGraph) -> tuple:
    """Vertex pairs of the reduced multigraph (loops and multi-edges kept)."""
    return tuple((s // 3, t // 3) for s, t in graph.pairs)


def iter_w_tree_drawings(labels: tuple):
    """All 2^n plane drawings per w-tree: children in either order.

    A drawing is (root, root_mark, (mark1, sub1), (mark2, sub2)) with the
    children in drawing order; a leaf is ().
    """
    labels = tuple(sorted(labels))
    if not labels:
        yield LEAF
        return
    for root in labels:
        rest = tuple(sorted(set(labels) - {root}))
        for mark in MARKS:
            others = tuple(m for m in MARKS if m != mark)
            for mark_order in (others, others[::-1]):
                for k in range(len(rest) + 1):
                    for first_labels in itertools.combinations(rest, k):
                        second_labels = tuple(sorted(set(rest) - set(first_labels)))
                        for first in iter_w_tree_drawings(first_labels):
                            for second in iter_w_tree_drawings(second_labels):
                                yield (
                                    root,
                                    mark,
                                    (mark_order[0], first),
                                    (mark_order[1], second),
                                )


def canonical_w_tree(drawing: tuple) -> tuple:
    """Canonical form of a drawing: sort children by (mark, subtree encoding)."""
    if drawing == LEAF:
        return LEAF
    root, mark, (m1, sub1), (m2, sub2) = drawing
    c1 = (m1, canonical_w_tree(sub1))
    c2 = (m2, canonical_w_tree(sub2))
    left, right = sorted((c1, c2))
    # canonical drawings drop the child marks: they are determined by the
    # root mark plus alphabetical order
    return (root, mark, left[1], right[1])


# -- the h/H normalization bridge ---------------------------------------------


def normalization_relation_check(n: int) -> bool:
    """Coefficient-wise rational form of the h/H rescaling; True iff it holds at n."""
    h, H = hermite_h(n), hermite_H(n)
    for d in range(n + 1):
        a, b = h.coefficient(d), H.coefficient(d)
        k, odd = divmod(n - d, 2)  # a term of the wrong parity breaks the relation
        if (a or b) and (odd or b != (-1) ** k * 2 ** (n - k) * a):
            return False
    return True
