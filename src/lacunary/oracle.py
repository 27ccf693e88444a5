"""Brute-force enumeration of matchings, marked trivalent graphs and w-trees.

These enumerations are deliberately independent of the series machinery:
they walk concrete finite objects and aggregate weights, and the test suite
uses them as ground truth for every generating-function factor.

Matchings.  A matching of {0..m-1} is an involution, represented as a tuple
of disjoint pairs (i, j) with i < j; elements in no pair are the fixed
points and carry weight u each.  ``iter_matchings`` pairs the smallest
unused element first, so the enumeration order is deterministic.

Marked graphs.  A marked graph on n labeled trivalent vertices has 3n
half-edge slots, slot s belonging to vertex s // 3 with mark "abc"[s % 3],
plus a matching of the slots.  Matched slot pairs become edges of a reduced
multigraph on the n vertices (a pair within one vertex is a loop, and loops
count as cycles); unmatched slots are u-weighted leaves that never affect
connectivity.  Components are classified by their cyclomatic number
edges - vertices + 1: zero for trees, one for unicyclic components, two or
more for the rest.  ``enumerate_marked_graphs`` counts by walk state (the
transfer-matrix method): it goes slot by slot, leaving each free slot
unmatched or pairing it with a free later slot, and memoizes on the slot,
the bitmask of later slots already matched, and each vertex's component
(named by first occurrence) with that component's cyclomatic number capped
at 2.  A state's result is the ``Counter`` of profile-key increments over
every way to finish from it, so each state is visited once however many
matchings reach it.  ``MarkedGraph.component_profile``, a union-find on one
graph, is its oracle.

w-trees.  A w-tree is a rooted tree whose internal vertices are labeled and
trivalent with half-edges marked a/b/c, whose leaves are unlabeled, and
whose root half-edge is unmatched.  The two subtrees under an internal
vertex hang off half-edges with distinct marks, so ordering children by
mark is a canonical form for the 2-per-vertex child-order symmetry of plane
drawings.  ``iter_w_trees`` generates exactly the canonical drawings (each
tree once) from memoized subtree lists.  ``enumerate_w_trees`` generates
and checks them up to n = 4; at n = 5 it multiplies the subtree list
lengths instead of yielding the trees.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Dict, Iterator, NamedTuple, Tuple

from . import identities
from .hermite import hermite_h
from .poly import POLY_ZERO, UPolynomial

MATCHING_BOUND = 14
W_TREE_BOUND = 5
MARKED_GRAPH_BOUND = 4

Pair = Tuple[int, int]
Pairs = Tuple[Pair, ...]

MARKS = "abc"
LEAF = ()


def iter_matchings(items: Tuple[int, ...]) -> Iterator[Pairs]:
    """All involutions of ``items`` as tuples of pairs (fixed points omitted)."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    yield from iter_matchings(rest)  # first stays unmatched
    for i, partner in enumerate(rest):
        for sub in iter_matchings(rest[:i] + rest[i + 1 :]):
            yield ((first, partner),) + sub


def enumerate_matchings(m: int) -> UPolynomial:
    """Weighted census sum u^(#fixed points) over all matchings of an m-set."""
    if not 0 <= m <= MATCHING_BOUND:
        raise ValueError(f"matching enumeration supports 0 <= m <= {MATCHING_BOUND}, got {m}")
    counts: Dict[int, int] = {}
    for pairs in iter_matchings(tuple(range(m))):
        fixed = m - 2 * len(pairs)
        counts[fixed] = counts.get(fixed, 0) + 1
    return UPolynomial({(fixed, 0): c for fixed, c in counts.items()})


# -- marked trivalent graphs ---------------------------------------------------


class MarkedGraph:
    """n labeled trivalent vertices plus a matching of their 3n half-edge slots."""

    __slots__ = ("n", "pairs")

    def __init__(self, n: int, pairs: Pairs):
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

    def component_profile(self) -> Tuple[int, int, int]:
        return _component_profile(self.n, self.pairs)


def _component_profile(n: int, pairs: Pairs) -> Tuple[int, int, int]:
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


class ComponentCensus(NamedTuple):
    """Weighted graph counts keyed by component-class profile."""

    n: int
    by_profile: Dict[Tuple[int, int, int], UPolynomial]

    def total(self) -> UPolynomial:
        out = UPolynomial.zero()
        for poly in self.by_profile.values():
            out = out + poly
        return out

    def _restricted(self, keep) -> UPolynomial:
        out = UPolynomial.zero()
        for profile, poly in self.by_profile.items():
            if keep(profile):
                out = out + poly
        return out

    def all_acyclic(self) -> UPolynomial:
        return self._restricted(lambda p: p[1] == 0 and p[2] == 0)

    def all_unicyclic(self) -> UPolynomial:
        return self._restricted(lambda p: p[0] == 0 and p[2] == 0)

    def all_multicyclic(self) -> UPolynomial:
        return self._restricted(lambda p: p[0] == 0 and p[1] == 0)

    def to_dict(self) -> dict:
        return {
            ",".join(map(str, profile)): str(self.by_profile[profile])
            for profile in sorted(self.by_profile)
        }


def iter_marked_graphs(n: int) -> Iterator[MarkedGraph]:
    for pairs in iter_matchings(tuple(range(3 * n))):
        yield MarkedGraph(n, pairs)


@lru_cache(maxsize=None)
def enumerate_marked_graphs(n: int) -> ComponentCensus:
    """Census of all marked graphs on n vertices, keyed by component profile."""
    if not 0 <= n <= MARKED_GRAPH_BOUND:
        raise ValueError(
            f"marked-graph enumeration supports 0 <= n <= {MARKED_GRAPH_BOUND}, got {n}"
        )
    slots = 3 * n
    # key: a base-(n+1) digit per class (acyclic, unicyclic, multicyclic), then #pairs
    base = n + 1
    weight = (1, base, base**2)  # by cyclomatic number, capped at 2
    pair = base**3
    memo: Dict[tuple, Counter] = {}

    def walk(s: int, matched: int, comps: tuple, cycles: tuple) -> Counter:
        """Key increments over every way to finish from slot s.

        Bit i of ``matched`` marks slot s + i as already paired; ``comps``
        names each vertex's component by first occurrence, and ``cycles``
        holds each component's cyclomatic number capped at 2.
        """
        while matched & 1:
            s, matched = s + 1, matched >> 1
        if s == slots:
            return Counter({sum(weight[c] for c in cycles): 1})
        state = (s, matched, comps, cycles)
        if state in memo:
            return memo[state]
        out = Counter(walk(s + 1, matched >> 1, comps, cycles))  # s stays unmatched
        a = comps[s // 3]
        for t in range(s + 1, slots):
            if matched >> (t - s) & 1:
                continue
            b = comps[t // 3]
            lo, hi = min(a, b), max(a, b)
            if lo == hi:  # an edge inside a component closes a cycle
                to_comps = comps
                to_cycles = cycles[:lo] + (min(cycles[lo] + 1, 2),) + cycles[lo + 1 :]
            else:  # a bridge joins hi's component, and its cycles, to lo's
                to_comps = tuple(lo if c == hi else c - (c > hi) for c in comps)
                joined = min(cycles[lo] + cycles[hi], 2)
                to_cycles = cycles[:lo] + (joined,) + cycles[lo + 1 : hi] + cycles[hi + 1 :]
            to_matched = (matched | 1 << (t - s)) >> 1
            for key, c in walk(s + 1, to_matched, to_comps, to_cycles).items():
                out[key + pair] += c
        memo[state] = out
        return out

    by_profile: Dict[Tuple[int, int, int], UPolynomial] = {}
    for key, c in walk(0, 0, tuple(range(n)), (0,) * n).items():
        pairs, code = divmod(key, pair)
        profile = (code % base, code // base % base, code // base**2)
        graphs = UPolynomial.u(slots - 2 * pairs, c)  # 3n - 2 pairs fixed slots
        by_profile[profile] = by_profile.get(profile, POLY_ZERO) + graphs
    return ComponentCensus(n, by_profile)


# -- w-trees --------------------------------------------------------------------


def _splits(rest: Tuple[int, ...]) -> Iterator[Tuple[tuple, tuple]]:
    """Each (left, right) split of the labels in ``rest``, both kept sorted."""
    for k in range(len(rest) + 1):
        for left in itertools.combinations(rest, k):
            yield left, tuple(v for v in rest if v not in left)


def _iter_canonical(labels: Tuple[int, ...]) -> Iterator[tuple]:
    if not labels:
        yield LEAF
        return
    for root in labels:
        rest = tuple(v for v in labels if v != root)  # labels stay sorted
        for mark in MARKS:  # mark of the unmatched / parent-facing half-edge
            for left_labels, right_labels in _splits(rest):
                lefts, rights = _w_tree_lists(left_labels), _w_tree_lists(right_labels)
                for left, right in itertools.product(lefts, rights):
                    yield (root, mark, left, right)


@lru_cache(maxsize=None)
def _w_tree_lists(labels: Tuple[int, ...]) -> tuple:
    """Memoized canonical w-trees on exactly the given internal labels."""
    return tuple(_iter_canonical(labels))


def iter_w_trees(labels: Tuple[int, ...]) -> Iterator[tuple]:
    """Each distinct w-tree exactly once, as its canonical drawing.

    The two child half-edges of an internal vertex carry the two marks other
    than the root-facing one, in alphabetical order: left gets the smaller
    mark.  Because the marks differ, this fixes one drawing per tree; only
    the subtree lists are memoized, so the full top-level list is never
    materialized.
    """
    yield from _iter_canonical(tuple(sorted(labels)))


def enumerate_w_trees(n: int) -> int:
    """Count distinct w-trees with n internal vertices.

    Up to n = 4 the trees are generated and checked for duplicates; at n = 5
    the count multiplies the lengths of the subtree lists under each root, mark
    and split, the pairs ``iter_w_trees`` would yield.
    """
    if not 0 <= n <= W_TREE_BOUND:
        raise ValueError(f"w-tree enumeration supports 0 <= n <= {W_TREE_BOUND}, got {n}")
    labels = tuple(range(n))
    if n <= 4:
        trees = list(iter_w_trees(labels))
        if len(set(trees)) != len(trees):
            raise AssertionError("canonical w-tree generation produced a duplicate")
        return len(trees)
    return len(MARKS) * sum(
        len(_w_tree_lists(left)) * len(_w_tree_lists(right))
        for root in labels
        for left, right in _splits(tuple(v for v in labels if v != root))
    )


# -- census versus generating-function factors -----------------------------------


class CensusCheckEntry(NamedTuple):
    n: int
    factor: str
    census: UPolynomial
    series: UPolynomial

    @property
    def matched(self) -> bool:
        return self.census == self.series


class CensusCheckReport(NamedTuple):
    n_max: int
    entries: Tuple[CensusCheckEntry, ...]

    @property
    def passed(self) -> bool:
        return all(entry.matched for entry in self.entries)

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "status": "verified" if self.passed else "mismatch",
            "entries": [
                {
                    "n": e.n,
                    "factor": e.factor,
                    "matched": e.matched,
                    "census": str(e.census),
                    "series": str(e.series),
                }
                for e in self.entries
            ],
        }


def factor_census_check(n_max: int) -> CensusCheckReport:
    """Compare the graph census, class by class, with the series factors.

    For each n <= n_max the all-acyclic, all-unicyclic and all-multicyclic
    graph classes must have exponential generating functions exp(T),
    (1-6wz)^(-1/2) and the multi-cycle sum, and the total census must be
    h_{3n}(u).  Mismatches are collected, not raised.
    """
    if not 0 <= n_max <= MARKED_GRAPH_BOUND:
        raise ValueError(f"census check supports 0 <= n_max <= {MARKED_GRAPH_BOUND}, got {n_max}")
    forest_gf = identities.tree_gf(n_max).exp()
    one_cycle = identities.one_cycle_factor(n_max)
    multi_cycle = identities.multi_cycle_factor(n_max)
    entries = []
    for n in range(n_max + 1):
        scale = math.factorial(n)
        census = enumerate_marked_graphs(n)
        for factor, census_poly, series in (
            ("acyclic", census.all_acyclic(), forest_gf),
            ("unicyclic", census.all_unicyclic(), one_cycle),
            ("multicyclic", census.all_multicyclic(), multi_cycle),
        ):
            entries.append(
                CensusCheckEntry(n, factor, census_poly, series.coefficient((n,)) * scale)
            )
        entries.append(CensusCheckEntry(n, "total", census.total(), hermite_h(3 * n)))
    return CensusCheckReport(n_max, tuple(entries))
