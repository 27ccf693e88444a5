"""Brute-force censuses of matchings, marked trivalent graphs and w-trees.

These censuses are deliberately independent of the series machinery: they
count concrete finite objects by their combinatorial rules and aggregate
weights, and the test suite uses them as ground truth for every
generating-function factor.

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
matchings reach it.  The test suite's union-find on each single graph is its
oracle.

w-trees.  A w-tree is a rooted tree whose internal vertices are labeled and
trivalent with half-edges marked a/b/c, whose leaves are unlabeled, and
whose root half-edge is unmatched.  The two subtrees under an internal
vertex hang off half-edges with distinct marks, so ordering children by
mark is a canonical form for the 2-per-vertex child-order symmetry of plane
drawings.  ``enumerate_w_trees`` counts the canonical drawings by one
memoized recursion over label sets: a root, a root mark and a split of the
other labels, times the counts of the two subtrees.  No tree is built; the
test suite generates the trees themselves as the oracle of this count.

Census check.  ``factor_census_check`` compares the census, component profile
by component profile, with the exponential formula over the series factors.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Dict, Iterator, NamedTuple, Tuple

from . import identities
from .hermite import hermite_h
from .poly import POLY_ZERO, UPolynomial, _check_nonnegative_int

MATCHING_BOUND = 14
W_TREE_BOUND = 5
MARKED_GRAPH_BOUND = 4

Pair = Tuple[int, int]
Pairs = Tuple[Pair, ...]

MARKS = "abc"


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
    if _check_nonnegative_int(m, "m") > MATCHING_BOUND:
        raise ValueError(f"matching enumeration supports 0 <= m <= {MATCHING_BOUND}, got {m}")
    counts: Dict[int, int] = {}
    for pairs in iter_matchings(tuple(range(m))):
        fixed = m - 2 * len(pairs)
        counts[fixed] = counts.get(fixed, 0) + 1
    return UPolynomial({(fixed, 0): c for fixed, c in counts.items()})


# -- marked trivalent graphs ---------------------------------------------------


class ComponentCensus(NamedTuple):
    """Weighted graph counts keyed by component-class profile."""

    n: int
    by_profile: Dict[Tuple[int, int, int], UPolynomial]

    def total(self) -> UPolynomial:
        out = UPolynomial.zero()
        for poly in self.by_profile.values():
            out = out + poly
        return out

    def to_dict(self) -> dict:
        return {
            ",".join(map(str, profile)): str(self.by_profile[profile])
            for profile in sorted(self.by_profile)
        }


@lru_cache(maxsize=None)
def enumerate_marked_graphs(n: int) -> ComponentCensus:
    """Census of all marked graphs on n vertices, keyed by component profile."""
    if _check_nonnegative_int(n, "n") > MARKED_GRAPH_BOUND:
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


@lru_cache(maxsize=None)
def _count_w_trees(labels: Tuple[int, ...]) -> int:
    """Number of distinct w-trees on exactly the sorted internal ``labels``.

    The empty tuple is the lone leaf.  Otherwise a tree is a root label, the
    mark of its root-facing half-edge, and a split of the other labels
    between the two children, which hang off the two remaining marks in
    alphabetical order, so each tree is counted once.
    """
    if not labels:
        return 1
    return len(MARKS) * sum(
        _count_w_trees(left) * _count_w_trees(right)
        for root in labels
        for left, right in _splits(tuple(v for v in labels if v != root))
    )


def enumerate_w_trees(n: int) -> int:
    """Count distinct w-trees with n internal vertices."""
    if _check_nonnegative_int(n, "n") > W_TREE_BOUND:
        raise ValueError(f"w-tree enumeration supports 0 <= n <= {W_TREE_BOUND}, got {n}")
    return _count_w_trees(tuple(range(n)))


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
    """Compare the graph census, profile by profile, with the exponential formula.

    The connected acyclic, unicyclic and multicyclic components have
    exponential generating functions A = T, B = log(one-cycle factor) and
    C = log(multi-cycle factor).  So for each n <= n_max, the graphs with a
    profile (a, b, c), a + b + c <= n, number n!/(a! b! c!) [z^n] A^a B^b C^c
    (an absent profile counts 0), and the total census is h_{3n}(u).
    Mismatches are collected, not raised.
    """
    if _check_nonnegative_int(n_max, "n_max") > MARKED_GRAPH_BOUND:
        raise ValueError(f"census check supports 0 <= n_max <= {MARKED_GRAPH_BOUND}, got {n_max}")
    component_gfs = (
        identities.tree_gf(n_max),
        identities.one_cycle_factor(n_max).log(),
        identities.multi_cycle_factor(n_max).log(),
    )
    # X^k/k! for each class; the list stops at the last nonzero power
    scaled_powers = [
        [power / math.factorial(k) for k, power in enumerate(gf.powers())] for gf in component_gfs
    ]
    formula = {
        (a, b, c): pa * pb * pc
        for (a, pa), (b, pb), (c, pc) in itertools.product(*map(enumerate, scaled_powers))
        if a + b + c <= n_max
    }
    entries = []
    for n in range(n_max + 1):
        census = enumerate_marked_graphs(n)
        for profile in itertools.product(range(n + 1), repeat=3):
            if sum(profile) <= n:
                series = formula.get(profile)
                expected = series.coefficient((n,)) * math.factorial(n) if series else POLY_ZERO
                graphs = census.by_profile.get(profile, POLY_ZERO)
                entries.append(CensusCheckEntry(n, ",".join(map(str, profile)), graphs, expected))
        entries.append(CensusCheckEntry(n, "total", census.total(), hermite_h(3 * n)))
    return CensusCheckReport(n_max, tuple(entries))
