"""Brute-force enumerations against closed forms and series factors."""

import math
import subprocess
import sys

import pytest

from lacunary.hermite import hermite_h
from lacunary.identities import catalan_number, w_series
from lacunary.oracle import (
    enumerate_marked_graphs,
    enumerate_matchings,
    enumerate_w_trees,
    factor_census_check,
    iter_matchings,
)
from lacunary.poly import UPolynomial

from helpers import (
    MarkedGraph,
    canonical_w_tree,
    child_env,
    fixed_slots,
    iter_canonical_w_trees,
    iter_marked_graphs,
    iter_w_tree_drawings,
    matching_fixed_points,
    reduced_edges,
)


def test_matchings_are_involutions():
    items = tuple(range(5))
    seen = set()
    for pairs in iter_matchings(items):
        flat = [v for pair in pairs for v in pair]
        assert len(flat) == len(set(flat))
        assert all(i < j for i, j in pairs)
        fixed = matching_fixed_points(items, pairs)
        assert set(flat) | set(fixed) == set(items)
        seen.add(pairs)
    # involutions of a 5-set: 1 + C(5,2) + C(5,2)*C(3,2)/2 = 26
    assert len(seen) == 26


def test_matching_census_small():
    assert enumerate_matchings(0) == UPolynomial.one()
    assert enumerate_matchings(2) == UPolynomial({(2, 0): 1, (0, 0): 1})
    assert enumerate_matchings(3) == UPolynomial({(3, 0): 1, (1, 0): 3})


def test_matching_census_equals_hermite():
    for m in range(10):
        assert enumerate_matchings(m) == hermite_h(m)


def test_matching_census_perfect_matchings():
    assert enumerate_matchings(6).coefficient(0) == 15


def test_matching_bound():
    with pytest.raises(ValueError):
        enumerate_matchings(15)
    with pytest.raises(ValueError):
        enumerate_matchings(-1)


def test_w_tree_counts():
    expected = [3**n * math.factorial(n) * catalan_number(n) for n in range(5)]
    assert [enumerate_w_trees(n) for n in range(5)] == expected
    assert expected[:3] == [1, 3, 36]


def test_w_tree_counts_match_w_series():
    # n! * (z^n coefficient of w) = W_n * u^(n+1)
    w = w_series(4)
    for n in range(5):
        expected = UPolynomial.u(power=n + 1, coeff=enumerate_w_trees(n))
        assert w.coefficient((n,)) * math.factorial(n) == expected


def test_canonical_w_trees_are_distinct():
    # each tree once: as many distinct drawings as yielded, and as counted
    for n in range(5):
        trees = list(iter_canonical_w_trees(tuple(range(n))))
        assert len(set(trees)) == len(trees) == enumerate_w_trees(n)


def test_w_tree_count_n5_equals_generation():
    # the memoized count builds no tree; generation yields each tree
    assert enumerate_w_trees(5) == sum(1 for _ in iter_canonical_w_trees(tuple(range(5))))


def test_w_tree_drawings_quotient():
    # 2^n drawings per tree; canonicalizing recovers exactly the direct list
    for n in range(4):
        labels = tuple(range(n))
        drawings = list(iter_w_tree_drawings(labels))
        count = 3**n * math.factorial(n) * catalan_number(n)
        assert len(drawings) == 2**n * count
        canonical = {canonical_w_tree(d) for d in drawings}
        assert canonical == set(iter_canonical_w_trees(labels))
        assert len(canonical) == count


def test_w_tree_count_n5_builds_no_trees():
    # a fresh interpreter, so that no warm cache hides what the count allocates
    probe = (
        "import tracemalloc\n"
        "from lacunary.oracle import enumerate_w_trees\n"
        "tracemalloc.start()\n"
        "enumerate_w_trees(5)\n"
        "print(tracemalloc.get_traced_memory()[1])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True
    )
    assert int(done.stdout) < 2**20  # bytes at the peak


def test_w_tree_bound():
    with pytest.raises(ValueError):
        enumerate_w_trees(6)


def test_marked_graph_slot_validation():
    with pytest.raises(ValueError):
        MarkedGraph(1, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        MarkedGraph(1, ((0, 5),))


def test_marked_graph_value_equality():
    g = MarkedGraph(2, ((0, 3), (1, 2)))
    same = MarkedGraph(2, ((0, 3), (1, 2)))
    assert g == same and hash(g) == hash(same)
    assert len({g, same}) == 1
    assert g != MarkedGraph(2, ((0, 3),))
    assert g != MarkedGraph(3, ((0, 3), (1, 2)))


def test_marked_graph_weights_and_edges():
    g = MarkedGraph(2, ((0, 3), (1, 2)))
    assert g.weight_exponent() == 2
    assert fixed_slots(g) == (4, 5)
    assert reduced_edges(g) == ((0, 1), (0, 0))
    # one component, 2 vertices, a bridge plus a loop: cyclomatic number 1
    assert g.component_profile() == (0, 1, 0)


def test_marked_graph_theta_is_multicyclic():
    g = MarkedGraph(2, ((0, 3), (1, 4), (2, 5)))
    assert g.weight_exponent() == 0
    assert g.component_profile() == (0, 0, 1)  # triple edge: cyclomatic number 2


def test_census_n0_and_n1():
    c0 = enumerate_marked_graphs(0)
    assert c0.by_profile == {(0, 0, 0): UPolynomial.one()}
    c1 = enumerate_marked_graphs(1)
    assert c1.by_profile == {
        (1, 0, 0): UPolynomial.u(power=3),
        (0, 1, 0): UPolynomial.u(coeff=3),
    }
    assert c1.total() == hermite_h(3)


def test_census_n2_multicyclic_is_perfect_matching_count():
    census = enumerate_marked_graphs(2)
    assert census.by_profile[(0, 0, 1)] == UPolynomial.constant(15)


def test_census_totals_match_hermite():
    for n in range(4):
        assert enumerate_marked_graphs(n).total() == hermite_h(3 * n)


def test_component_profile_against_networkx():
    nx = pytest.importorskip("networkx")
    for graph in iter_marked_graphs(3):
        multigraph = nx.MultiGraph()
        multigraph.add_nodes_from(range(3))
        multigraph.add_edges_from(reduced_edges(graph))
        profile = [0, 0, 0]
        for component in nx.connected_components(multigraph):
            sub = multigraph.subgraph(component)
            cycles = sub.number_of_edges() - sub.number_of_nodes() + 1
            assert cycles >= 0
            assert (cycles == 0) == (sub.number_of_edges() == sub.number_of_nodes() - 1)
            profile[min(cycles, 2)] += 1
        assert tuple(profile) == graph.component_profile()


def test_census_independent_of_enumeration_order():
    # each graph classified on its own by its union-find, in reverse order
    for n in range(5):
        reversed_counts = {}
        for graph in reversed(list(iter_marked_graphs(n))):
            profile = graph.component_profile()
            poly = UPolynomial.u(power=graph.weight_exponent())
            reversed_counts[profile] = reversed_counts.get(profile, UPolynomial.zero()) + poly
        assert reversed_counts == enumerate_marked_graphs(n).by_profile


def test_census_n4_by_profile():
    assert enumerate_marked_graphs(4).to_dict() == {
        "0,0,1": "48600*u^2 + 9720",
        "0,0,2": "675",
        "0,1,0": "31104*u^4",
        "0,1,1": "12960*u^2",
        "0,2,0": "14256*u^4",
        "0,2,1": "810*u^2",
        "0,3,0": "1944*u^4",
        "0,4,0": "81*u^4",
        "1,0,0": "4536*u^6",
        "1,0,1": "4050*u^4",
        "1,1,0": "7344*u^6",
        "1,1,1": "540*u^4",
        "1,2,0": "1782*u^6",
        "1,3,0": "108*u^6",
        "2,0,0": "891*u^8",
        "2,0,1": "90*u^6",
        "2,1,0": "540*u^8",
        "2,2,0": "54*u^8",
        "3,0,0": "54*u^10",
        "3,1,0": "12*u^10",
        "4,0,0": "u^12",
    }


def test_factor_census_check_passes():
    report = factor_census_check(3)
    assert report.passed
    assert report.to_dict()["status"] == "verified"
    by_factor = {(e.n, e.factor): e for e in report.entries}
    assert by_factor[(1, "1,0,0")].census == UPolynomial.u(power=3)
    assert by_factor[(1, "0,1,0")].census == UPolynomial.u(coeff=3)
    assert by_factor[(2, "0,0,1")].census == UPolynomial.constant(15)


def test_factor_census_check_compares_every_profile():
    report = factor_census_check(4)
    assert report.passed
    # every (a, b, c) with a + b + c <= n, plus the total, for each n <= 4
    assert len(report.entries) == 70 + 5
    at_4 = [e.factor for e in report.entries if e.n == 4]
    assert at_4[:3] == ["0,0,0", "0,0,1", "0,0,2"] and at_4[-1] == "total"
    assert len(at_4) == 35 + 1
    empty = {(e.n, e.factor): e for e in report.entries}[(3, "0,0,2")]
    assert empty.census == empty.series == UPolynomial.zero()


def test_factor_census_bound():
    with pytest.raises(ValueError):
        factor_census_check(5)
    with pytest.raises(ValueError):
        enumerate_marked_graphs(5)
