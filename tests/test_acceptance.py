"""Acceptance gate: every criterion at its stated tolerance.

All equalities are exact rational identities (zero tolerance).  Run

    pytest tests/test_acceptance.py -v -s

to see one PASS/FAIL line per criterion with timings.
"""

import math
import time

from lacunary import Rational
from lacunary.cli import main as cli_main
from lacunary.hermite import hermite_h
from lacunary.identities import (
    catalan_number,
    hypergeom_form_check,
    hypergeom_term,
    multi_cycle_coefficient,
    verify,
)
from lacunary.oracle import enumerate_matchings, enumerate_w_trees, factor_census_check
from lacunary.umbral import (
    verify_corollary_and_ecor,
    verify_lemma_fm_i,
    verify_lemma_fm_ii,
)

from helpers import (
    check_eval_linearity,
    check_inverse_pairs,
    check_series_ring_axioms,
    check_truncation_consistency,
)


def _criterion(name, fn, limit=None):
    start = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - start
    in_time = limit is None or elapsed < limit
    status = "PASS" if ok and in_time else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" (limit {limit:.0f}s)" if limit else "")
    print(f"ACCEPTANCE {name}: {status} [{timing}]")
    assert ok, detail
    assert in_time, f"{name} took {elapsed:.2f}s, limit {limit}s"


def test_criterion_1_main_identity():
    def run():
        exit_code = cli_main(["verify", "main", "--order", "12"])
        report = verify("main", 12)
        return exit_code == 0 and report.verified, report.to_dict()

    _criterion("1 main identity order 12", run, limit=5.0)


def test_criterion_2_doetsch_identity():
    def run():
        exit_code = cli_main(["verify", "doetsch", "--order", "16"])
        report = verify("doetsch", 16)
        return exit_code == 0 and report.verified, report.to_dict()

    _criterion("2 doetsch identity order 16", run, limit=2.0)


def test_criterion_3_umbral_suite():
    def run():
        reports = [
            verify_lemma_fm_i(8),
            verify_lemma_fm_ii(8),
            verify_corollary_and_ecor(8),
        ]
        return all(r.verified for r in reports), [r.to_dict() for r in reports]

    _criterion("3 umbral suite order 8", run)


def test_criterion_4_matching_oracle():
    def run():
        for m in range(13):
            if enumerate_matchings(m) != hermite_h(m):
                return False, f"mismatch at m={m}"
        checks = (
            enumerate_matchings(6).coefficient(0) == 15
            and enumerate_matchings(12).coefficient(0) == 10395
            and 10395 == math.factorial(12) // (2**6 * math.factorial(6))
        )
        return checks, "perfect-matching counts"

    _criterion("4 matchings m=0..12 equal h_m", run, limit=30.0)


def test_criterion_5_w_tree_counts():
    def run():
        expected = [3**n * math.factorial(n) * catalan_number(n) for n in range(6)]
        if expected != [1, 3, 36, 810, 27216, 1224720]:
            return False, "formula values drifted"
        got = [enumerate_w_trees(n) for n in range(6)]
        return got == expected, f"{got} != {expected}"

    _criterion("5 w-tree counts n=0..5", run, limit=60.0)


def test_criterion_6_factor_census():
    def run():
        report = factor_census_check(4)
        return report.passed, report.to_dict()

    _criterion("6 factor census n=0..4", run)


def test_criterion_7_hypergeometric_form():
    def run():
        report = hypergeom_form_check(20)
        frozen = (
            hypergeom_term(1) == Rational(15, 2) == multi_cycle_coefficient(1)
            and hypergeom_term(2) == Rational(3465, 8) == multi_cycle_coefficient(2)
        )
        return report.verified and frozen, report.to_dict()

    _criterion("7 hypergeometric scalars n=0..20", run)


def test_criterion_8_tree_gf_routes():
    def run():
        names = ("tree-gf-routes", "w-routes", "one-cycle-routes", "dT-du")
        reports = [verify(name, 12) for name in names]  # dT-du compares at order 11
        return all(r.verified for r in reports), [r.to_dict() for r in reports]

    _criterion("8 tree-gf, w and one-cycle routes order 12, dT/du order 11", run)


def test_criterion_9_property_suites():
    def run():
        check_series_ring_axioms(1000)
        check_inverse_pairs(1000)
        check_eval_linearity(1000)
        check_truncation_consistency(1000)
        return True, None

    _criterion("9 randomized property suites x1000", run)
