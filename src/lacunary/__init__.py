"""Exact-arithmetic engine for Hermite-polynomial generating-function
identities: truncated rational series, umbral evaluation, and brute-force
combinatorial enumeration cross-checking one another.
"""

from fractions import Fraction as Rational

from .hermite import (
    HermiteKind,
    hermite_H,
    hermite_h,
    m_moment,
)
from .identities import (
    catalan_number,
    hypergeom_form_check,
    identity_names,
    lhs_lacunary,
    multi_cycle_factor,
    one_cycle_factor,
    rhs_doetsch,
    rhs_main,
    tree_gf,
    verify,
    w_series,
)
from .oracle import (
    ComponentCensus,
    enumerate_marked_graphs,
    enumerate_matchings,
    enumerate_w_trees,
    factor_census_check,
)
from .poly import UPolynomial
from .report import IdentityReport, Mismatch
from .series import TruncSeries
from .umbral import (
    MExpression,
    exp_of_m_power,
    umbral_eval,
    verify_corollary_and_ecor,
    verify_lemma_fm_i,
    verify_lemma_fm_ii,
)

__all__ = [
    "ComponentCensus",
    "HermiteKind",
    "IdentityReport",
    "MExpression",
    "Mismatch",
    "Rational",
    "TruncSeries",
    "UPolynomial",
    "catalan_number",
    "enumerate_marked_graphs",
    "enumerate_matchings",
    "enumerate_w_trees",
    "exp_of_m_power",
    "factor_census_check",
    "hermite_H",
    "hermite_h",
    "hypergeom_form_check",
    "identity_names",
    "lhs_lacunary",
    "m_moment",
    "multi_cycle_factor",
    "one_cycle_factor",
    "rhs_doetsch",
    "rhs_main",
    "tree_gf",
    "umbral_eval",
    "verify",
    "verify_corollary_and_ecor",
    "verify_lemma_fm_i",
    "verify_lemma_fm_ii",
    "w_series",
]

__version__ = "0.1.0"
