"""Verification reports shared by the identity, umbral and census checkers.

JSON schema (kept byte-stable for downstream diffing):

    {"identity": str, "order": int, "status": "verified" | "mismatch",
     "mismatch": null | {"exponents": [int, ...], "lhs": str, "rhs": str}}
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .poly import POLY_ZERO, UPolynomial


class Mismatch(NamedTuple):
    exponents: Tuple[int, ...]
    lhs: UPolynomial
    rhs: UPolynomial


class IdentityReport(NamedTuple):
    identity: str
    order: int
    mismatch: Optional[Mismatch] = None

    @property
    def verified(self) -> bool:
        return self.mismatch is None

    @property
    def status(self) -> str:
        return "verified" if self.verified else "mismatch"

    def to_dict(self) -> dict:
        detail = None
        if self.mismatch is not None:
            detail = {
                "exponents": list(self.mismatch.exponents),
                "lhs": str(self.mismatch.lhs),
                "rhs": str(self.mismatch.rhs),
            }
        return {
            "identity": self.identity,
            "order": self.order,
            "status": self.status,
            "mismatch": detail,
        }


def compare_series(identity: str, order: int, lhs, rhs) -> IdentityReport:
    """Coefficient-by-coefficient comparison; reports the first mismatch.

    Equal series (``==`` compares every coefficient exactly) verify at once;
    otherwise the coefficients are walked to find the first mismatch.
    "First" means lowest total degree, then lexicographic exponents, so a
    failure always points at the smallest offending coefficient.
    """
    if lhs.order != rhs.order or lhs.vars != rhs.vars:
        raise ValueError(
            f"cannot compare series of shape ({lhs.order}, {lhs.vars}) "
            f"and ({rhs.order}, {rhs.vars})"
        )
    if lhs == rhs:
        return IdentityReport(identity, order)
    left, right = dict(lhs.items()), dict(rhs.items())
    for e in sorted(left.keys() | right.keys(), key=lambda t: (sum(t), t)):
        lp = left.get(e, POLY_ZERO)
        rp = right.get(e, POLY_ZERO)
        if lp != rp:
            return IdentityReport(identity, order, Mismatch(tuple(e), lp, rp))
    return IdentityReport(identity, order)
