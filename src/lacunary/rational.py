"""Exact rational scalars: the coefficient field for everything else.

``Rational`` is the stdlib ``fractions.Fraction``: values stay in lowest
terms with a positive denominator, mix freely with Python ints, and never
round.  The series kernel does its inner work on int numerators over a
common denominator (see ``series``), so ``Rational`` appears only where
coefficients are stored, built or printed.
"""

from __future__ import annotations

from fractions import Fraction as Rational


def rational_str(q) -> str:
    """Render ``q`` as ``p`` or ``p/q`` (lowest terms, no decimals)."""
    return str(Rational(q))
