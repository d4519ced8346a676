"""Exact rational arithmetic helpers.

All certificate-grade arithmetic in this package is exact, in the stdlib
Fraction; the hot loops (moments, structure constants) run on integer
numerators over one denominator.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction


def parse_rational(text: str):
    """Parse 'p/q' or 'p' into an exact rational.

    Decimal strings like '4.0043' are accepted and read exactly
    (4.0043 -> 40043/10000).
    """
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Q(int(num), int(den))
    if "." in s or "e" in s.lower():
        return Q(s)
    return Q(int(s))


def rational_str(x) -> str:
    """Canonical 'p/q' (or 'p' when integral) rendering."""
    x = Q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
