"""Exact verification of the built-in three-variable piecewise cutoff.

Everything here is exact rational arithmetic: the partition geometry, the
two quadratic functionals, and the vanishing-marginal identities.  The
script exits with status 1 if any check fails.
"""

import sys
from fractions import Fraction

from primegaps.cutoff3d import (
    build_partition,
    builtin_cutoff,
    canonical_polytope,
    piece_polynomial,
    verify_cutoff,
)

f = builtin_cutoff()
failed = []


def check(label, ok):
    if not ok:
        failed.append(label)
    return ok


parts = build_partition(f.eps)
vol = sum((p.volume() for p in parts), Fraction(0))
check("partition volume", vol == Fraction(9, 16))
print(f"partition: {len(parts)} polytopes, total volume {vol} "
      f"(the full simplex volume is 9/16)")

v = verify_cutoff(f)
I, J = v.I, v.J
print(f"\nI  = {I}")
print(f"J  = {J}")
print(f"J/I exceeds 2 by exactly {J / I - 2}")
check("J > 2I > 0", J > 2 * I > 0)
check("support in the simplex", v.support_ok)

# I sums the ten canonical pieces six times; here each of the 60 polytopes
# is integrated with its own permuted polynomial
copies = Fraction(0)
for part in parts:
    name, word = part.name.split("_")
    g = piece_polynomial(f, name, word)
    copies += part.integrate(g * g)
same = check("60-copy cross-check", copies == I)
print(f"\n60-copy cross-check: the integral of F^2 over all 60 polytopes "
      f"{'equals I' if same else 'DIFFERS from I: ' + str(copies)}")

print("\nmarginal identities (all must vanish identically):")
for label, residual in v.residuals:
    zero = check(f"marginal {label}", residual.is_zero())
    print(f"  {label}: {'vanishes' if zero else 'NONZERO'}")

point = (Fraction(1, 10), Fraction(1, 20), Fraction(1, 5))
inside = canonical_polytope("A", f.eps).contains(point)
check("sample membership", inside)
print("\nsample membership: A contains (1/10, 1/20, 1/5):", inside)

if failed:
    print("\nFAILED: " + ", ".join(failed))
    sys.exit(1)
