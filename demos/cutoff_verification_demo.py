"""Exact verification of the built-in three-variable piecewise cutoff.

Everything here is exact rational arithmetic: the partition geometry, the
two quadratic functionals, and the vanishing-marginal identities.  The
script exits with status 1 if any check fails.
"""

import sys

from primegaps.cutoff3d import (
    build_partition,
    builtin_cutoff,
    canonical_polytope,
    check_marginals,
    integrate_I,
    integrate_J,
    piece_polynomial,
)
from primegaps.rational import Q, rational_str

f = builtin_cutoff()
failed = []


def check(label, ok):
    if not ok:
        failed.append(label)
    return ok


parts = build_partition(f.eps)
vol = sum((p.volume() for p in parts), Q(0))
check("partition volume", vol == Q(9, 16))
print(f"partition: {len(parts)} polytopes, total volume {rational_str(vol)} "
      f"(the full simplex volume is 9/16)")

I = integrate_I(f)
J = integrate_J(f)
print(f"\nI  = {rational_str(I)}")
print(f"J  = {rational_str(J)}")
print(f"J/I exceeds 2 by exactly {rational_str(J / I - 2)}")
check("J > 2I > 0", J > 2 * I > 0)

# I sums the ten canonical pieces six times; here each of the 60 polytopes
# is integrated with its own permuted polynomial
copies = Q(0)
for part in parts:
    name, word = part.name.split("_")
    g = piece_polynomial(f, name, word)
    copies += part.integrate(g * g)
same = check("60-copy cross-check", copies == I)
print(f"\n60-copy cross-check: the integral of F^2 over all 60 polytopes "
      f"{'equals I' if same else 'DIFFERS from I: ' + rational_str(copies)}")

print("\nmarginal identities (all must vanish identically):")
for label, residual in check_marginals(f):
    zero = check(f"marginal {label}", residual.is_zero())
    print(f"  {label}: {'vanishes' if zero else 'NONZERO'}")

inside = canonical_polytope("A", f.eps).contains((Q(1, 10), Q(1, 20), Q(1, 5)))
check("sample membership", inside)
print("\nsample membership: A contains (1/10, 1/20, 1/5):", inside)

if failed:
    print("\nFAILED: " + ", ".join(failed))
    sys.exit(1)
