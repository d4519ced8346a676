"""Certified lower bounds for the variational quantities.

The float eigensolver only proposes candidate vectors; every printed bound
is backed by an exact rational inequality a^T M2 a > C a^T M1 a.
"""

import math
import tempfile
from fractions import Fraction
from pathlib import Path

from primegaps.varprob import (
    assemble_eps,
    assemble_plain,
    gram_lower_bound,
    krylov_lower_bound,
    verify_certificate_file,
    write_certificate,
)

print("iterated-image (Hankel) bounds, order 12, against the upper bound\n")
print("  k   certified lower     (k/(k-1)) log k")
for k in (2, 3, 4, 5, 10, 20):
    cert = krylov_lower_bound(k, 12)
    ub = k / (k - 1) * math.log(k)
    assert cert.verified and float(cert.C) < ub
    print(f"  {k:3d}  {float(cert.C):.6f}           {ub:.6f}")

print("\npolynomial-basis bounds with growing degree (k = 3)\n")
for d in (0, 2, 4, 6):
    cert = gram_lower_bound(assemble_plain(3, d))
    print(f"  degree {d}: n = {len(cert.a):2d} basis elements, C = {float(cert.C):.6f}")

print("\nenlarged-variant bound at k = 2, eps = 1/2 "
      "(exact optimum is (e(1+eps)-2eps)/(e-1) = 1.790988...)\n")
cert = gram_lower_bound(assemble_eps(2, 6, Fraction(1, 2)))
print(f"  certified C = {float(cert.C):.6f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "cert.txt"
    write_certificate(path, cert, d=6)
    recheck, margin = verify_certificate_file(path)
    print(f"  re-checked from file: verified={recheck.verified}, "
          f"exact margin numerator digits: {len(str(margin.numerator))}")
