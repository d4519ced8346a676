"""Closed-form values, special-function bounds, and the explicit
large-k machinery for the truncated variant."""

from fractions import Fraction

import mpmath as mp

from primegaps.bounds import (
    AsymptoticParams,
    asymptotic_lower,
    bessel_lower,
    m2_eps,
    m2_exact,
    mk_upper,
)

print("exact two-variable optimum:", mp.nstr(m2_exact(), 12))
print("universal upper bound at k=2:", mp.nstr(mk_upper(2), 12))

print("\nenlarged two-variable optimum across the branch point at eps = 1/3")
for eps in (Fraction(1, 5), Fraction(3, 10), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
    print(f"  eps = {eps}:  {mp.nstr(m2_eps(eps), 10)}")

print("\nBessel-zero lower bound (never reaches 4)")
for k in (2, 3, 6, 20, 100):
    print(f"  k = {k:3d}:  {mp.nstr(bessel_lower(k), 8)}")

print("\nexplicit truncated-variant lower bounds (quadrature error budget")
print("subtracted, so every printed value is a true lower bound)\n")
rows = [
    (5511, "0.965", "0.973"),
    (35410, "0.99479", "0.85213"),
    (41588, "0.97878", "0.94319"),
]
for k, theta, beta in rows:
    r = asymptotic_lower(AsymptoticParams.from_scaled(k, theta, beta))
    print(f"  k = {k:6d}: lower bound {mp.nstr(r.lower_bound, 11)}   "
          f"(error budget {mp.nstr(r.error_budget, 2)})")
