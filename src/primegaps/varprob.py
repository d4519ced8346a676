"""Quadratic-form matrices for the variational sieve problems and exact
lower-bound certificates.

The two quadratic forms are assembled in a basis of symmetric polynomials
b_i; M1 carries the L^2 inner products and M2 the slot-integrated products.
Each is built and stored once as integer rows over one denominator, so that
a vector a with

    a^T M2 a - C a^T M1 a > 0        (exact rational arithmetic)

certifies a lower bound C for the corresponding variational quantity
(plain simplex variant, or the enlarged/shrunk epsilon variant).  Every
bound, Gram or Krylov, takes one path: an integer fixed-point solve with a
float64 eigensolver proposes an integer vector a, and C is its exact
Rayleigh quotient rounded strictly down, so the inequality holds by
construction and is re-checked exactly.  No rational factorization is
needed: the proposal is advisory, and assembly drops dependent basis
candidates by a factorization modulo a prime.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import mul

import numpy as np

from .admissible import MAX_DIGITS, read_int
from .symmpoly import Signature, _apply_L_int, _beta_numerator, _slot_terms, _TermTable

__all__ = [
    "Variant",
    "BasisElement",
    "GramPair",
    "BoundCertificate",
    "KrylovTable",
    "assemble_plain",
    "assemble_eps",
    "solve_generalized",
    "certify",
    "gram_lower_bound",
    "krylov_moments",
    "krylov_lower_bound",
    "certificate_pair",
    "write_certificate",
    "read_certificate",
    "read_rational",
    "read_field",
    "verify_certificate_file",
]


@dataclass(frozen=True)
class Variant:
    """Which variational quantity a bound refers to."""

    kind: str  # "plain" or "eps"
    k: int
    eps: object = None  # exact rational for kind == "eps"

    def __post_init__(self):
        if self.kind not in ("plain", "eps"):
            raise ValueError("variant kind must be 'plain' or 'eps'")
        if self.kind == "eps":
            e = Fraction(self.eps)
            if not 0 < e < 1:
                raise ValueError("eps must lie in (0, 1)")
            object.__setattr__(self, "eps", e)
        elif self.eps is not None:
            raise ValueError("plain variant takes no eps")

    def __str__(self):
        if self.kind == "plain":
            return f"plain({self.k})"
        return f"eps({self.k}, {self.eps})"


@dataclass(frozen=True)
class BasisElement:
    """(offset - P_(1))^a * P_alpha with alpha free of parts equal to 1."""

    a: int
    alpha: Signature
    offset: object = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "alpha", Signature(self.alpha))
        object.__setattr__(self, "offset", Fraction(self.offset))
        if self.a < 0:
            raise ValueError("affine exponent must be non-negative")
        if self.alpha.has_one:
            raise ValueError("basis signatures may not contain a part equal to 1")

    @property
    def degree(self) -> int:
        return self.a + self.alpha.degree


class GramPair:
    """Pair of exact symmetric rational matrices (M1, M2) over a basis.

    Each matrix is given as an integer form (den, rows), M = rows / den, and
    stored once in forms, reduced by gcd(den, *entries): that form is
    unique, its den the least common denominator of M.  M1 and M2 are
    Fraction views, built on each access.
    """

    __slots__ = ("variant", "basis", "forms")

    def __init__(self, variant: Variant, basis, M1, M2):
        self.variant = variant
        self.basis = tuple(basis)
        n = len(self.basis)
        forms = []
        for den, rows in (M1, M2):
            if den <= 0:
                raise ValueError(f"matrix denominator must be positive, got {den}")
            if len(rows) != n or any(len(row) != n for row in rows):
                raise ValueError(f"matrix sizes must match the basis of {n} elements")
            if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
                raise ValueError("matrices must be exactly symmetric")
            g = math.gcd(den, *(x for row in rows for x in row))
            forms.append((den // g, tuple(tuple(x // g for x in row) for row in rows)))
        self.forms = tuple(forms)

    @property
    def n(self) -> int:
        return len(self.basis)

    M1 = property(lambda self: _fractions(*self.forms[0]))
    M2 = property(lambda self: _fractions(*self.forms[1]))


def _fractions(den: int, rows):
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


#: the proposal's first fixed point: a real v is carried as floor(v * 2^F),
#: F = PROPOSAL_BITS, doubled while a pivot of M1 keeps fewer than PIVOT_BITS
PROPOSAL_BITS = 128
PIVOT_BITS = 64


def _jacobi_scaled(N1, N2, F: int):
    """M1 and M2 scaled by S = diag(M1)^-1/2, at 2^-F fixed point, and S.

    Returns (A, B, s, e): A = S N1 S has unit diagonal; B = S N2 S up to a
    power of two that puts its largest entry near 1 (N1, N2 are the integer
    forms, so the scales of M1 and M2 drop out); S[i] = s[i] * 2^-e[i].
    """
    n = len(N1)
    s, e = [], []
    for i in range(n):
        x = N1[i][i]
        ei = F + 32 + (x.bit_length() + 1) // 2  # s[i] has about F + 32 bits
        s.append(isqrt((1 << 2 * ei) // x))
        e.append(ei)
    A = [[(N1[i][j] * s[i] * s[j]) >> (e[i] + e[j] - F) for j in range(n)] for i in range(n)]
    P = [[N2[i][j] * s[i] * s[j] for j in range(n)] for i in range(n)]
    top = max(P[i][j].bit_length() - e[i] - e[j] for i in range(n) for j in range(n))
    B = [[_shift(P[i][j], F - top - e[i] - e[j]) for j in range(n)] for i in range(n)]
    return A, B, s, e


def _shift(x: int, bits: int) -> int:
    return x << bits if bits >= 0 else x >> -bits


def _fixed_ldl(A, F: int):
    """A = L D L^T at 2^-F fixed point; row i of L holds L[i][0..i-1], d the
    pivots.  None when a pivot keeps fewer than PIVOT_BITS bits."""
    L: list = []
    d: list = []
    for i, Ai in enumerate(A):
        W = []  # W[t] = L[i][t] * d[t]
        for j in range(i):
            W.append(((Ai[j] << F) - sum(map(mul, W, L[j]))) >> F)
        Li = [(w << F) // dj for w, dj in zip(W, d)]
        pivot = ((Ai[i] << F) - sum(map(mul, W, Li))) >> F
        if pivot < 1 << PIVOT_BITS:
            return None
        L.append(Li)
        d.append(pivot)
    return L, d


def _fixed_forward_solve(L, b, F: int):
    """x with L x = b for the unit lower triangular L at 2^-F fixed point."""
    x: list = []
    for Li, bi in zip(L, b):
        x.append(bi - (sum(map(mul, Li, x)) >> F))
    return x


def solve_generalized(pair: GramPair) -> tuple:
    """Integer proposal a for the largest generalized eigenvalue of (M2, M1).

    All in Python ints at 2^-F fixed point: M1 and M2 are scaled by
    diag(M1)^-1/2, the scaled M1 is factored L D L^T and M2 reduced to
    R = L^-1 M2 L^-T by two forward solves.  float64 solves the symmetric
    problem D^-1/2 R D^-1/2, and its top eigenvector v is mapped back by
    the back-solve L^T z = D^-1/2 v.  a is z scaled back to M1's basis and
    rounded to integers whose smallest nonzero entry keeps 64 bits.

    F starts at PROPOSAL_BITS and doubles while a pivot keeps fewer than
    PIVOT_BITS bits; an integer positive definite M1 has every scaled pivot
    above 2^-b, b the total bit length of its diagonal, so past F = b +
    PROPOSAL_BITS a short pivot raises ValueError("M1 not positive
    definite").  The proposal is advisory: certification is exact.
    """
    (_, N1), (_, N2) = pair.forms
    n = pair.n
    if any(N1[i][i] <= 0 for i in range(n)):
        raise ValueError("M1 not positive definite")
    cap = sum(N1[i][i].bit_length() for i in range(n)) + PROPOSAL_BITS
    F = PROPOSAL_BITS
    while True:
        A, B, s, e = _jacobi_scaled(N1, N2, F)
        factor = _fixed_ldl(A, F)
        if factor is not None:
            break
        if F >= cap:
            raise ValueError("M1 not positive definite")
        F *= 2
    L, d = factor
    X = [_fixed_forward_solve(L, col, F) for col in B]  # columns of L^-1 B
    R = [_fixed_forward_solve(L, row, F) for row in zip(*X)]  # B is symmetric
    S = np.array([[x / isqrt(di * dj) for x, dj in zip(row, d)] for row, di in zip(R, d)])
    _, V = np.linalg.eigh(S)
    z = []
    for v, di in zip(V[:, -1].tolist(), d):
        num, den = v.as_integer_ratio()
        z.append((num << 2 * F) // (den * isqrt(di << F)))
    for i in range(n - 1, -1, -1):
        z[i] -= sum(L[j][i] * z[j] for j in range(i + 1, n)) >> F
    top = max(e)
    a = [zi * si << (top - ei) for zi, si, ei in zip(z, s, e)]
    drop = min(abs(x).bit_length() for x in a if x) - 64
    if drop > 0:
        a = [(x + (1 << (drop - 1))) >> drop for x in a]
    return tuple(Fraction(x) for x in a)


@dataclass(frozen=True)
class BoundCertificate:
    """Exactly verified statement a^T M2 a > C a^T M1 a (with a^T M1 a > 0)."""

    variant: Variant
    a: tuple
    C: object
    verified: bool

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(Fraction(x) for x in self.a))
        object.__setattr__(self, "C", Fraction(self.C))


def _quadratic_forms(pair: GramPair, a):
    """Exact (a^T M1 a, a^T M2 a), summed in integers.

    a is put over the lcm l of its denominators, a = A / l, and each M over
    its common denominator, M = N / den, so a^T M a = A^T N A / (den l^2).
    """
    n = pair.n
    if len(a) != n:
        raise ValueError("coefficient vector length must match the basis")
    a = [Fraction(x) for x in a]
    lcm = math.lcm(*(x.denominator for x in a))
    A = [x.numerator * (lcm // x.denominator) for x in a]
    support = [i for i in range(n) if A[i]]
    out = []
    for den, N in pair.forms:
        total = 0
        for i in support:
            row = N[i]
            total += A[i] * sum(row[j] * A[j] for j in support)
        out.append(Fraction(total, den * lcm * lcm))
    return tuple(out)


def _check(pair: GramPair, a, C, forms=None):
    """The exact check a^T M2 a - C a^T M1 a > 0 with a^T M1 a > 0.

    Returns (certificate, margin); forms, when given, are the already
    computed _quadratic_forms(pair, a).
    """
    C = Fraction(C)
    t1, t2 = forms or _quadratic_forms(pair, a)
    margin = t2 - C * t1
    return BoundCertificate(pair.variant, a, C, margin > 0 and t1 > 0), margin


def certify(pair: GramPair, a, C) -> BoundCertificate:
    """Exact verification; never raises on a failed inequality."""
    return _check(pair, a, C)[0]


# ---------------------------------------------------------------------------
# basis assembly
# ---------------------------------------------------------------------------


def _basis_signatures(k: int, d: int, even_only: bool):
    """Signatures free of 1s (optionally all even) with degree <= d, length <= k."""
    out = []

    def rec(sig, maxpart, budget):
        out.append(sig)
        if len(sig) == k:
            return
        p = min(maxpart, budget)
        if even_only and p % 2:
            p -= 1
        while p >= 2:
            rec(sig + (p,), p, budget - p)
            p -= 2 if even_only else 1

    rec((), d, d)
    return sorted(set(out), key=lambda s: (sum(s), len(s), s))


def build_basis(k: int, d: int, offset=Fraction(1), even_only: bool = True):
    """All (offset-P_(1))^a P_alpha with a+deg(alpha) <= d, deterministic order."""
    elems = []
    for alpha in _basis_signatures(k, d, even_only):
        for a in range(d - sum(alpha) + 1):
            elems.append(BasisElement(a, Signature(alpha), offset))
    elems.sort(key=lambda b: (b.degree, b.a, tuple(b.alpha)))
    return elems


#: the prime of the independence scan
SCAN_PRIME = 2**61 - 1


def _independent_columns(den: int, N):
    """Greedy symmetric LDL^T of the matrix N / den modulo SCAN_PRIME.

    The scan runs on the integer rows N mod p, scaling every pivot by den,
    and returns the kept column indices, in order: a column is kept when its
    pivot is nonzero mod p, so every kept principal minor is nonzero mod p
    and hence over Q, and the kept columns are independent.  A dependent
    column has pivot 0 over Q and so mod p; an independent one dropped by
    chance (a pivot divisible by p) only shrinks the basis.  A den divisible
    by p raises ValueError.
    """
    p = SCAN_PRIME
    if den % p == 0:
        raise ValueError("matrix denominator is divisible by the scan prime")
    keep: list = []
    L: list = []  # L[t][u], u < t, over the kept columns
    dinv: list = []
    for c, row in enumerate(N):
        w = []  # w[t] = L[c][t] * d[t]
        for t, kt in enumerate(keep):
            w.append((row[kt] - sum(map(mul, w, L[t]))) % p)
        lc = [x * y % p for x, y in zip(w, dinv)]
        pivot = (row[c] - sum(map(mul, w, lc))) % p
        if pivot:
            keep.append(c)
            L.append(lc)
            dinv.append(pow(pivot, -1, p))
    return keep


def _assemble(variant: Variant, k: int, d: int, even_only: bool, offset, m1_scale, m2_scale):
    """M1 and M2 by signature blocks, as integer rows over one denominator.

    For b_i = (offset - P_(1))^a_i P_alpha_i, M1[i][j] depends only on
    (alpha_i, alpha_j, a_i + a_j), and each slot image is a short sum of
    integer-weighted terms, so every entry is a sum of tabulated integers
    (symmpoly._TermTable) over a denominator fixed by the degrees, which
    divides the denominator of the highest degree.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if d < 0:
        raise ValueError("degree threshold must be >= 0")
    basis = build_basis(k, d, offset, even_only)
    n = len(basis)
    top = max(b.degree for b in basis)
    t1 = _TermTable(k, offset, m1_scale)
    den1 = t1.denominator(2 * top)
    scale = [den1 // t1.denominator(N) for N in range(2 * top + 1)]
    N1 = [[0] * n for _ in range(n)]
    for i, bi in enumerate(basis):
        for j in range(i, n):
            bj = basis[j]
            num = t1.product_numerator(bi.alpha, bj.alpha, bi.a + bj.a)
            N1[i][j] = N1[j][i] = num * scale[bi.degree + bj.degree]
    keep = _independent_columns(den1, N1)
    basis = [basis[i] for i in keep]
    N1 = [[N1[i][j] for j in keep] for i in keep]
    # the slot image of b_i is sum_(c, beta, w) w/(deg_i + 1)! (offset - P_(1))^c P_beta;
    # each w is put over (top + 1)!, so M2[i][j] is over (top + 1)!^2 t2.denominator(deg_i + deg_j + 2)
    fact = math.factorial
    slots = [
        [(c, beta, w * (fact(top + 1) // fact(b.degree + 1))) for c, beta, w in _slot_terms(b.a, b.alpha, k)]
        for b in basis
    ]
    t2 = _TermTable(k - 1, offset, m2_scale)
    den2 = fact(top + 1) ** 2 * t2.denominator(2 * top + 2)
    scale = [t2.denominator(2 * top + 2) // t2.denominator(N + 2) for N in range(2 * top + 1)]
    m = len(keep)
    N2 = [[0] * m for _ in range(m)]
    for i, bi in enumerate(basis):
        for j in range(i, m):
            bj = basis[j]
            num = sum(
                w * w2 * t2.product_numerator(beta, beta2, c + c2)
                for c, beta, w in slots[i]
                for c2, beta2, w2 in slots[j]
            )
            N2[i][j] = N2[j][i] = k * num * scale[bi.degree + bj.degree]
    return GramPair(variant, basis, (den1, N1), (den2, N2))


def assemble_plain(k: int, d: int, even_only: bool = True) -> GramPair:
    """Gram pair over the unit simplex in the affine polynomial basis.

    Candidate elements that are linearly dependent on earlier ones (possible
    once d exceeds k) are dropped, so M1 is always exactly positive definite.
    """
    return _assemble(Variant("plain", k), k, d, even_only, Fraction(1), Fraction(1), Fraction(1))


def assemble_eps(k: int, d: int, eps, even_only: bool = True) -> GramPair:
    """Gram pair for the enlarged-support variant.

    M1 integrates over the enlarged simplex (scale 1+eps); M2 slot-integrates
    over the full enlarged fiber but restricts the outer region to scale
    1-eps, matching the shrunk outer integration of the variant.
    """
    variant = Variant("eps", k, eps)  # 0 < eps < 1
    offset = 1 + variant.eps
    return _assemble(variant, k, d, even_only, offset, offset, 1 - variant.eps)


# ---------------------------------------------------------------------------
# certified lower bounds
# ---------------------------------------------------------------------------


#: certified bounds are rounded down onto this grid so files stay readable
C_GRID = 10**12


def gram_lower_bound(pair: GramPair) -> BoundCertificate:
    """Certified lower bound from a Gram pair.

    a is the proposal of solve_generalized; C is the exact Rayleigh
    quotient a^T M2 a / a^T M1 a rounded strictly down onto the 1/C_GRID
    grid, so a^T M2 a > C a^T M1 a holds by construction.
    """
    a = solve_generalized(pair)
    t1, t2 = forms = _quadratic_forms(pair, a)
    C = Fraction(math.floor(t2 / t1 * C_GRID), C_GRID)
    if C * t1 >= t2:
        C -= Fraction(1, C_GRID)
    return _check(pair, a, C, forms)[0]


# ---------------------------------------------------------------------------
# Krylov / Hankel method
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KrylovTable:
    """Exact moments of the slot-integration operator against 1."""

    k: int
    moments: tuple

    def __post_init__(self):
        moms = tuple(Fraction(m) for m in self.moments)
        if any(m <= 0 for m in moms):
            raise ValueError("moments must be positive")
        object.__setattr__(self, "moments", moms)


class _MomentStream:
    """Grow-on-demand moment sequence for one ambient dimension.

    The state is the iterate L^j 1 as integer numerators over one
    denominator, with the moments m_0 .. m_(j+1).  Integrating each slot's
    free fiber back over its own coordinate gives

        int_{R_k} L f = int_{R_k} (1 + (k-1)(1-P_(1))) f,

    so m_(j+1) = m_j + (k-1) int (1-P_(1)) L^j 1.  Every term of L^j 1 has
    total degree j, so by the Beta identity that integral is one rational
    over den * (j+1+k)!.  An order-n table takes 2n-2 applications of L:
    L^(2n-1) 1, the largest iterate, is never built.
    """

    def __init__(self, k: int):
        self.k = k
        self._terms, self._den, self._degree = {(0,): 1}, 1, 0
        self._moments = [Fraction(1, math.factorial(k))]
        # int (1-P_(1))^a P_alpha = a! times this over (a+|alpha|+k)!
        self._weight = functools.cache(lambda alpha: _beta_numerator(0, alpha, k))
        self._next_moment()

    def _next_moment(self):
        k, weight, j = self.k, self._weight, self._degree
        fact = list(itertools.accumulate(range(1, j + 2), mul, initial=1))
        total = sum(c * fact[key[0] + 1] * weight(key[1:]) for key, c in self._terms.items())
        step = Fraction((k - 1) * total, self._den * math.factorial(j + 1 + k))
        self._moments.append(self._moments[-1] + step)

    def upto(self, count: int):
        while len(self._moments) < count:
            self._terms, self._den = _apply_L_int(self._terms, self._den, self.k)
            self._degree += 1
            self._next_moment()
        return list(self._moments[:count])


#: one moment stream per ambient dimension
_stream = functools.cache(_MomentStream)


#: the last moment of an order-n table, int L^(2n-1) 1, has degree 2n-1 at
#: most this
KRYLOV_DEGREE_LIMIT = 199

#: L^(2n-1) 1 would have this many terms at most; the largest call accepted,
#: krylov_moments(3, 63), takes about 19 s and 100 MB on a 2-core Xeon
KRYLOV_TERM_LIMIT = 60_000


def _iterate_terms(k: int, degree: int) -> int:
    """Number of terms of L^degree 1 in k variables.

    Each (a, alpha) with a + |alpha| = degree and at most k parts in alpha
    has a nonzero coefficient, so the count is the sum over j <= degree of
    the partitions of j into at most k parts (by conjugation, into parts
    of size at most k).
    """
    p = [1] + [0] * degree
    for part in range(1, min(k, degree) + 1):
        for j in range(part, degree + 1):
            p[j] += p[j - part]
    return sum(p)


def krylov_moments(k: int, n: int) -> KrylovTable:
    """The 2n exact moments needed for the order-n Hankel pair."""
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    if 2 * n - 1 > KRYLOV_DEGREE_LIMIT:
        raise ValueError(
            f"degree cap exceeded: order {n} needs degree {2 * n - 1} "
            f"> {KRYLOV_DEGREE_LIMIT}"
        )
    # both caps count degree 2n-1, one past L^(2n-2) 1, the last iterate the
    # stream builds: they refuse the calls they refused when it built L^(2n-1) 1
    terms = _iterate_terms(k, 2 * n - 1)
    if terms > KRYLOV_TERM_LIMIT:
        raise ValueError(
            f"term cap exceeded: order {n} at k = {k} needs {terms} terms "
            f"in L^{2 * n - 1} 1 > {KRYLOV_TERM_LIMIT}"
        )
    return KrylovTable(k, tuple(_stream(k).upto(2 * n)))


def hankel_pair(table: KrylovTable, n: int) -> GramPair:
    """Hankel Gram pair from a moment table (basis = iterated images of 1),
    both matrices over the lcm of the moments' denominators."""
    mom = table.moments
    if len(mom) < 2 * n:
        raise ValueError("not enough moments for this order")
    den = math.lcm(*(x.denominator for x in mom[: 2 * n]))
    H = [x.numerator * (den // x.denominator) for x in mom[: 2 * n]]
    M1 = [[H[i + j] for j in range(n)] for i in range(n)]
    M2 = [[H[i + j + 1] for j in range(n)] for i in range(n)]
    basis = tuple(BasisElement(0, Signature()) for _ in range(n))  # positional only
    return GramPair(Variant("plain", table.k), basis, (den, M1), (den, M2))


def krylov_lower_bound(k: int, n: int) -> BoundCertificate:
    """Certified lower bound for the plain variational quantity, order n."""
    return gram_lower_bound(hankel_pair(krylov_moments(k, n), n))


# ---------------------------------------------------------------------------
# certificate files
# ---------------------------------------------------------------------------


#: the bases a certificate can name: even or full signatures, or Krylov
BASIS_KINDS = ("even", "full", "krylov")


def _check_basis_kind(basis_kind) -> None:
    if basis_kind not in BASIS_KINDS:
        raise ValueError(f"certificate field basis={basis_kind!r} is not one of {', '.join(BASIS_KINDS)}")


def certificate_pair(variant: Variant, d: int, basis_kind: str, n=None) -> GramPair:
    """The Gram pair a certificate names: the even- or full-signature basis
    of degree <= d for the variant, or the order-n Hankel pair of a plain
    Krylov bound (d unused).  Certification and verify_certificate_file
    both build the pair here."""
    _check_basis_kind(basis_kind)
    if basis_kind == "krylov":
        if variant.kind != "plain":
            raise ValueError("krylov certificates are plain-variant only")
        return hankel_pair(krylov_moments(variant.k, n), n)
    even_only = basis_kind == "even"
    if variant.kind == "plain":
        return assemble_plain(variant.k, d, even_only)
    return assemble_eps(variant.k, d, variant.eps, even_only)


#: a rational read from text has a numerator and denominator below this, so
#: that int's default limit prints them (10^4300 is about 14,300 bits)
_DIGITS_LIMIT = 10**MAX_DIGITS


def read_rational(text: str, name: str) -> Fraction:
    """Fraction(text) for the option or field called name.

    Refuses, with a one-line ValueError that names it, a text that is no
    rational or whose decimal exponent exceeds MAX_DIGITS in magnitude,
    before Fraction builds a power of ten that large.  It also refuses a
    value whose numerator or denominator has more than MAX_DIGITS digits,
    which int's default limit would not print.
    """
    _, e, exponent = text.lower().partition("e")
    try:
        too_wide = bool(e) and abs(int(exponent)) > MAX_DIGITS
    except ValueError:
        too_wide = False  # a malformed exponent: Fraction refuses it below
    if too_wide:
        raise ValueError(
            f"{name}={text.strip()!r} has a decimal exponent past {MAX_DIGITS} in magnitude"
        )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name}={text.strip()!r} is not parsable") from None
    if max(abs(value.numerator), value.denominator) >= _DIGITS_LIMIT:
        raise ValueError(
            f"{name}={text.strip()!r} has a numerator or denominator of more than {MAX_DIGITS} digits"
        )
    return value


def read_field(text: str, name: str, parse):
    """parse(text) for the file field called name.  A Fraction is read by
    read_rational and an int by admissible.read_int; any other parse that
    fails gives one ValueError naming the field."""
    if parse is Fraction:
        return read_rational(text, name)
    try:
        return (read_int if parse is int else parse)(text)
    except (ValueError, ArithmeticError):
        raise ValueError(f"{name}={text.strip()!r} is not parsable") from None


def write_certificate(path, cert: BoundCertificate, d: int, basis_kind: str = "even") -> None:
    """Text format: variant, k, d, optional eps, basis kind, C, then a[i]."""
    _check_basis_kind(basis_kind)
    with open(path, "w") as fh:
        fh.write(f"variant {cert.variant.kind}\n")
        fh.write(f"k {cert.variant.k}\n")
        fh.write(f"d {d}\n")
        if cert.variant.kind == "eps":
            fh.write(f"eps {cert.variant.eps}\n")
        fh.write(f"basis {basis_kind}\n")
        fh.write(f"C = {cert.C}\n")
        for i, ai in enumerate(cert.a):
            fh.write(f"a[{i}] = {ai}\n")


def read_certificate(path):
    """Parse a certificate file; returns (variant, d, basis_kind, C, a).

    Raises a one-line ValueError naming the field that is missing,
    repeated, not parsable or (for basis) not one of BASIS_KINDS.
    """
    fields = {}
    coeffs = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("a[") and "=" in line:
                name, text = (part.strip() for part in line.split("=", 1))
                label = f"certificate field {name}"
                table, key = coeffs, read_field(name[2:-1] if name.endswith("]") else name, label, int)
                value = read_field(text, label, Fraction)
            elif line.startswith("C") and "=" in line:
                table, key = fields, "C"
                name, value = key, read_field(line.split("=", 1)[1], "certificate field C", Fraction)
            else:
                name, _, text = line.partition(" ")
                table, key, value = fields, name, text.strip()
            if key in table:
                raise ValueError(f"certificate file repeats the {name} line")
            table[key] = value
    if "C" not in fields or not coeffs:
        raise ValueError("certificate file is missing C or coefficients")
    missing = [key for key in ("k", "d", "variant") if key not in fields]
    if missing:
        raise ValueError(f"certificate file is missing the {', '.join(missing)} line")
    if sorted(coeffs) != list(range(len(coeffs))):
        raise ValueError(f"coefficient indices must be a[0] .. a[{len(coeffs) - 1}]")
    k = read_field(fields["k"], "certificate field k", int)
    d = read_field(fields["d"], "certificate field d", int)
    kind = fields["variant"]
    eps = read_field(fields["eps"], "certificate field eps", Fraction) if "eps" in fields else None
    variant = Variant(kind, k, eps)
    basis_kind = fields.get("basis", "even")
    _check_basis_kind(basis_kind)
    a = tuple(coeffs[i] for i in range(len(coeffs)))
    return variant, d, basis_kind, fields["C"], a


def verify_certificate_file(path):
    """Rebuild the Gram pair named by the file and re-check exactly.

    Returns (certificate, exact margin a^T M2 a - C a^T M1 a).
    """
    variant, d, basis_kind, C, a = read_certificate(path)
    return _check(certificate_pair(variant, d, basis_kind, len(a)), a, C)
