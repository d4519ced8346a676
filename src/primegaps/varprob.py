"""Quadratic-form matrices for the variational sieve problems and exact
lower-bound certificates.

The two quadratic forms are assembled in a basis of symmetric polynomials
b_i; M1 carries the L^2 inner products and M2 the slot-integrated products,
so that a vector a with

    a^T M2 a - C a^T M1 a > 0        (exact rational arithmetic)

certifies a lower bound C for the corresponding variational quantity
(plain simplex variant, or the enlarged/shrunk epsilon variant).  Every
bound, Gram or Krylov, takes one path: floating point proposes a, and C is
the exact Rayleigh quotient of a rounded strictly down, so the inequality
holds by construction and is re-checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .rational import Q, parse_rational, rational_str
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
    "write_certificate",
    "read_certificate",
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
            e = Q(self.eps)
            if not 0 < e < 1:
                raise ValueError("eps must lie in (0, 1)")
            object.__setattr__(self, "eps", e)
        elif self.eps is not None:
            raise ValueError("plain variant takes no eps")

    def __str__(self):
        if self.kind == "plain":
            return f"plain({self.k})"
        return f"eps({self.k}, {rational_str(self.eps)})"


@dataclass(frozen=True)
class BasisElement:
    """(offset - P_(1))^a * P_alpha with alpha free of parts equal to 1."""

    a: int
    alpha: Signature
    offset: object = Q(1)

    def __post_init__(self):
        object.__setattr__(self, "alpha", Signature(self.alpha))
        object.__setattr__(self, "offset", Q(self.offset))
        if self.a < 0:
            raise ValueError("affine exponent must be non-negative")
        if self.alpha.has_one:
            raise ValueError("basis signatures may not contain a part equal to 1")

    @property
    def degree(self) -> int:
        return self.a + self.alpha.degree


class GramPair:
    """Pair of exact symmetric rational matrices (M1, M2) over a basis."""

    __slots__ = ("variant", "basis", "M1", "M2", "_m1_factor", "_integer_forms")

    def __init__(self, variant: Variant, basis, M1, M2):
        self.variant = variant
        self.basis = tuple(basis)
        self.M1 = tuple(tuple(Q(x) for x in row) for row in M1)
        self.M2 = tuple(tuple(Q(x) for x in row) for row in M2)
        n = len(self.basis)
        for M in (self.M1, self.M2):
            if len(M) != n or any(len(row) != n for row in M):
                raise ValueError("matrix sizes must match the basis")
            for i in range(n):
                for j in range(i):
                    if M[i][j] != M[j][i]:
                        raise ValueError("matrices must be exactly symmetric")
        self._m1_factor = None
        self._integer_forms = None

    @property
    def n(self) -> int:
        return len(self.basis)

    def m1_ldl(self):
        """Exact LDL^T factorization (L, d) of M1; see _ldl for the layout.

        Raises ValueError when M1 is not positive definite; doubles as the
        exact positive-definiteness check.  An assembled pair carries the
        factor of its assembly, so M1 is factored once.
        """
        if self._m1_factor is None:
            keep, L, d = _ldl(self.M1, self.n)
            if len(keep) < self.n:
                raise ValueError("M1 not positive definite")
            self._m1_factor = L, d
        return self._m1_factor

    def integer_forms(self):
        """((den1, N1), (den2, N2)): M = N / den with N integer rows, den the
        least common denominator of the entries of M."""
        if self._integer_forms is None:
            self._integer_forms = tuple(_over_common_denominator(M) for M in (self.M1, self.M2))
        return self._integer_forms


def _over_common_denominator(M):
    den = math.lcm(*(x.denominator for row in M for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in M]


def _ldl(A, n):
    """Exact LDL^T of the columns of A that are independent, greedy in order.

    Returns (keep, L, d): keep lists the kept column indices; row i of L
    holds the below-diagonal entries L[i][0..i-1] of the unit lower
    triangular factor over the kept columns, and d the positive pivots.
    Pivots are exact rationals, so a column whose pivot is not positive is
    skipped: for a positive semidefinite A it lies in the span of the kept
    ones.  (Past degree k the affine basis family is genuinely dependent.)
    """
    keep: list = []
    L: list = []
    d: list = []
    for c in range(n):
        row = A[c]
        coeffs = []
        for t, kt in enumerate(keep):
            s = row[kt]
            Lt = L[t]
            for u in range(t):
                s -= coeffs[u] * Lt[u] * d[u]
            coeffs.append(s / d[t])
        pivot = row[c]
        for t in range(len(keep)):
            pivot -= coeffs[t] * coeffs[t] * d[t]
        if pivot > 0:
            keep.append(c)
            L.append(coeffs)
            d.append(pivot)
    return keep, L, d


def _forward_solve(L, B):
    """Solve L X = B for unit lower triangular L (B is a list of rows)."""
    X = [list(row) for row in B]
    for i, Li in enumerate(L):
        Xi = X[i]
        for t, lit in enumerate(Li):
            if lit != 0:
                Xt = X[t]
                for j in range(len(Xi)):
                    Xi[j] = Xi[j] - lit * Xt[j]
    return X


def _reduced_form(pair: GramPair):
    """R = L^-1 M2 L^-T and the LDL data of M1, all exact.

    The second solve, L^-1 (L^-1 M2)^T, is already R: M2 is symmetric.
    """
    n = pair.n
    L, d = pair.m1_ldl()
    X = _forward_solve(L, pair.M2)
    R = _forward_solve(L, [[X[j][i] for j in range(n)] for i in range(n)])
    return L, d, R


def _inv_sqrt_rational(q) -> Q:
    """Rational approximation of 1/sqrt(q) to ~38 digits, exact arithmetic."""
    scale = 10**38
    num, den = int(q.numerator), int(q.denominator)
    return Q(isqrt(den * scale * scale // num), scale)


def _reduced_matrix_float(R, d, n) -> tuple:
    """D^-1/2 R D^-1/2 in float64, each entry rounded once from the exact value."""
    invs = [_inv_sqrt_rational(x) for x in d]
    S = np.array([[float(R[i][j] * invs[i] * invs[j]) for j in range(n)] for i in range(n)])
    return S, invs


def solve_generalized(pair: GramPair) -> tuple:
    """Exact proposal a for the largest generalized eigenvalue of (M2, M1).

    M1 = L D L^T is factored exactly and M2 reduced to R = L^-1 M2 L^-T;
    float64 solves the symmetric problem D^-1/2 R D^-1/2, and its top
    eigenvector v is mapped back by the exact back-solve
    L^T a = D^-1/2 v.  The proposal is advisory: certification is exact.
    """
    n = pair.n
    L, d, R = _reduced_form(pair)
    S, invs = _reduced_matrix_float(R, d, n)
    _, V = np.linalg.eigh(S)
    y = [Q(float(x)) * inv for x, inv in zip(V[:, -1], invs)]
    return tuple(_back_solve_transpose(L, y))


def _back_solve_transpose(L, y):
    """Solve L^T a = y for unit lower triangular L (exact)."""
    n = len(y)
    a = list(y)
    for i in range(n - 1, -1, -1):
        s = a[i]
        for j in range(i + 1, n):
            s -= L[j][i] * a[j]
        a[i] = s
    return a


@dataclass(frozen=True)
class BoundCertificate:
    """Exactly verified statement a^T M2 a > C a^T M1 a (with a^T M1 a > 0)."""

    variant: Variant
    a: tuple
    C: object
    verified: bool

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(Q(x) for x in self.a))
        object.__setattr__(self, "C", Q(self.C))


def _quadratic_forms(pair: GramPair, a):
    """Exact (a^T M1 a, a^T M2 a), summed in integers.

    a is put over the lcm l of its denominators, a = A / l, and each M over
    its common denominator, M = N / den, so a^T M a = A^T N A / (den l^2).
    """
    n = pair.n
    if len(a) != n:
        raise ValueError("coefficient vector length must match the basis")
    a = [Q(x) for x in a]
    lcm = math.lcm(*(x.denominator for x in a))
    A = [x.numerator * (lcm // x.denominator) for x in a]
    support = [i for i in range(n) if A[i]]
    out = []
    for den, N in pair.integer_forms():
        total = 0
        for i in support:
            row = N[i]
            total += A[i] * sum(row[j] * A[j] for j in support)
        out.append(Q(total, den * lcm * lcm))
    return tuple(out)


def _check(pair: GramPair, a, C, forms=None):
    """The exact check a^T M2 a - C a^T M1 a > 0 with a^T M1 a > 0.

    Returns (certificate, margin); forms, when given, are the already
    computed _quadratic_forms(pair, a).
    """
    a = tuple(Q(x) for x in a)
    C = Q(C)
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


def build_basis(k: int, d: int, offset=Q(1), even_only: bool = True):
    """All (offset-P_(1))^a P_alpha with a+deg(alpha) <= d, deterministic order."""
    elems = []
    for alpha in _basis_signatures(k, d, even_only):
        for a in range(d - sum(alpha) + 1):
            elems.append(BasisElement(a, Signature(alpha), offset))
    elems.sort(key=lambda b: (b.degree, b.a, tuple(b.alpha)))
    return elems


def _assemble(variant: Variant, k: int, d: int, even_only: bool, offset, m1_scale, m2_scale):
    """M1 and M2 by signature blocks, each entry one integer numerator.

    For b_i = (offset - P_(1))^a_i P_alpha_i, M1[i][j] depends only on
    (alpha_i, alpha_j, a_i + a_j), and each slot image is a short sum of
    integer-weighted terms, so every entry is a sum of tabulated integers
    (symmpoly._TermTable) over one denominator fixed by the degrees.
    """
    basis = build_basis(k, d, offset, even_only)
    n = len(basis)
    fact = math.factorial
    t1 = _TermTable(k, offset, m1_scale)
    M1 = [[Q(0)] * n for _ in range(n)]
    for i, bi in enumerate(basis):
        for j in range(i, n):
            bj = basis[j]
            num = t1.product_numerator(bi.alpha, bj.alpha, bi.a + bj.a)
            M1[i][j] = M1[j][i] = Q(num, t1.denominator(bi.degree + bj.degree))
    keep, L, ld = _ldl(M1, n)
    basis = [basis[i] for i in keep]
    M1 = [[M1[i][j] for j in keep] for i in keep]
    # the slot image of b_i is sum_(c, beta, w) w/(deg_i + 1)! (offset - P_(1))^c P_beta
    t2 = _TermTable(k - 1, offset, m2_scale)
    slots = [_slot_terms(b.a, b.alpha, k) for b in basis]
    m = len(keep)
    M2 = [[Q(0)] * m for _ in range(m)]
    for i, bi in enumerate(basis):
        for j in range(i, m):
            bj = basis[j]
            num = sum(
                w * w2 * t2.product_numerator(beta, beta2, c + c2)
                for c, beta, w in slots[i]
                for c2, beta2, w2 in slots[j]
            )
            den = fact(bi.degree + 1) * fact(bj.degree + 1) * t2.denominator(bi.degree + bj.degree + 2)
            M2[i][j] = M2[j][i] = Q(k * num, den)
    pair = GramPair(variant, basis, M1, M2)
    pair._m1_factor = L, ld
    return pair


def assemble_plain(k: int, d: int, even_only: bool = True) -> GramPair:
    """Gram pair over the unit simplex in the affine polynomial basis.

    Candidate elements that are linearly dependent on earlier ones (possible
    once d exceeds k) are dropped, so M1 is always exactly positive definite.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if d < 0:
        raise ValueError("degree threshold must be >= 0")
    return _assemble(Variant("plain", k), k, d, even_only, Q(1), Q(1), Q(1))


def assemble_eps(k: int, d: int, eps, even_only: bool = True) -> GramPair:
    """Gram pair for the enlarged-support variant.

    M1 integrates over the enlarged simplex (scale 1+eps); M2 slot-integrates
    over the full enlarged fiber but restricts the outer region to scale
    1-eps, matching the shrunk outer integration of the variant.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    eps = Q(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    offset = 1 + eps
    return _assemble(Variant("eps", k, eps), k, d, even_only, offset, offset, 1 - eps)


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
    C = Q(math.floor(t2 / t1 * C_GRID), C_GRID)
    if C * t1 >= t2:
        C -= Q(1, C_GRID)
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
        moms = tuple(Q(m) for m in self.moments)
        if any(m <= 0 for m in moms):
            raise ValueError("moments must be positive")
        object.__setattr__(self, "moments", moms)


class _MomentStream:
    """Grow-on-demand moment sequence for one ambient dimension.

    The state is the current iterate L^j 1 as integer numerators over one
    denominator.  Every term of L^j 1 has total degree j, so by the Beta
    identity its integral over R_k is one rational with denominator
    den * (j+k)!.
    """

    def __init__(self, k: int):
        self.k = k
        self._terms, self._den, self._degree = {(0,): 1}, 1, 0
        self._moments = [self._moment()]

    def _moment(self) -> Q:
        k = self.k
        total = sum(c * _beta_numerator(key[0], key[1:], k) for key, c in self._terms.items())
        return Q(total, self._den * math.factorial(self._degree + k))

    def upto(self, count: int):
        while len(self._moments) < count:
            self._terms, self._den = _apply_L_int(self._terms, self._den, self.k)
            self._degree += 1
            self._moments.append(self._moment())
        return list(self._moments[:count])


_moment_streams: dict = {}


def _stream(k: int) -> _MomentStream:
    st = _moment_streams.get(k)
    if st is None:
        st = _moment_streams[k] = _MomentStream(k)
    return st


#: iterated images of 1 reach this total degree at most (memory guard)
KRYLOV_DEGREE_LIMIT = 199


def krylov_moments(k: int, n: int) -> KrylovTable:
    """The 2n exact moments needed for the order-n Hankel pair."""
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    if 2 * n - 1 > KRYLOV_DEGREE_LIMIT:
        raise ValueError(
            f"degree cap exceeded: order {n} needs degree {2 * n - 1} "
            f"> {KRYLOV_DEGREE_LIMIT}"
        )
    return KrylovTable(k, tuple(_stream(k).upto(2 * n)))


def hankel_pair(table: KrylovTable, n: int) -> GramPair:
    """Hankel Gram pair from a moment table (basis = iterated images of 1)."""
    mom = table.moments
    if len(mom) < 2 * n:
        raise ValueError("not enough moments for this order")
    M1 = [[mom[i + j] for j in range(n)] for i in range(n)]
    M2 = [[mom[i + j + 1] for j in range(n)] for i in range(n)]
    basis = tuple(BasisElement(0, Signature()) for _ in range(n))  # positional only
    return GramPair(Variant("plain", table.k), basis, M1, M2)


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


def _parse_field(name: str, text: str, parse):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"certificate field {name}={text.strip()!r} is not parsable") from None


def write_certificate(path, cert: BoundCertificate, d: int, basis_kind: str = "even") -> None:
    """Text format: variant, k, d, optional eps, basis kind, C, then a[i]."""
    _check_basis_kind(basis_kind)
    with open(path, "w") as fh:
        fh.write(f"variant {cert.variant.kind}\n")
        fh.write(f"k {cert.variant.k}\n")
        fh.write(f"d {d}\n")
        if cert.variant.kind == "eps":
            fh.write(f"eps {rational_str(cert.variant.eps)}\n")
        fh.write(f"basis {basis_kind}\n")
        fh.write(f"C = {rational_str(cert.C)}\n")
        for i, ai in enumerate(cert.a):
            fh.write(f"a[{i}] = {rational_str(ai)}\n")


def read_certificate(path):
    """Parse a certificate file; returns (variant, d, basis_kind, C, a).

    Raises a one-line ValueError naming the field that is missing, not
    parsable or (for basis) not one of BASIS_KINDS.
    """
    fields = {}
    coeffs = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("a[") and "=" in line:
                name, value = (part.strip() for part in line.split("=", 1))
                idx = _parse_field(name, name[2:-1] if name.endswith("]") else name, int)
                coeffs[idx] = _parse_field(name, value, parse_rational)
            elif line.startswith("C") and "=" in line:
                fields["C"] = _parse_field("C", line.split("=", 1)[1], parse_rational)
            else:
                key, _, value = line.partition(" ")
                fields[key] = value.strip()
    if "C" not in fields or not coeffs:
        raise ValueError("certificate file is missing C or coefficients")
    missing = [key for key in ("k", "d", "variant") if key not in fields]
    if missing:
        raise ValueError(f"certificate file is missing the {', '.join(missing)} line")
    if sorted(coeffs) != list(range(len(coeffs))):
        raise ValueError(f"coefficient indices must be a[0] .. a[{len(coeffs) - 1}]")
    k = _parse_field("k", fields["k"], int)
    d = _parse_field("d", fields["d"], int)
    kind = fields["variant"]
    eps = _parse_field("eps", fields["eps"], parse_rational) if "eps" in fields else None
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
    if basis_kind == "krylov":
        if variant.kind != "plain":
            raise ValueError("krylov certificates are plain-variant only")
        pair = hankel_pair(krylov_moments(variant.k, len(a)), len(a))
    elif variant.kind == "plain":
        pair = assemble_plain(variant.k, d, even_only=(basis_kind != "full"))
    else:
        pair = assemble_eps(variant.k, d, variant.eps, even_only=(basis_kind != "full"))
    return _check(pair, a, C)
