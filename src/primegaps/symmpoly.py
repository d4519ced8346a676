"""Exact symmetric-polynomial algebra over Q in k variables.

A polynomial is a dict mapping (a, *alpha) to the rational coefficient of
the term (offset - P_(1))^a * P_alpha.  Here P_alpha is the monomial
symmetric function of the signature alpha (a non-increasing tuple of
positive integers) and P_(1) = t_1 + ... + t_k.  This affine form is the
only representation: every basis element of the variational problems is
one such term, and the slot-integration operator L (sum over coordinate
slots of integration over the free fiber of the unit simplex) maps the
form to itself without re-expanding powers of P_(1).

Products use cached integer structure constants, counted by placing the
parts of one signature on the parts and free slots of the other; integrals
over scaled simplices reduce termwise to the Beta-function identity

    int_{R_k} (1-t_1-...-t_k)^a t_1^{a_1}...t_k^{a_k} dt
        = a! a_1! ... a_k! / (a_1+...+a_k+k+a)!

so every operation here is exact rational arithmetic (no floats).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Signature",
    "affine_multiply",
    "affine_integral",
    "affine_slot_integral",
    "affine_apply_L",
]


class Signature(tuple):
    """Non-increasing tuple of positive integers indexing P_alpha."""

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError("signature parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("signature parts must be non-increasing")
        return super().__new__(cls, parts)

    @property
    def degree(self) -> int:
        return sum(self)

    @property
    def has_one(self) -> bool:
        return bool(self) and self[-1] == 1


def _perm_count(alpha: tuple, k: int) -> int:
    """Distinct exponent vectors of length k with signature alpha."""
    if len(alpha) > k:
        return 0
    denom = run = 1
    for i, p in enumerate(alpha):
        run = run + 1 if i and alpha[i - 1] == p else 1
        denom *= run
    return math.perm(k, len(alpha)) // denom


@lru_cache(maxsize=None)
def _struct_constants(alpha: tuple, beta: tuple, k: int) -> tuple:
    """P_alpha * P_beta = sum_gamma c * P_gamma; returns ((gamma, c), ...).

    Counting: fix one exponent vector of alpha and place the parts of beta
    one distinct value at a time, on parts of alpha not yet joined or on
    free slots.  x equal parts landing on r equal open places do so in
    C(r, x) ways, so the number of exponent vectors b giving signature
    gamma is a sum of products of binomials, and c = count * #alpha /
    #gamma (# counting exponent vectors).  The constants do not depend on k
    once k >= len(alpha) + len(beta) (Macdonald, Symmetric Functions,
    ch. I), so callers pass min(k, len(alpha) + len(beta)).
    """
    na = _perm_count(alpha, k)
    if na == 0 or _perm_count(beta, k) == 0:
        return ()
    # open places grouped by the part of alpha they hold (0: the free slots);
    # a state maps (open places per group, parts formed) to its placements
    values = sorted(set(alpha)) + [0]
    states = {(tuple(alpha.count(v) for v in values[:-1]) + (k - len(alpha),), ()): 1}
    for v in sorted(set(beta)):
        x, nxt = beta.count(v), {}
        for (open_, formed), count in states.items():
            for taken in itertools.product(*(range(min(r, x) + 1) for r in open_)):
                if sum(taken) == x:
                    parts = formed + tuple(p + v for p, s in zip(values, taken) for _ in range(s))
                    key = (tuple(map(operator.sub, open_, taken)), tuple(sorted(parts)))
                    nxt[key] = nxt.get(key, 0) + count * math.prod(map(math.comb, open_, taken))
        states = nxt
    buckets: dict = {}
    for (open_, formed), count in states.items():
        rest = tuple(p for p, r in zip(values, open_) for _ in range(r) if p)
        gamma = tuple(sorted(formed + rest, reverse=True))
        buckets[gamma] = buckets.get(gamma, 0) + count
    out = []
    for gamma, count in sorted(buckets.items()):
        c, rem = divmod(count * na, _perm_count(gamma, k))
        assert rem == 0
        out.append((gamma, c))
    return tuple(out)


def _beta_numerator(a: int, alpha: tuple, k: int) -> int:
    """a! alpha_1! ... times the number of exponent vectors of alpha.

    By the Beta identity, int_{R_k} (1-P_(1))^a P_alpha is this integer
    over (a + |alpha| + k)!.
    """
    out = math.factorial(a) * _perm_count(alpha, k)
    for p in alpha:
        out *= math.factorial(p)
    return out


class _TermTable:
    """Integer numerators of the term integrals over one scaled simplex.

    int_{scale*R_k} (offset - P_(1))^a P_alpha, a term of total degree
    N = a + |alpha|, is numerator(a, alpha) / denominator(N).  Substituting
    t = scale*u gives shift + scale*(1 - P_(1)(u)) for the affine factor,
    shift = offset - scale; with shift = P/D and scale = U/D over one
    denominator D, expanding binomially and applying the Beta identity to
    each power gives

        numerator = B U^(|alpha|+k) sum_j a!/(a-j)! (N+k)!/(|alpha|+k+j)! P^(a-j) U^j
        denominator = D^(N+k) (N+k)!

    with B = _beta_numerator(0, alpha, k).  Each numerator is computed once.
    """

    def __init__(self, k: int, offset=Fraction(1), scale=Fraction(1)):
        scale = Fraction(scale)
        shift = Fraction(offset) - scale
        self.k = k
        self.D = math.lcm(shift.denominator, scale.denominator)
        self.P = shift.numerator * (self.D // shift.denominator)
        self.U = scale.numerator * (self.D // scale.denominator)
        self._terms: dict = {}
        self._products: dict = {}

    def denominator(self, N: int) -> int:
        return self.D ** (N + self.k) * math.factorial(N + self.k)

    def numerator(self, a: int, alpha: tuple) -> int:
        key = (a, alpha)
        out = self._terms.get(key)
        if out is None:
            k, P, U = self.k, self.P, self.U
            top = a + sum(alpha) + k
            perm = math.perm
            # P = 0 keeps only j = a, as 0**0 == 1
            total = sum(perm(a, j) * perm(top, a - j) * P ** (a - j) * U**j for j in range(a + 1))
            out = self._terms[key] = _beta_numerator(0, alpha, k) * U ** (top - a) * total
        return out

    def product_numerator(self, alpha: tuple, beta: tuple, a: int) -> int:
        """Numerator of int (offset - P_(1))^a P_alpha P_beta, over
        denominator(a + |alpha| + |beta|): the structure constants of
        P_alpha P_beta against the term numerators."""
        key = (alpha, beta, a) if alpha <= beta else (beta, alpha, a)
        out = self._products.get(key)
        if out is None:
            consts = _struct_constants(alpha, beta, min(self.k, len(alpha) + len(beta)))
            out = self._products[key] = sum(c * self.numerator(a, gamma) for gamma, c in consts)
        return out


# ---------------------------------------------------------------------------
# operations on the affine form
# ---------------------------------------------------------------------------


def _strip_candidates(alpha: tuple, k: int):
    """Exponents m available on a single slot: distinct parts, plus 0 when
    some slot is unused."""
    for i, m in enumerate(alpha):
        if i == 0 or alpha[i - 1] != m:  # alpha is non-increasing
            yield m, alpha[:i] + alpha[i + 1 :]
    if len(alpha) < k:
        yield 0, alpha


def _apply_L_int(terms: dict, den: int, k: int) -> tuple:
    """One application of L to integer numerators over the denominator den.

    With D the highest total degree a+|alpha| in terms, every weight
    a!m!/(a+m+1)! of affine_apply_L has a+m+1 <= D+1, so scaling by
    (D+1)! makes the step integer multiply-adds.  The step is L = R S:
    S strips each exponent m (a distinct part of alpha, or 0 when a slot
    is free) from each term and adds its slot weight coeff a! m! (D+1)!/c!
    into one accumulator per slot image (1-s)^c P_beta, c = a+m+1.  R
    expands each nonzero accumulator once: (1-s)^c = sum_r C(c,r)
    (1-P_(1))^(c-r) t_i^r, and t_i^r joins beta as a part r, counted by
    the multiplicity of r in the new signature (r = 0 needs one of the
    k - len(beta) free slots).  As r grows, the new part moves left past
    every part of beta not above it, so one pointer finds its place and
    the parts equal to it.  The factorials and binomial rows are tables of
    the step.  Returns the image as (terms, den), reduced once by the gcd
    of den and every numerator.
    """
    top = max((key[0] + sum(key[1:]) for key in terms), default=0) + 1
    fact = list(itertools.accumulate(range(1, top + 1), operator.mul, initial=1))
    weight = [fact[top] // f for f in fact]  # (D+1)!/c!
    binom = [[math.comb(c, r) for r in range(c + 1)] for c in range(top + 1)]
    slots: dict = {}
    get = slots.get
    for key, coeff in terms.items():
        a, n = key[0], len(key) - 1
        coeff *= fact[a]
        prev = 0
        for i in range(1, n + 1):  # each distinct part m of the non-increasing alpha
            m = key[i]
            if m != prev:
                prev, c = m, a + m + 1
                slot = (key[1:i] + key[i + 1 :], c)
                slots[slot] = get(slot, 0) + coeff * fact[m] * weight[c]
        if n < k:
            slot = (key[1:], a + 1)
            slots[slot] = get(slot, 0) + coeff * weight[a + 1]
    out: dict = {}
    get = out.get
    for (beta, c), w in slots.items():
        if not w:
            continue
        n, row = len(beta), binom[c]
        if n < k:
            okey = (c,) + beta
            out[okey] = get(okey, 0) + w * (k - n)
        i = n  # beta[i:] holds the parts <= r
        for r in range(1, c + 1):
            while i and beta[i - 1] <= r:
                i -= 1
            j = i
            while j < n and beta[j] == r:
                j += 1
            okey = (c - r,) + beta[:i] + (r,) + beta[i:]
            out[okey] = get(okey, 0) + w * row[r] * (j - i + 1)
    den *= fact[top]
    g = math.gcd(den, *out.values())  # zero numerators leave the gcd as it is
    return {key: v // g for key, v in out.items() if v}, den // g


def affine_apply_L(terms: dict, k: int) -> dict:
    """One application of the slot-integration operator in affine form.

    For a term (1-P_(1))^a P_alpha, integrating slot i over its free fiber
    gives sum_m a!m!/(a+m+1)! (1-s)^(a+m+1) P_{alpha \\ m} in the other
    variables (s their sum); re-symmetrizing expands (1-s)^c = sum_r
    C(c,r) (1-P_(1))^(c-r) t_i^r and merges t_i^r into the signature.
    The arithmetic is _apply_L_int's, over the common denominator of terms.
    """
    coeffs = [Fraction(v) for v in terms.values()]
    den = math.lcm(*(int(v.denominator) for v in coeffs))
    ints = {key: int(v.numerator) * (den // int(v.denominator)) for key, v in zip(terms, coeffs)}
    out, den = _apply_L_int(ints, den, k)
    return {key: Fraction(v, den) for key, v in out.items()}


def _slot_terms(a: int, alpha: tuple, k: int) -> list:
    """(c, beta, w) of the slot integral of (offset - P_(1))^a P_alpha.

    Integrating one slot over its full fiber gives sum_m a!m!/(a+m+1)!
    (offset - P_(1))^(a+m+1) P_{alpha \\ m} in k-1 variables; w is that
    weight times (a + |alpha| + 1)!, an integer since a+m+1 <= a+|alpha|+1.
    """
    fact = math.factorial
    top = fact(a + sum(alpha) + 1)
    return [
        (a + m + 1, beta, top // fact(a + m + 1) * fact(a) * fact(m))
        for m, beta in _strip_candidates(alpha, k)
        if len(beta) <= k - 1
    ]


def affine_slot_integral(terms: dict, k: int) -> dict:
    """Integrate one slot over the full fiber, landing in k-1 variables.

    Works for any offset c: (c - P_(1)) restricted to slot t equals
    (c - s) - t, so the same a!m!/(a+m+1)! rule applies and the offset is
    unchanged.  Requires k >= 2.
    """
    out: dict = {}
    for key, coeff in terms.items():
        a, alpha = key[0], key[1:]
        top = math.factorial(a + sum(alpha) + 1)
        for c, beta, w in _slot_terms(a, alpha, k):
            out[(c,) + beta] = out.get((c,) + beta, 0) + coeff * Fraction(w, top)
    return {key: v for key, v in out.items() if v != 0}


def affine_multiply(t1: dict, t2: dict, k: int) -> dict:
    """Product of two affine-form polynomials with a common offset."""
    out: dict = {}
    for key1, c1 in t1.items():
        a1, alpha = key1[0], key1[1:]
        for key2, c2 in t2.items():
            a2, beta = key2[0], key2[1:]
            for gamma, c in _struct_constants(alpha, beta, min(k, len(alpha) + len(beta))):
                okey = (a1 + a2,) + gamma
                out[okey] = out.get(okey, 0) + c1 * c2 * c
    return {key: v for key, v in out.items() if v != 0}


def affine_integral(terms: dict, k: int, offset=Fraction(1), scale=Fraction(1)) -> Fraction:
    """Exact int over scale*R_k of an affine-form polynomial with offset."""
    table = _TermTable(k, offset, scale)
    total = Fraction(0)
    for key, coeff in terms.items():
        a, alpha = key[0], key[1:]
        total += coeff * Fraction(table.numerator(a, alpha), table.denominator(a + sum(alpha)))
    return total
