"""Shared reference data for the tests: known optimal tuples and published
table values used as targets, and the slow exact oracles that the program's
integer kernels are checked against."""

import functools
import itertools
import math
from fractions import Fraction as Q
from importlib import resources
from pathlib import Path

import numpy as np

from primegaps import sieves
from primegaps.admissible import Tuple, _as_array, covers_all_classes, read_tuple_file
from primegaps.cutoff3d import Poly3, _simplex_integral
from primegaps.primes import primes_upto
from primegaps.symmpoly import _perm_count


def _data_tuple(name: str) -> Tuple:
    with resources.as_file(resources.files("primegaps").joinpath("data", name)) as p:
        return read_tuple_file(p)


def tuple_50() -> Tuple:
    return _data_tuple("tuple_50_246.txt")


def tuple_51() -> Tuple:
    return _data_tuple("tuple_51_252.txt")


def tuple_54() -> Tuple:
    return _data_tuple("tuple_54_270.txt")


def is_admissible_naive(t) -> bool:
    """Admissibility by full residue enumeration mod every prime p <= k: the
    oracle that is_admissible's bitmap test is checked against."""
    offs = _as_array(t)
    return not any(covers_all_classes(offs, int(p)) for p in primes_upto(len(offs)))


# published diameters for the k-primes-past-k construction (exact)
KPPK_DIAMETERS = {5511: 56538, 35410: 433992, 41588: 516586}

# published diameters for the search-based rows at k = 5511 (targets with
# slack; the searches behind them use unspecified grids)
LADDER_5511 = {
    "eratosthenes": 55160,
    "hensley-richards": 54480,
    "shifted-schinzel": 53774,
    "shifted-greedy": 52296,
}

# parameter rows for the explicit truncated-variant lower bound:
# (k, theta, beta, published bound)
ASYMPTOTIC_ROWS = (
    (5511, "0.965", "0.973", "6.000048609"),
    (35410, "0.99479", "0.85213", "7.829849259"),
    (41588, "0.97878", "0.94319", "8.000001401"),
    (309661, "0.98627", "0.92091", "10.00000032"),
    (1649821, "1.00422", "0.80148", "11.65752556"),
    (75845707, "1.00712", "0.77003", "15.48125090"),
    (3473955908, "1.0079318", "0.7490925", "19.30374872"),
)

#: certificate files written before the proposal was rounded to integers,
#: with wide rational coefficients; they must keep verifying
EARLIER_CERTIFICATES = Path(__file__).parent / "data"


def plain_schinzel_run(k: int, s: int, ps, pi_k: int, x_hint: int) -> sieves.SieveRun:
    """Best admissible window of [s, s+x] at the minimal start-prime index,
    by a bisection that tests every level it visits (and the top level,
    which leaves no prime to test).

    The oracle for ``sieves._schinzel_run``; it calls the module's
    ``_window_admissible``, so a test that replaces that function replaces
    it here too.
    """
    x = max(x_hint, 64)
    span = -1
    while True:
        if x > span:
            span = 2 * x
            lsi = sieves._least_sieving_index(s, span + 1, ps, pi_k)
        if int(np.count_nonzero(lsi[: x + 1] >= pi_k)) >= k:
            break
        x = int(x * sieves.GROWTH) + 64
    lsi = lsi[: x + 1]

    def admissible_window(m):
        win = sieves._best_window(np.flatnonzero(lsi >= m).astype(np.int64) + s, k)
        return win[0] if win is not None and sieves._window_admissible(win[0], ps[m:pi_k]) else None

    lo, hi = 1, pi_k
    best = admissible_window(hi)
    while lo < hi:
        mid = (lo + hi) // 2
        win = admissible_window(mid)
        if win is not None:
            hi = mid
            best = win
        else:
            lo = mid + 1
    return sieves.SieveRun(Tuple(tuple(int(v) for v in best)), k=k, s=s, m=hi)


def schinzel_inputs(k: int):
    """(ps, pi_k, x_hint) as ``sieves.shifted_schinzel_run`` passes them to
    each run."""
    ps, pi_k = sieves._primes_with_index(k)
    return ps, pi_k, int(k * (math.log(max(k, 3)) + 1.0)) + 64


def plain_shifted_schinzel_run(k: int) -> sieves.SieveRun:
    """The shifted Schinzel shift search with every run in full, keeping a
    run only if it is strictly narrower than the best so far.

    The oracle for ``sieves.shifted_schinzel_run``, whose runs skip the
    tests that cannot beat the best diameter.
    """
    ps, pi_k, x_hint = schinzel_inputs(k)
    best = plain_schinzel_run(k, k, ps, pi_k, x_hint)
    scored, stride = sieves._shift_candidates(k, ps, best.m, x_hint)
    for _, s in scored:
        run = plain_schinzel_run(k, s, ps, pi_k, x_hint)
        if run.diameter < best.diameter:
            best = run
    fine = max(1, stride // 10)
    for s in range(best.s - stride, best.s + stride + 1, fine):
        run = plain_schinzel_run(k, s, ps, pi_k, x_hint)
        if run.diameter < best.diameter:
            best = run
    return best


# selected published lower bounds from the Krylov method
KRYLOV_TARGETS = {2: "1.38592", 3: "1.64643", 4: "1.84539", 5: "2.00713"}


def exact_ldl(A, n):
    """Exact LDL^T of the columns of A that are independent, greedy in order.

    The oracle for exact positive definiteness and for the assembly's mod-p
    independence scan.  Returns (keep, L, d): keep lists the kept
    column indices; row i of L holds the below-diagonal entries L[i][0..i-1]
    of the unit lower triangular factor over the kept columns, and d the
    positive pivots.  Pivots are exact rationals, so a column whose pivot is
    not positive is skipped: for a positive semidefinite A it lies in the
    span of the kept ones.
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


def distinct_perms(alpha: tuple, k: int) -> list:
    """All distinct length-k exponent vectors with signature alpha."""
    out = []

    # skipping a value already placed at a position yields each distinct
    # vector once
    def rec(prefix, remaining):
        if not remaining:
            out.append(tuple(prefix))
            return
        used = set()
        for i, v in enumerate(remaining):
            if v in used:
                continue
            used.add(v)
            rec(prefix + [v], remaining[:i] + remaining[i + 1 :])

    rec([], list(alpha) + [0] * (k - len(alpha)))
    return out


def enumerated_struct_constants(alpha: tuple, beta: tuple, k: int) -> tuple:
    """P_alpha * P_beta in k variables by enumeration, ((gamma, c), ...).

    The oracle for the counted structure constants: one exponent vector of
    one factor plus every distinct exponent vector of the other (the one
    with fewer), bucketed by the signature of the sum; c = count * #alpha /
    #gamma, # counting exponent vectors.
    """
    if _perm_count(alpha, k) == 0 or _perm_count(beta, k) == 0:
        return ()
    if _perm_count(beta, k) > _perm_count(alpha, k):
        alpha, beta = beta, alpha
    a0 = tuple(alpha) + (0,) * (k - len(alpha))
    buckets: dict = {}
    for b in distinct_perms(beta, k):
        gamma = tuple(p for p in sorted((x + y for x, y in zip(a0, b)), reverse=True) if p)
        buckets[gamma] = buckets.get(gamma, 0) + 1
    out = []
    for gamma, count in sorted(buckets.items()):
        c, rem = divmod(count * _perm_count(alpha, k), _perm_count(gamma, k))
        assert rem == 0
        out.append((gamma, c))
    return tuple(out)


def per_term_apply_L_int(terms: dict, den: int, k: int) -> tuple:
    """One step of L on integer numerators, term by term.

    The oracle for the factored step of symmpoly._apply_L_int: every
    (term, exponent m on the integrated slot) pair expands its own
    re-symmetrized row of (1-s)^c P_beta, c = a+m+1, weighted by
    coeff (D+1)!/c! a! m!, D the highest total degree; m is a distinct part
    of alpha, or 0 when a slot is free.  Returns (terms, den) reduced by
    the gcd of den and every numerator.
    """
    fact = math.factorial
    top = fact(max((key[0] + sum(key[1:]) for key in terms), default=0) + 1)
    out: dict = {}
    for key, coeff in terms.items():
        a, alpha = key[0], key[1:]
        strips = [(m, alpha[:i] + alpha[i + 1 :]) for i, m in enumerate(alpha) if m not in alpha[:i]]
        if len(alpha) < k:
            strips.append((0, alpha))
        for m, beta in strips:
            c = a + m + 1
            w = coeff * (top // fact(c) * fact(a) * fact(m))
            row = [((c,) + beta, k - len(beta))] if len(beta) < k else []
            for r in range(1, c + 1):
                i = next((i for i, p in enumerate(beta) if r >= p), len(beta))
                gamma = beta[:i] + (r,) + beta[i:]
                row.append(((c - r,) + gamma, math.comb(c, r) * gamma.count(r)))
            for okey, x in row:
                out[okey] = out.get(okey, 0) + w * x
    out = {key: v for key, v in out.items() if v}
    den *= top
    g = math.gcd(den, *out.values())
    return {key: v // g for key, v in out.items()}, den // g


# ---------------------------------------------------------------------------
# the polynomial arithmetic in Fractions: Poly3 as it was before its
# coefficients moved to integer numerators over one denominator
# ---------------------------------------------------------------------------

_VARS = {"x": 0, "y": 1, "z": 2}


class FractionPoly3:
    """Sparse polynomial in (x, y, z), a dict of Fraction coefficients.

    The oracle for the integer Poly3: the same constructor, arithmetic,
    substitution, antiderivative, evaluation and repr, coefficient by
    coefficient in Fractions."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for key, c in (terms or {}).items():
            c = Q(c)
            if c != 0:
                self.terms[tuple(key)] = self.terms.get(tuple(key), Q(0)) + c
        self.terms = {k: v for k, v in self.terms.items() if v != 0}

    @classmethod
    def const(cls, c):
        return cls({(0, 0, 0): c})

    @classmethod
    def affine(cls, c0, cx=0, cy=0, cz=0):
        return cls({(0, 0, 0): c0, (1, 0, 0): cx, (0, 1, 0): cy, (0, 0, 1): cz})

    def __add__(self, other):
        other = other if isinstance(other, FractionPoly3) else FractionPoly3.const(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Q(0)) + c
        return FractionPoly3(out)

    def __neg__(self):
        return FractionPoly3({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-(other if isinstance(other, FractionPoly3) else FractionPoly3.const(other)))

    def __mul__(self, other):
        if not isinstance(other, FractionPoly3):
            c = Q(other)
            return FractionPoly3({k: v * c for k, v in self.terms.items()})
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                out[key] = out.get(key, Q(0)) + c1 * c2
        return FractionPoly3(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = other if isinstance(other, FractionPoly3) else FractionPoly3.const(other)
        return self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def eval(self, x, y, z):
        x, y, z = Q(x), Q(y), Q(z)
        total = Q(0)
        for (i, j, l), c in self.terms.items():
            total += c * x**i * y**j * z**l
        return total

    def permute(self, word: str):
        """Substitute (x, y, z) -> (word[0], word[1], word[2])."""
        pos = [_VARS[w] for w in word]
        out: dict = {}
        for key, c in self.terms.items():
            new = [0, 0, 0]
            for axis, e in enumerate(key):
                new[pos[axis]] += e
            new = tuple(new)
            out[new] = out.get(new, Q(0)) + c
        return FractionPoly3(out)

    def substitute(self, name: str, value):
        """Replace one variable by a polynomial."""
        axis = _VARS[name]
        powers = {0: FractionPoly3.const(1)}
        maxdeg = max((k[axis] for k in self.terms), default=0)
        for e in range(1, maxdeg + 1):
            powers[e] = powers[e - 1] * value
        out = FractionPoly3()
        for key, c in self.terms.items():
            rest = list(key)
            e = rest[axis]
            rest[axis] = 0
            out = out + FractionPoly3({tuple(rest): c}) * powers[e]
        return out

    def antiderivative(self, name: str):
        axis = _VARS[name]
        out = {}
        for key, c in self.terms.items():
            new = list(key)
            new[axis] += 1
            out[tuple(new)] = c / new[axis]
        return FractionPoly3(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=lambda k: (sum(k), k)):
            mono = "".join(f"{v}^{e}" if e > 1 else (v if e else "") for v, e in zip("xyz", key))
            bits.append(f"{self.terms[key]}{'*' + mono if mono else ''}")
        return " + ".join(bits)


def iterated_integral(integrand: Poly3, chain) -> Q:
    """Integrate innermost-first along [(var, lo, hi), ...] (outer first).

    The oracle for the integer simplex kernel: each step takes the
    antiderivative in one variable and substitutes the polynomial limits, in
    the Fraction polynomials of FractionPoly3.  Outermost limits must be
    constants; the result is an exact rational.
    """
    acc = FractionPoly3(integrand.terms)
    for var, lo, hi in reversed(chain):
        F = acc.antiderivative(var)
        acc = F.substitute(var, FractionPoly3(hi.terms)) - F.substitute(var, FractionPoly3(lo.terms))
    if not acc.is_zero() and set(acc.terms) != {(0, 0, 0)}:
        raise ValueError("integration chain left free variables")
    return acc.terms.get((0, 0, 0), Q(0))


def fraction_clip(ring, form) -> tuple:
    """The part of a convex polygon, a vertex ring of rational points, where
    the affine form (c0, cx, cy) is >= 0: one Sutherland-Hodgman step in
    Fractions.  The oracle for the vertices of a cell of integer rows."""
    vals = [form[0] + form[1] * x + form[2] * y for x, y in ring]
    out = []
    for p, q, vp, vq in zip(ring, ring[1:] + ring[:1], vals, vals[1:] + vals[:1]):
        if vp >= 0:
            out.append(p)
        if vp * vq < 0:
            t = vp / (vp - vq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return tuple(out)


def slab_polygon_integral(poly: Poly3, ring) -> Q:
    """Integral of a polynomial in (x, y) over a convex polygon, by x-slabs
    between consecutive vertex abscissae: in each, one edge bounds y below
    and one above.  The polygon oracle for the pulling triangulation."""
    edges = []
    for p, q in zip(ring, ring[1:] + ring[:1]):
        if p[0] != q[0]:
            s = (q[1] - p[1]) / (q[0] - p[0])
            edges.append((min(p[0], q[0]), max(p[0], q[0]), FractionPoly3.affine(p[1] - s * p[0], s)))
    xs = sorted({v[0] for v in ring})
    total = Q(0)
    for xa, xb in zip(xs, xs[1:]):
        spans = [edge for lo, hi, edge in edges if lo <= xa and xb <= hi]
        lower, upper = sorted(spans, key=lambda edge: edge.eval((xa + xb) / 2, 0, 0))
        chain = [("x", FractionPoly3.const(xa), FractionPoly3.const(xb)), ("y", lower, upper)]
        total += iterated_integral(poly, chain)
    return total


# ---------------------------------------------------------------------------
# the polytope geometry in Fractions: Polytope3's rows, vertices, point test
# and tetrahedral fan as they were before they moved to integers
# ---------------------------------------------------------------------------


def _fraction_rows(inequalities):
    return [tuple(Q(c) for c in row) for row in inequalities]


def fraction_polytope_contains(inequalities, point, strict: bool = True) -> bool:
    """Is point in the polytope {c0 + cx*x + cy*y + cz*z > 0} (>= 0 if not strict)?"""
    x, y, z = (Q(v) for v in point)
    for c0, cx, cy, cz in _fraction_rows(inequalities):
        v = c0 + cx * x + cy * y + cz * z
        if v < 0 or (strict and v == 0):
            return False
    return True


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def fraction_polytope_vertices(inequalities) -> list:
    """Sorted vertices: every triple of rows solved by Fraction Cramer's rule,
    kept if it satisfies every row non-strictly."""
    return list(_fraction_vertices(tuple(_fraction_rows(inequalities))))


@functools.lru_cache(maxsize=None)
def _fraction_vertices(rows) -> tuple:
    pts = set()
    for triple in itertools.combinations(rows, 3):
        A = [r[1:] for r in triple]
        det = _det3(A)
        if det == 0:
            continue
        rhs = [-r[0] for r in triple]
        pt = []
        for i in range(3):
            M = [[rhs[r] if j == i else A[r][j] for j in range(3)] for r in range(3)]
            pt.append(_det3(M) / det)
        pt = tuple(pt)
        if fraction_polytope_contains(rows, pt, strict=False):
            pts.add(pt)
    return tuple(sorted(pts))


def _fraction_order_face(face, normal):
    """Order coplanar rational points into a convex ring by an exact angular
    sort about their centroid."""
    n = len(face)
    centroid = tuple(sum(v[i] for v in face) / n for i in range(3))
    cross = lambda a, b: (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                          a[0] * b[1] - a[1] * b[0])
    dot = lambda a, b: a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    e1 = tuple(a - b for a, b in zip(face[0], centroid))
    e2 = cross(normal, e1)
    coords = []
    for v in face:
        d = tuple(a - b for a, b in zip(v, centroid))
        coords.append((dot(d, e1), dot(d, e2), v))

    def half(u, v):
        return 0 if (v > 0 or (v == 0 and u > 0)) else 1

    def cmp(p, q):
        hp, hq = half(p[0], p[1]), half(q[0], q[1])
        if hp != hq:
            return -1 if hp < hq else 1
        c = p[0] * q[1] - p[1] * q[0]
        return 0 if c == 0 else (-1 if c > 0 else 1)

    return [c[2] for c in sorted(coords, key=functools.cmp_to_key(cmp))]


def fraction_polytope_integrate(inequalities, poly: Poly3) -> Q:
    """Integral of poly over the polytope: the fan from the first vertex over
    the faces without it, each face found by testing every vertex against
    every row in Fractions, integrated by the integer simplex kernel."""
    rows = _fraction_rows(inequalities)
    verts = fraction_polytope_vertices(rows)
    if len(verts) < 4:
        return Q(0)
    apex = verts[0]
    tetrahedra = []
    for c0, cx, cy, cz in rows:
        face = [v for v in verts if c0 + cx * v[0] + cy * v[1] + cz * v[2] == 0]
        if len(face) < 3 or apex in face:
            continue
        ring = _fraction_order_face(face, (cx, cy, cz))
        tetrahedra += [(apex, ring[0], ring[i], ring[i + 1]) for i in range(1, len(ring) - 1)]
    return _simplex_integral(poly, tetrahedra)
