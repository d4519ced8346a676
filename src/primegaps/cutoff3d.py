"""Exact verification of the three-variable piecewise-polynomial cutoff.

The simplex {x+y+z <= 3/2, x,y,z >= 0} is partitioned (up to null sets)
into 60 open polytopes: ten canonical pieces inside the sector
{0 < y < x < z} and their images under the six coordinate permutations.
A symmetric piecewise polynomial is specified by one polynomial per
canonical piece and extended by symmetry.

Everything here is exact rational arithmetic, and the ten inequality
systems are the only geometric data.  Each polytope is rebuilt from its
inequalities by exact vertex enumeration and integrated by an integer simplex
kernel (Polytope3.integrate): volumes and the square functional I.  The slot
functional J and the marginal conditions integrate F along z-fibres: the
breakpoints are the polytope inequalities that involve z, they cut the (x, y)
regions into convex cells, and on each cell the z-integral of F is one
bivariate polynomial.  J integrates its square over the cells; on the far
outer region each distinct one must vanish identically.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cmp_to_key

from .rational import Q

__all__ = [
    "Poly3",
    "Polytope3",
    "PiecewiseCutoff",
    "CANONICAL_NAMES",
    "WORDS",
    "build_partition",
    "builtin_cutoff",
    "integrate_I",
    "integrate_J",
    "check_marginals",
    "verify_theorem_piece",
    "evaluate",
    "piece_polynomial",
]

CANONICAL_NAMES = ("A", "B", "C", "D", "E", "S", "T", "U", "G", "H")
WORDS = ("xyz", "xzy", "yxz", "yzx", "zxy", "zyx")
_VARS = {"x": 0, "y": 1, "z": 2}


class Poly3:
    """Sparse polynomial in (x, y, z) with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for key, c in (terms or {}).items():
            c = Q(c)
            if c != 0:
                self.terms[tuple(key)] = self.terms.get(tuple(key), Q(0)) + c
        self.terms = {k: v for k, v in self.terms.items() if v != 0}

    @classmethod
    def const(cls, c) -> "Poly3":
        return cls({(0, 0, 0): c})

    @classmethod
    def var(cls, name: str) -> "Poly3":
        key = [0, 0, 0]
        key[_VARS[name]] = 1
        return cls({tuple(key): 1})

    @classmethod
    def affine(cls, c0, cx=0, cy=0, cz=0) -> "Poly3":
        return cls({(0, 0, 0): c0, (1, 0, 0): cx, (0, 1, 0): cy, (0, 0, 1): cz})

    def __add__(self, other) -> "Poly3":
        other = other if isinstance(other, Poly3) else Poly3.const(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Q(0)) + c
        return Poly3(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly3":
        return Poly3({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "Poly3":
        return self + (-(other if isinstance(other, Poly3) else Poly3.const(other)))

    def __mul__(self, other) -> "Poly3":
        if not isinstance(other, Poly3):
            c = Q(other)
            return Poly3({k: v * c for k, v in self.terms.items()})
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                out[key] = out.get(key, Q(0)) + c1 * c2
        return Poly3(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = other if isinstance(other, Poly3) else Poly3.const(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def eval(self, x, y, z):
        x, y, z = Q(x), Q(y), Q(z)
        total = Q(0)
        for (i, j, l), c in self.terms.items():
            total += c * x**i * y**j * z**l
        return total

    def permute(self, word: str) -> "Poly3":
        """Substitute (x, y, z) -> (word[0], word[1], word[2])."""
        pos = [_VARS[w] for w in word]
        out: dict = {}
        for key, c in self.terms.items():
            new = [0, 0, 0]
            for axis, e in enumerate(key):
                new[pos[axis]] += e
            new = tuple(new)
            out[new] = out.get(new, Q(0)) + c
        return Poly3(out)

    def substitute(self, name: str, value: "Poly3") -> "Poly3":
        """Replace one variable by a polynomial (used for integration limits)."""
        axis = _VARS[name]
        powers = {0: Poly3.const(1)}
        maxdeg = max((k[axis] for k in self.terms), default=0)
        for e in range(1, maxdeg + 1):
            powers[e] = powers[e - 1] * value
        out = Poly3()
        for key, c in self.terms.items():
            rest = list(key)
            e = rest[axis]
            rest[axis] = 0
            out = out + Poly3({tuple(rest): c}) * powers[e]
        return out

    def antiderivative(self, name: str) -> "Poly3":
        axis = _VARS[name]
        out = {}
        for key, c in self.terms.items():
            new = list(key)
            new[axis] += 1
            out[tuple(new)] = c / new[axis]
        return Poly3(out)

    def integrate(self, name: str, lower: "Poly3", upper: "Poly3") -> "Poly3":
        """Definite integral in one variable between polynomial limits."""
        F = self.antiderivative(name)
        return F.substitute(name, upper) - F.substitute(name, lower)

    def __repr__(self):  # pragma: no cover
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=lambda k: (sum(k), k)):
            mono = "".join(f"{v}^{e}" if e > 1 else (v if e else "") for v, e in zip("xyz", key))
            bits.append(f"{self.terms[key]}{'*' + mono if mono else ''}")
        return " + ".join(bits)


def _iterated_integral(integrand: Poly3, chain) -> Q:
    """Integrate innermost-first along [(var, lo, hi), ...] (outer first).

    Outermost limits must be constants; the result is an exact rational.
    """
    acc = integrand
    for var, lo, hi in reversed(chain):
        acc = acc.integrate(var, lo, hi)
    if not acc.is_zero() and set(acc.terms) != {(0, 0, 0)}:
        raise ValueError("integration chain left free variables")
    return acc.terms.get((0, 0, 0), Q(0))


# ---------------------------------------------------------------------------
# the canonical piece polynomials of the built-in verified cutoff
# ---------------------------------------------------------------------------

_BUILTIN_PIECES = {
    "A": {
        (0, 0, 0): -66, (1, 0, 0): 96, (2, 0, 0): -147, (3, 0, 0): 125,
        (0, 1, 0): 128, (1, 1, 0): -122, (2, 1, 0): 104, (0, 2, 0): -275,
        (0, 3, 0): 394, (0, 0, 1): 99, (1, 0, 1): -58, (2, 0, 1): 63,
        (0, 1, 1): -98, (1, 1, 1): 51, (0, 2, 1): 41, (0, 0, 2): -112,
        (1, 0, 2): 24, (0, 1, 2): 72, (0, 0, 3): 50,
    },
    "B": {
        (0, 0, 0): -41, (1, 0, 0): 52, (2, 0, 0): -73, (3, 0, 0): 25,
        (0, 1, 0): 108, (1, 1, 0): -66, (2, 1, 0): 71, (0, 2, 0): -294,
        (1, 2, 0): 56, (0, 3, 0): 363, (0, 0, 1): 33, (1, 0, 1): 15,
        (2, 0, 1): 22, (0, 1, 1): -40, (1, 1, 1): -42, (0, 2, 1): 75,
        (0, 0, 2): -36, (1, 0, 2): -24, (0, 1, 2): 26, (0, 0, 3): 20,
    },
    "C": {
        (0, 0, 0): -22, (1, 0, 0): 45, (2, 0, 0): -35, (0, 1, 0): 63,
        (1, 1, 0): -99, (2, 1, 0): 82, (0, 2, 0): -140, (1, 2, 0): 54,
        (0, 3, 0): 179,
    },
    "D": {},
    "E": {(0, 0, 0): -12, (1, 0, 0): 8, (0, 1, 0): 32},
    "S": {(0, 0, 0): -6, (1, 0, 0): 8, (0, 1, 0): 16},
    "T": {
        (0, 0, 0): 18, (1, 0, 0): -30, (2, 0, 0): 12, (0, 1, 0): 42,
        (1, 1, 0): -20, (0, 2, 0): -66, (0, 0, 1): -45, (1, 0, 1): 34,
        (0, 0, 2): 22,
    },
    "U": {
        (0, 0, 0): 94, (1, 0, 0): -1823, (2, 0, 0): 5760, (3, 0, 0): -5128,
        (0, 1, 0): 54, (2, 1, 0): -168, (0, 2, 0): 105, (1, 0, 1): 1422,
        (2, 0, 1): -2340, (0, 2, 1): -192, (0, 0, 2): -128, (1, 0, 2): -268,
        (0, 0, 3): 64,
    },
    "G": {
        (0, 0, 0): 5274, (1, 0, 0): -19833, (2, 0, 0): 18570, (3, 0, 0): -5128,
        (0, 1, 0): -18024, (1, 1, 0): 44696, (2, 1, 0): -20664, (0, 2, 0): 16158,
        (1, 2, 0): -19056, (0, 3, 0): -4592, (0, 0, 1): -10704, (1, 0, 1): 26860,
        (2, 0, 1): -12588, (0, 1, 1): 24448, (1, 1, 1): -30352, (0, 2, 1): -10980,
        (0, 0, 2): 7240, (1, 0, 2): -9092, (0, 1, 2): -8288, (0, 0, 3): -1632,
    },
    "H": {(0, 0, 1): 8},
}


@dataclass(frozen=True)
class PiecewiseCutoff:
    """Symmetric piecewise polynomial: one Poly3 per canonical piece name."""

    pieces: dict
    eps: object

    def __post_init__(self):
        eps = Q(self.eps)
        _check_eps(eps)
        pieces = {}
        for name in CANONICAL_NAMES:
            p = self.pieces.get(name, Poly3())
            pieces[name] = p if isinstance(p, Poly3) else Poly3(p)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "eps", eps)

    def with_piece(self, name: str, poly) -> "PiecewiseCutoff":
        pieces = dict(self.pieces)
        pieces[name] = poly if isinstance(poly, Poly3) else Poly3(poly)
        return PiecewiseCutoff(pieces, self.eps)


def builtin_cutoff() -> PiecewiseCutoff:
    """The verified degree-<=3 cutoff (piece coefficients are exact data)."""
    return PiecewiseCutoff({n: Poly3(c) for n, c in _BUILTIN_PIECES.items()}, Q(1, 4))


def piece_polynomial(f: PiecewiseCutoff, name: str, word: str = "xyz") -> Poly3:
    """The polynomial on the permuted copy name_word of a canonical piece.

    The permuted copy is cut out by substituting (word[0], word[1], word[2])
    for (x, y, z) in the canonical constraints; by symmetry its values come
    from the canonical polynomial under the same substitution.
    """
    if name not in CANONICAL_NAMES:
        raise KeyError(f"unknown canonical piece {name!r}")
    if word not in WORDS:
        raise KeyError(f"unknown permutation word {word!r}")
    return f.pieces[name].permute(word)


# ---------------------------------------------------------------------------
# polytope partition from the inequality systems
# ---------------------------------------------------------------------------


def _canonical_systems(e):
    """Strict inequality systems (c0, cx, cy, cz) > 0 for the ten canonical
    pieces inside {0 < y < x < z}; the chains imply the sector ordering."""
    one = Q(1)
    base = [
        (Q(0), one, Q(0), Q(0)),   # x > 0
        (Q(0), Q(0), one, Q(0)),   # y > 0
        (Q(0), Q(0), Q(0), one),   # z > 0
        (Q(3, 2), -one, -one, -one),  # x+y+z < 3/2
    ]
    x_lt_z = (Q(0), -one, Q(0), one)       # x < z
    y_lt_x = (Q(0), one, -one, Q(0))       # y < x
    xy_lt = lambda b: (b, -one, -one, Q(0))     # x + y < b
    yz_gt = lambda b: (-b, Q(0), one, one)      # y + z > b
    yz_lt = lambda b: (b, Q(0), -one, -one)     # y + z < b
    zx_gt = lambda b: (-b, one, Q(0), one)      # z + x > b
    zx_lt = lambda b: (b, -one, Q(0), -one)     # z + x < b
    lo, hi = 1 - e, 1 + e
    F_sys = [xy_lt(lo), yz_gt(lo), yz_lt(hi), zx_gt(hi)]
    systems = {
        "A": [x_lt_z, y_lt_x, zx_lt(lo)],
        "B": [x_lt_z, yz_lt(lo), zx_gt(lo), zx_lt(hi)],
        "C": [xy_lt(lo), yz_gt(lo), y_lt_x, zx_lt(hi)],
        "D": [(-lo, one, one, Q(0)), x_lt_z, y_lt_x, zx_lt(hi)],  # x+y > 1-e
        "E": [x_lt_z, yz_lt(lo), zx_gt(hi)],
        "S": F_sys + [(Q(1, 2) + e, Q(0), Q(0), -one)],                 # z < 1/2+e
        "T": F_sys + [(-(Q(1, 2) + e), Q(0), Q(0), one),                # z > 1/2+e
                      (-(Q(1, 2) - e), one, Q(0), Q(0))],               # x > 1/2-e
        "U": F_sys + [(Q(1, 2) - e, -one, Q(0), Q(0))],                 # x < 1/2-e
        "G": [xy_lt(lo), yz_gt(hi), y_lt_x],
        "H": [(-lo, one, one, Q(0)), x_lt_z, yz_lt(hi), zx_gt(hi)],
    }
    return {name: base + sys for name, sys in systems.items()}


def _permute_inequality(ineq, word):
    """Literal substitution x -> word[0], y -> word[1], z -> word[2]."""
    c0, cx, cy, cz = ineq
    out = [c0, Q(0), Q(0), Q(0)]
    for coeff, w in zip((cx, cy, cz), word):
        out[1 + _VARS[w]] += coeff
    return tuple(out)


@dataclass(frozen=True)
class Polytope3:
    """Open polytope given by strict affine inequalities c0+cx*x+cy*y+cz*z > 0.

    The coefficients are coerced to Q, so int rows give exact vertices."""

    name: str
    inequalities: tuple

    def __post_init__(self):
        rows = tuple(tuple(Q(c) for c in row) for row in self.inequalities)
        object.__setattr__(self, "inequalities", rows)

    def contains(self, point, strict: bool = True) -> bool:
        x, y, z = (Q(v) for v in point)
        for c0, cx, cy, cz in self.inequalities:
            v = c0 + cx * x + cy * y + cz * z
            if v < 0 or (strict and v == 0):
                return False
        return True

    def vertices(self):
        """Exact vertex enumeration over all triples of supporting planes."""
        ineqs = self.inequalities
        pts = set()
        for i1, i2, i3 in itertools.combinations(range(len(ineqs)), 3):
            rows = [ineqs[i1], ineqs[i2], ineqs[i3]]
            det = _det3([r[1:] for r in rows])
            if det == 0:
                continue
            rhs = [-r[0] for r in rows]
            pt = _cramer3([r[1:] for r in rows], rhs, det)
            if self.contains(pt, strict=False):
                pts.add(pt)
        return sorted(pts)

    def volume(self) -> Q:
        return self.integrate(Poly3.const(1))

    def integrate(self, poly: Poly3) -> Q:
        """Exact integral of a polynomial over the polytope.

        Vertices are scaled to integers by the lcm L of their denominators,
        poly to integer numerators over one denominator den.  The fan from
        the first vertex over the faces without it gives tetrahedra that are
        integer affine images of the standard simplex, where u^a v^b w^c
        integrates to a!b!c!/(a+b+c+3)!."""
        verts = self.vertices()
        if len(verts) < 4 or poly.is_zero():
            return Q(0)
        D = poly.degree
        L = math.lcm(*(int(c.denominator) for v in verts for c in v))
        den = math.lcm(*(int(c.denominator) for c in poly.terms.values()))
        # poly(X / L) = sum of coeff[key] X^key over den * L^D
        coeff = {
            key: int(c.numerator) * (den // int(c.denominator)) * L ** (D - sum(key))
            for key, c in poly.terms.items()
        }
        scaled = {v: tuple(int(c * L) for c in v) for v in verts}
        apex = verts[0]
        total = 0
        for c0, cx, cy, cz in self.inequalities:
            face = [v for v in verts if c0 + cx * v[0] + cy * v[1] + cz * v[2] == 0]
            if len(face) < 3 or apex in face:
                continue
            ring = [_sub(scaled[v], scaled[apex]) for v in _order_face(face, (cx, cy, cz))]
            for i in range(1, len(ring) - 1):
                edges = (ring[0], ring[i], ring[i + 1])
                forms = [(scaled[apex][axis],) + tuple(e[axis] for e in edges) for axis in range(3)]
                total += abs(_det3(edges)) * _simplex_sum(coeff, forms, D)
        return Q(total, math.factorial(D + 3) * L ** (D + 3) * den)


def _simplex_sum(coeff, forms, D) -> int:
    """(D+3)! times the standard-simplex integral of sum coeff[i,j,l] X^i Y^j Z^l,
    where X, Y, Z are the integer affine forms (c0, cu, cv, cw) in (u, v, w)."""
    powers = []
    for axis, (c0, cu, cv, cw) in enumerate(forms):
        form = {(0, 0, 0): c0, (1, 0, 0): cu, (0, 1, 0): cv, (0, 0, 1): cw}
        powers.append([{(0, 0, 0): 1}])
        for _ in range(max(key[axis] for key in coeff)):
            powers[-1].append(_int_mul(powers[-1][-1], form))
    xp, yp, zp = powers
    nested: dict = {}  # Horner grouping: sum_i X^i sum_j Y^j sum_l c_ijl Z^l
    for (i, j, l), c in coeff.items():
        _int_mul({(0, 0, 0): c}, zp[l], nested.setdefault(i, {}).setdefault(j, {}))
    composed: dict = {}
    for i, by_j in nested.items():
        inner: dict = {}
        for j, zsum in by_j.items():
            _int_mul(yp[j], zsum, inner)
        _int_mul(xp[i], inner, composed)
    f = math.factorial
    # a!b!c!(D+3)!/(a+b+c+3)! is an integer whenever a+b+c <= D
    return sum(v * f(a) * f(b) * f(c) * f(D + 3) // f(a + b + c + 3)
               for (a, b, c), v in composed.items())


def _int_mul(p: dict, q: dict, acc=None) -> dict:
    """acc + p * q for integer polynomials keyed by exponent triples."""
    acc = {} if acc is None else acc
    for (a, b, c), x in p.items():
        for (d, e, g), y in q.items():
            key = (a + d, b + e, c + g)
            acc[key] = acc.get(key, 0) + x * y
    return acc


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _cramer3(A, rhs, det):
    cols = list(zip(*A))
    out = []
    for i in range(3):
        M = [list(cols[j]) if j != i else list(rhs) for j in range(3)]
        out.append(_det3(list(zip(*M))) / det)
    return tuple(out)


def _order_face(face, normal):
    """Order coplanar points into a convex ring (exact CCW sort)."""
    n = len(face)
    centroid = tuple(sum(v[i] for v in face) / n for i in range(3))
    e1 = _sub(face[0], centroid)
    e2 = _cross(normal, e1)
    coords = []
    for v in face:
        d = _sub(v, centroid)
        coords.append((_dot(d, e1), _dot(d, e2), v))

    def half(u, v):
        return 0 if (v > 0 or (v == 0 and u > 0)) else 1

    def cmp(p, q):
        hp, hq = half(p[0], p[1]), half(q[0], q[1])
        if hp != hq:
            return -1 if hp < hq else 1
        cross = p[0] * q[1] - p[1] * q[0]
        return 0 if cross == 0 else (-1 if cross > 0 else 1)

    return [c[2] for c in sorted(coords, key=cmp_to_key(cmp))]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _check_eps(e) -> None:
    if not Q(1, 4) <= e <= Q(1, 3):
        raise ValueError("the partition is valid for eps in [1/4, 1/3]")


def build_partition(eps) -> list:
    """The 60 open polytopes (10 canonical systems x 6 permutations)."""
    e = Q(eps)
    _check_eps(e)
    systems = _canonical_systems(e)
    out = []
    for name in CANONICAL_NAMES:
        for word in WORDS:
            ineqs = tuple(_permute_inequality(iq, word) for iq in systems[name])
            out.append(Polytope3(f"{name}_{word}", ineqs))
    return out


@functools.lru_cache(maxsize=None)
def canonical_polytope(name: str, eps) -> Polytope3:
    return Polytope3(f"{name}_xyz", tuple(_canonical_systems(Q(eps))[name]))


def _locate(e, point):
    """(name, word) of the open piece name_word containing point, or None.

    The point is sorted into the canonical sector (mid, min, max); the word
    names the coordinates that land in the x, y and z slots, and the canonical
    piece is found from the inequality systems."""
    lo, mid, hi = sorted(zip((Q(v) for v in point), "xyz"))
    canon = (mid[0], lo[0], hi[0])
    for name in CANONICAL_NAMES:
        if canonical_polytope(name, e).contains(canon):
            return name, mid[1] + lo[1] + hi[1]
    return None


# ---------------------------------------------------------------------------
# z-fibre programs derived from the partition: over 0 < y < x the fibre
# 0 < z < 3/2-x-y changes piece only at breakpoints z = b(x, y), one per
# inequality of the 60 polytopes that involves z.  Affine forms in (x, y) are
# triples (c0, cx, cy); polygons are convex vertex rings.
# ---------------------------------------------------------------------------


def _at(form, x, y):
    return form[0] + form[1] * x + form[2] * y


def _clip(ring, form) -> tuple:
    """The part of a convex polygon where form >= 0."""
    vals = [_at(form, *v) for v in ring]
    out = []
    for p, q, vp, vq in zip(ring, ring[1:] + ring[:1], vals, vals[1:] + vals[:1]):
        if vp >= 0:
            out.append(p)
        if vp * vq < 0:
            t = vp / (vp - vq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return tuple(out)


def _fibre_geometry(e):
    """The breakpoint forms, and the lines that cut the regions into cells:
    those of the inequalities free of z, and those where two breakpoints meet."""
    breaks, lines = set(), set()
    for part in build_partition(e):
        for c0, cx, cy, cz in part.inequalities:
            if cz:
                breaks.add((-c0 / cz, -cx / cz, -cy / cz))
            else:
                lines.add((c0, cx, cy))
    for b1, b2 in itertools.combinations(breaks, 2):
        lines.add(tuple(u - v for u, v in zip(b1, b2)))
    # scaled so that equal lines compare equal
    lines = {tuple(c / (cx or cy) for c in (c0, cx, cy)) for c0, cx, cy in lines if cx or cy}
    return sorted(breaks), sorted(lines)


@functools.lru_cache(maxsize=None)
def _fibre_programs(e) -> tuple:
    """Cells of the J region {0 < y < x, x+y < 1-e} and of the far outer
    region {0 < y < x, 1+e < x+y < 3/2}, each with the segments
    ((name, word, lo, hi), ...) of its fibre, lo and hi breakpoint forms,
    running from z = 0 to z = 3/2-x-y."""
    breaks, lines = _fibre_geometry(e)
    sector = ((Q(0), Q(0)), (Q(3, 2), Q(0)), (Q(3, 4), Q(3, 4)))  # 0 < y < x, x+y < 3/2
    out = []
    for region in (_clip(sector, (1 - e, -1, -1)), _clip(sector, (-1 - e, 1, 1))):
        cells = [region]
        for form in lines:
            split = []
            for ring in cells:
                vals = [_at(form, *v) for v in ring]
                if min(vals) < 0 < max(vals):
                    split += [_clip(ring, form), _clip(ring, tuple(-c for c in form))]
                else:
                    split.append(ring)
            cells = split
        out.append(tuple((ring, _fibre_segments(e, breaks, ring)) for ring in cells))
    return tuple(out)


def _fibre_segments(e, breaks, ring) -> tuple:
    """The fibre over a cell, cut at the breakpoints and located at the
    vertex centroid; adjacent segments of one piece are merged."""
    x = sum(v[0] for v in ring) / len(ring)
    y = sum(v[1] for v in ring) / len(ring)
    zs = sorted((_at(b, x, y), b) for b in breaks if 0 <= _at(b, x, y) <= Q(3, 2) - x - y)
    segments = []
    for (z1, b1), (z2, b2) in zip(zs, zs[1:]):
        where = _locate(e, (x, y, (z1 + z2) / 2))
        if where is None:
            raise ValueError("a fibre segment lies in no piece of the partition")
        if segments and segments[-1][:2] == where:
            segments[-1] = (*where, segments[-1][2], b2)
        else:
            segments.append((*where, b1, b2))
    return tuple(segments)


def _fibre_integrals(f: PiecewiseCutoff):
    """segments -> g(x, y), the z-integral of F over the fibre program.  The
    z-antiderivative of each (piece, word), and its value at each breakpoint,
    is computed once."""

    @functools.lru_cache(maxsize=None)
    def prim(name, word):
        return piece_polynomial(f, name, word).antiderivative("z")

    @functools.lru_cache(maxsize=None)
    def at(name, word, form):
        return prim(name, word).substitute("z", Poly3.affine(*form))

    def g(segments) -> Poly3:
        return sum((at(n, w, hi) - at(n, w, lo) for n, w, lo, hi in segments), Poly3())

    return g


def _cell_integral(poly: Poly3, ring) -> Q:
    """Integral of a polynomial in (x, y) over a convex polygon, by x-slabs
    between consecutive vertex abscissae: in each, one edge bounds y below
    and one above."""
    edges = []
    for p, q in zip(ring, ring[1:] + ring[:1]):
        if p[0] != q[0]:
            s = (q[1] - p[1]) / (q[0] - p[0])
            edges.append((min(p[0], q[0]), max(p[0], q[0]), Poly3.affine(p[1] - s * p[0], s)))
    xs = sorted({v[0] for v in ring})
    total = Q(0)
    for xa, xb in zip(xs, xs[1:]):
        spans = [edge for lo, hi, edge in edges if lo <= xa and xb <= hi]
        lower, upper = sorted(spans, key=lambda edge: edge.eval((xa + xb) / 2, 0, 0))
        total += _iterated_integral(poly, [("x", Poly3.const(xa), Poly3.const(xb)), ("y", lower, upper)])
    return total


# ---------------------------------------------------------------------------
# the two functionals and the marginal identities
# ---------------------------------------------------------------------------


def integrate_I(f: PiecewiseCutoff) -> Q:
    """Exact integral of F^2 over the whole simplex (6 x canonical sector)."""
    return 6 * sum((integrate_piece_I(f, name) for name in CANONICAL_NAMES), Q(0))


def integrate_piece_I(f: PiecewiseCutoff, name: str, via_polytope: bool = True) -> Q:
    """Canonical-sector integral of one squared piece over its polytope.

    via_polytope selects nothing, as the polytope is the only route; the
    keyword is kept for perfbench/workloads.py, which passes True."""
    if not via_polytope:
        raise ValueError("I is integrated over the polytopes only")
    p = f.pieces[name]
    if p.is_zero():
        return Q(0)
    return canonical_polytope(name, f.eps).integrate(p * p)


def integrate_J(f: PiecewiseCutoff) -> Q:
    """Exact value of the slot-integrated quadratic functional:
    6 x the integral of g^2 over the J region {0 < y < x, x+y < 1-eps}."""
    g = _fibre_integrals(f)
    total = Q(0)
    for ring, segments in _fibre_programs(f.eps)[0]:
        inner = g(segments)
        total += _cell_integral(inner * inner, ring)
    return 6 * total


def check_marginals(f: PiecewiseCutoff):
    """Residual g for each distinct fibre program of the far outer region
    {0 < y < x, 1+eps < x+y < 3/2}, labelled by its pieces in z order.  A
    label names one program: the fibre meets each convex piece in one interval
    and passes between two pieces on the plane of their common facet.

    An all-zero report means every slot integral vanishes identically on
    the far outer region, as the support condition requires.
    """
    g = _fibre_integrals(f)
    programs = dict.fromkeys(segments for _, segments in _fibre_programs(f.eps)[1])
    return [("+".join(f"{name}_{word}" for name, word, _, _ in s), g(s)) for s in programs]


def verify_theorem_piece() -> bool:
    """Full exact verification of the built-in cutoff.

    Checks that every marginal residual vanishes identically and that the
    slot functional exceeds twice the square functional, all in exact
    arithmetic.  Raises ValueError naming the first failed stage.
    """
    f = builtin_cutoff()
    for label, residual in check_marginals(f):
        if not residual.is_zero():
            raise ValueError(f"marginal identity {label} has nonzero residual")
    I = integrate_I(f)
    J = integrate_J(f)
    if I <= 0:
        raise ValueError("square functional is not positive")
    if not J > 2 * I:
        raise ValueError("ratio does not exceed 2")
    return True


def evaluate(f: PiecewiseCutoff, point):
    """Pointwise value of the symmetric extension (None on boundaries)."""
    where = _locate(f.eps, point)
    if where is None:
        return None
    return piece_polynomial(f, *where).eval(*point)
