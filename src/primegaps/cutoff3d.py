"""Exact verification of the three-variable piecewise-polynomial cutoff.

The simplex {x+y+z <= 3/2, x,y,z >= 0} is partitioned (up to null sets)
into 60 open polytopes: ten canonical pieces inside the sector
{0 < y < x < z} and their images under the six coordinate permutations.
A symmetric piecewise polynomial is specified by one polynomial per
canonical piece and extended by symmetry.

Everything here is exact rational arithmetic, and the ten inequality
systems are the only geometric data.  It is done in integers, and Poly3
holds numerators over one denominator, with _int_mul as the only product.
Every convex cell, a polytope in (x, y, z) or a cell of the (x, y) plane,
is a tuple of primitive integer rows, row . (1, x, ..) >= 0.  One integer
incidence (_incidence) gives its vertices and the rows tight at each; one
pulling triangulation (_pulling) is built from it, and one integer simplex
kernel (_simplex_integral) integrates over it: volumes and the square
functional I over the polytopes, J over the plane cells.  The kernel uses
the vertex formula: a monomial's integral over a simplex is a weight times
the monomial's coefficient in the complete homogeneous polynomial of the
vertices' linear forms, built up vertex by vertex.  The slot
functional J and the marginal conditions integrate F along z-fibres: the
breakpoints are the permuted canonical inequalities that involve z, they cut
the (x, y) regions into convex cells, and on each cell the z-integral of F is
one bivariate polynomial.  J integrates its square over the cells; on the
far outer region each distinct one must vanish identically.

verify_cutoff is the one verifier: it runs check_marginals, integrate_I and
integrate_J once each, reads the support from the inequality systems, and
returns every result in one CutoffVerification, failed checks included.
The marginal rule's evidence (pipeline.MarginalEvidence.from_cutoff) is
built from it and from nothing else.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

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
    "CutoffVerification",
    "verify_cutoff",
    "evaluate",
    "piece_polynomial",
]

CANONICAL_NAMES = ("A", "B", "C", "D", "E", "S", "T", "U", "G", "H")
WORDS = ("xyz", "xzy", "yxz", "yzx", "zxy", "zyx")
_VARS = {"x": 0, "y": 1, "z": 2}


class Poly3:
    """Sparse polynomial in (x, y, z) with exact rational coefficients: integer
    numerators `num`, keyed by exponent triples, over one denominator den > 0,
    none zero and gcd(den, *num) = 1, so equal polynomials hold equal (num, den).
    Every product is _int_mul; Fractions enter only by the constructor and
    leave only by `terms`, `eval` and repr."""

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        terms = {tuple(key): Fraction(c) for key, c in (terms or {}).items()}
        self.den = math.lcm(*(c.denominator for c in terms.values()))
        self.num = {key: c.numerator * (self.den // c.denominator) for key, c in terms.items() if c}

    @classmethod
    def _reduced(cls, num: dict, den: int) -> "Poly3":
        """The Poly3 of sum num[key] X^key / den, den > 0."""
        out, g = cls.__new__(cls), math.gcd(den, *num.values())
        out.num = {key: v // g for key, v in num.items() if v}
        out.den = den // g
        return out

    @property
    def terms(self) -> dict:
        """A fresh dict of the coefficients as Fractions."""
        return {key: Fraction(v, self.den) for key, v in self.num.items()}

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
        den = math.lcm(self.den, other.den)
        out = _int_mul(self.num, {(0, 0, 0): den // self.den})
        return Poly3._reduced(_int_mul(other.num, {(0, 0, 0): den // other.den}, out), den)

    __radd__ = __add__

    def __neg__(self) -> "Poly3":
        return self * -1

    def __sub__(self, other) -> "Poly3":
        return self + (-(other if isinstance(other, Poly3) else Poly3.const(other)))

    def __mul__(self, other) -> "Poly3":
        other = other if isinstance(other, Poly3) else Poly3.const(other)
        return Poly3._reduced(_int_mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = other if isinstance(other, Poly3) else Poly3.const(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(sorted(self.num.items())), self.den))

    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int:
        return max((sum(k) for k in self.num), default=0)

    def eval(self, x, y, z) -> Fraction:
        x, y, z = Fraction(x), Fraction(y), Fraction(z)
        return sum((c * x**i * y**j * z**l for (i, j, l), c in self.num.items()), Fraction(0)) / self.den

    def permute(self, word: str) -> "Poly3":
        """Substitute (x, y, z) -> (word[0], word[1], word[2])."""
        pos = [_VARS[w] for w in word]
        out: dict = {}
        for key, c in self.num.items():
            new = [0, 0, 0]
            for axis, e in enumerate(key):
                new[pos[axis]] += e
            new = tuple(new)
            out[new] = out.get(new, 0) + c
        return Poly3._reduced(out, self.den)

    def substitute(self, name: str, value: "Poly3") -> "Poly3":
        """Replace one variable by a polynomial (used for integration limits)."""
        axis = _VARS[name]
        m = max((key[axis] for key in self.num), default=0)
        powers = [{(0, 0, 0): 1}]
        for _ in range(m):
            powers.append(_int_mul(powers[-1], value.num))
        out: dict = {}
        for key, c in self.num.items():
            rest = list(key)
            e, rest[axis] = rest[axis], 0
            _int_mul({tuple(rest): c * value.den ** (m - e)}, powers[e], out)
        return Poly3._reduced(out, self.den * value.den**m)

    def antiderivative(self, name: str) -> "Poly3":
        """The antiderivative in one variable, over den * lcm(raised exponents)."""
        axis = _VARS[name]
        scale = math.lcm(*(key[axis] + 1 for key in self.num))
        out = {}
        for key, c in self.num.items():
            new = list(key)
            new[axis] += 1
            out[tuple(new)] = c * (scale // new[axis])
        return Poly3._reduced(out, self.den * scale)

    def __repr__(self):  # pragma: no cover
        terms = self.terms
        bits = []
        for key in sorted(terms, key=lambda k: (sum(k), k)):
            mono = "".join(f"{v}^{e}" if e > 1 else (v if e else "") for v, e in zip("xyz", key))
            bits.append(f"{terms[key]}{'*' + mono if mono else ''}")
        return " + ".join(bits) or "0"


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
        eps = Fraction(self.eps)
        _check_eps(eps)
        pieces = {name: Poly3() for name in CANONICAL_NAMES}
        for name, p in self.pieces.items():
            if name not in pieces:
                raise ValueError(f"unknown canonical piece {name!r}")
            pieces[name] = p if isinstance(p, Poly3) else Poly3(p)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "eps", eps)

    def with_piece(self, name: str, poly) -> "PiecewiseCutoff":
        return PiecewiseCutoff({**self.pieces, name: poly}, self.eps)


def builtin_cutoff() -> PiecewiseCutoff:
    """The verified degree-<=3 cutoff (piece coefficients are exact data)."""
    return PiecewiseCutoff({n: Poly3(c) for n, c in _BUILTIN_PIECES.items()}, Fraction(1, 4))


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


#: the rows x, y, z > 0 and x+y+z < 3/2 that open every canonical system and
#: put each piece, and each permuted copy, in the simplex of k/(k-1) = 3/2 at k = 3
_SIMPLEX_ROWS = (
    (0, 1, 0, 0),                     # x > 0
    (0, 0, 1, 0),                     # y > 0
    (0, 0, 0, 1),                     # z > 0
    (Fraction(3, 2), -1, -1, -1),     # x+y+z < 3/2
)


def _canonical_systems(e):
    """Strict inequality systems (c0, cx, cy, cz) > 0 for the ten canonical
    pieces inside {0 < y < x < z}; the chains imply the sector ordering.
    Every entry is a Fraction, and so is every entry of a permuted row."""
    x_lt_z = (0, -1, 0, 1)                # x < z
    y_lt_x = (0, 1, -1, 0)                # y < x
    xy_lt = lambda b: (b, -1, -1, 0)      # x + y < b
    yz_gt = lambda b: (-b, 0, 1, 1)       # y + z > b
    yz_lt = lambda b: (b, 0, -1, -1)      # y + z < b
    zx_gt = lambda b: (-b, 1, 0, 1)       # z + x > b
    zx_lt = lambda b: (b, -1, 0, -1)      # z + x < b
    lo, hi, half = 1 - e, 1 + e, Fraction(1, 2)
    F_sys = [xy_lt(lo), yz_gt(lo), yz_lt(hi), zx_gt(hi)]
    systems = {
        "A": [x_lt_z, y_lt_x, zx_lt(lo)],
        "B": [x_lt_z, yz_lt(lo), zx_gt(lo), zx_lt(hi)],
        "C": [xy_lt(lo), yz_gt(lo), y_lt_x, zx_lt(hi)],
        "D": [(-lo, 1, 1, 0), x_lt_z, y_lt_x, zx_lt(hi)],  # x+y > 1-e
        "E": [x_lt_z, yz_lt(lo), zx_gt(hi)],
        "S": F_sys + [(half + e, 0, 0, -1)],                             # z < 1/2+e
        "T": F_sys + [(-(half + e), 0, 0, 1), (-(half - e), 1, 0, 0)],  # z > 1/2+e, x > 1/2-e
        "U": F_sys + [(half - e, -1, 0, 0)],                             # x < 1/2-e
        "G": [xy_lt(lo), yz_gt(hi), y_lt_x],
        "H": [(-lo, 1, 1, 0), x_lt_z, yz_lt(hi), zx_gt(hi)],
    }
    return {
        name: [tuple(map(Fraction, row)) for row in (*_SIMPLEX_ROWS, *sys)]
        for name, sys in systems.items()
    }


def _permute_inequality(ineq, word):
    """Literal substitution x -> word[0], y -> word[1], z -> word[2]."""
    c0, cx, cy, cz = ineq
    out = [c0, 0, 0, 0]
    for coeff, w in zip((cx, cy, cz), word):
        out[1 + _VARS[w]] += coeff
    return tuple(out)


@dataclass(frozen=True)
class Polytope3:
    """Open polytope given by strict affine inequalities c0+cx*x+cy*y+cz*z > 0.

    `inequalities` reads back as given, each coefficient as a Fraction.  The
    geometry uses each row once, as its primitive integer multiple: a
    positive scaling, so the same strict half-space.  A point is tested over
    one common denominator, and a vertex is a homogeneous integer point
    (X, Y, Z, W), W > 0, from an integer Cramer solve."""

    name: str
    inequalities: tuple
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(Fraction(c) for c in row) for row in self.inequalities)
        object.__setattr__(self, "inequalities", rows)
        object.__setattr__(self, "_rows", tuple(_integer_row(row) for row in rows))

    def contains(self, point, strict: bool = True) -> bool:
        """Whether point lies in the open polytope (in its closure if not strict)."""
        x, y, z = (Fraction(v) for v in point)
        W = math.lcm(x.denominator, y.denominator, z.denominator)
        X, Y, Z = (c.numerator * (W // c.denominator) for c in (x, y, z))
        for c0, cx, cy, cz in self._rows:
            v = c0 * W + cx * X + cy * Y + cz * Z
            if v < 0 or (strict and v == 0):
                return False
        return True

    def vertices(self):
        """Exact vertex enumeration over all triples of supporting planes."""
        return _vertices(self._rows)

    def volume(self) -> Fraction:
        return self.integrate(Poly3.const(1))

    def integrate(self, poly: Poly3) -> Fraction:
        """Exact integral of a polynomial over the polytope (see _integral)."""
        return _integral(poly, self._rows)


def _integer_row(row) -> tuple:
    """The primitive integer multiple of a rational row by a positive scalar."""
    scale = math.lcm(*(c.denominator for c in row))
    ints = [c.numerator * (scale // c.denominator) for c in row]
    g = math.gcd(*ints) or 1
    return tuple(v // g for v in ints)


def _incidence(rows) -> dict:
    """The vertices of the cell {row . (1, x, ..) >= 0} in n <= 3 variables,
    given by primitive integer rows: each a reduced homogeneous point
    (X.., W), W > 0, mapped to the indices of the rows tight at it.  Each n
    rows with independent normals meet at one point, by Cramer's rule in
    integers: (W, X, ..) are the signed n x n minors of the n rows, W that of
    their normals.  It is a vertex when no row is negative there."""
    n = len(rows[0]) - 1
    out = {}
    for combo in itertools.combinations(rows, n):
        cols = tuple(zip(*combo))
        det = _det(cols[1:])
        if det == 0:
            continue
        sign = 1 if det > 0 else -1
        point = (abs(det), *(sign * (-1) ** k * _det(cols[:k] + cols[k + 1:]) for k in range(1, n + 1)))
        values = [sum(map(mul, row, point)) for row in rows]
        if min(values) < 0:
            continue
        g = math.gcd(*point)
        W, *X = (c // g for c in point)
        out.setdefault((*X, W), frozenset(i for i, v in enumerate(values) if v == 0))
    return out


def _affine(point) -> tuple:
    """The rational point (X/W, ..) of a homogeneous point (X.., W)."""
    *X, W = point
    return tuple(Fraction(c, W) for c in X)


def _vertices(rows) -> list:
    """The sorted vertices of a cell of integer rows, as rational points."""
    return sorted(_affine(p) for p in _incidence(rows))


def _integral(poly: Poly3, rows) -> Fraction:
    """Exact integral of a polynomial over a cell of integer rows: the
    integer simplex kernel over a pulling triangulation of its vertices."""
    verts = sorted((_affine(p), tight) for p, tight in _incidence(rows).items())
    return _simplex_integral(poly, _pulling(verts, len(rows[0]) - 1)) if verts else Fraction(0)


def _pulling(verts, dim) -> list:
    """The simplices of a pulling triangulation of a convex cell of dimension
    dim <= 3, given by its (point, tight rows) vertices: the first vertex
    joined to the triangulation of each facet without it, recursively down
    to points.  A facet is the set of vertices tight at one row, when there
    are at least dim of them; a face of dimension below 2 has exactly one
    more vertex than its dimension, and a row tight at a whole face is tight
    at its first vertex.  A facet met by several rows is taken once."""
    (apex, apex_rows), rest = verts[0], verts[1:]
    if dim == 0:
        return [(apex,)]
    facets = {}
    for row in sorted(set().union(*(tight for _, tight in rest)) - apex_rows):
        face = tuple(v for v in rest if row in v[1])
        if len(face) >= dim:
            facets.setdefault(face)
    return [(apex, *simplex) for face in facets for simplex in _pulling(face, dim - 1)]


def _simplex_integral(poly: Poly3, simplices) -> Fraction:
    """Exact integral of a polynomial over a union of n-simplices, n = 1, 2, 3.

    Each simplex is given by its n + 1 vertices with n rational coordinates,
    and poly may involve only the first n variables.  Vertices are scaled to
    integers V_0, .., V_n by the lcm L of their denominators.  By the vertex
    formula (Baldoni, Berline, De Loera, Koeppe and Vergne, Math. Comp. 80,
    2011) X^a Y^b Z^c integrates over the simplex to |det E| a!b!c!/(a+b+c+n)!
    times h_abc, E its n edges and h_abc the coefficient of X^a Y^b Z^c in
    the complete homogeneous polynomial h_{a+b+c} of the vertex forms
    V_j . (X, Y, Z).  The h_d are built vertex by vertex, h_d += (V_j . X) h_{d-1}
    for rising d, all in integers; one Fraction divides the sum at the end."""
    if not simplices or poly.is_zero():
        return Fraction(0)
    n = len(simplices[0]) - 1
    D = poly.degree
    L = math.lcm(*(int(c.denominator) for s in simplices for v in s for c in v))
    f = math.factorial
    # poly(X / L) = sum of num[key] X^key over den * L^D, each term weighted
    # by a!b!c!(D+n)!/(a+b+c+n)!, an integer whenever a+b+c <= D
    weighted = {(a, b, c): v * L ** (D - a - b - c) * (f(a) * f(b) * f(c) * f(D + n) // f(a + b + c + n))
                for (a, b, c), v in poly.num.items()}
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    total = 0
    for simplex in simplices:
        apex, *rest = verts = [[int(c * L) for c in v] for v in simplex]
        det = _det([[c - a for c, a in zip(v, apex)] for v in rest])
        h = [{(0, 0, 0): 1}] + [{} for _ in range(D)]
        for vertex in verts:
            form = {unit: c for unit, c in zip(units, vertex) if c}
            for d in range(1, D + 1):
                _int_mul(form, h[d - 1], h[d])
        total += abs(det) * sum(w * h[sum(key)].get(key, 0) for key, w in weighted.items())
    return Fraction(total, f(D + n) * L ** (D + n) * poly.den)


def _int_mul(p: dict, q: dict, acc=None) -> dict:
    """acc + p * q for integer polynomials keyed by exponent triples."""
    acc = {} if acc is None else acc
    for (a, b, c), x in p.items():
        for (d, e, g), y in q.items():
            key = (a + d, b + e, c + g)
            acc[key] = acc.get(key, 0) + x * y
    return acc


def _det(rows):
    """Determinant of a 1x1, 2x2 or 3x3 matrix."""
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    return rows[0][0]


def _check_eps(e) -> None:
    if not Fraction(1, 4) <= e <= Fraction(1, 3):
        raise ValueError("the partition is valid for eps in [1/4, 1/3]")


def build_partition(eps) -> list:
    """The 60 open polytopes (10 canonical systems x 6 permutations)."""
    e = Fraction(eps)
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
    e = Fraction(eps)
    _check_eps(e)
    return Polytope3(f"{name}_xyz", tuple(_canonical_systems(e)[name]))


def _locate(e, point):
    """(name, word) of the open piece name_word containing point, or None.

    The point is sorted into the canonical sector (mid, min, max); the word
    names the coordinates that land in the x, y and z slots, and the canonical
    piece is found from the inequality systems."""
    lo, mid, hi = sorted(zip((Fraction(v) for v in point), "xyz"))
    canon = (mid[0], lo[0], hi[0])
    for name in CANONICAL_NAMES:
        if canonical_polytope(name, e).contains(canon):
            return name, mid[1] + lo[1] + hi[1]
    return None


# ---------------------------------------------------------------------------
# z-fibre programs derived from the partition: over 0 < y < x the fibre
# 0 < z < 3/2-x-y changes piece only at breakpoints z = b(x, y), one per
# inequality of the 60 polytopes that involves z.  Affine forms in (x, y) are
# triples (c0, cx, cy); a cell is a tuple of their primitive integer rows.
# ---------------------------------------------------------------------------


def _at(form, x, y):
    return form[0] + form[1] * x + form[2] * y


def _fibre_geometry(e):
    """The breakpoint forms, and the lines that cut the regions into cells:
    those of the inequalities free of z, and those where two breakpoints meet."""
    breaks, lines = set(), set()
    for rows in _canonical_systems(e).values():
        for c0, cx, cy, cz in (_permute_inequality(row, word) for row in rows for word in WORDS):
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
    region {0 < y < x, 1+e < x+y < 3/2}, each as integer rows with the
    segments ((name, word, lo, hi), ...) of its fibre, lo and hi breakpoint
    forms, running from z = 0 to z = 3/2-x-y."""
    breaks, lines = _fibre_geometry(e)
    sector = ((0, 1, -1), (0, 0, 1), (3, -2, -2))  # 0 < y < x, x+y < 3/2
    out = []
    for region in (sector + (_integer_row((1 - e, -1, -1)),), sector + (_integer_row((-1 - e, 1, 1)),)):
        cells = [(region, _vertices(region))]
        for form in lines:
            split = []
            for cell, verts in cells:
                vals = [_at(form, *v) for v in verts]
                if min(vals) < 0 < max(vals):
                    row = _integer_row(form)
                    for side in (cell + (row,), cell + (tuple(-c for c in row),)):
                        split.append((side, _vertices(side)))
                else:
                    split.append((cell, verts))
            cells = split
        out.append(tuple((cell, _fibre_segments(e, breaks, verts)) for cell, verts in cells))
    return tuple(out)


def _fibre_segments(e, breaks, verts) -> tuple:
    """The fibre over a cell, cut at the breakpoints and located at the
    centroid of its vertices; adjacent segments of one piece are merged."""
    x = sum(v[0] for v in verts) / len(verts)
    y = sum(v[1] for v in verts) / len(verts)
    zs = sorted((_at(b, x, y), b) for b in breaks if 0 <= _at(b, x, y) <= Fraction(3, 2) - x - y)
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


# ---------------------------------------------------------------------------
# the two functionals and the marginal identities
# ---------------------------------------------------------------------------


def integrate_I(f: PiecewiseCutoff) -> Fraction:
    """Exact integral of F^2 over the whole simplex (6 x canonical sector)."""
    return 6 * sum((integrate_piece_I(f, name) for name in CANONICAL_NAMES), Fraction(0))


def integrate_piece_I(f: PiecewiseCutoff, name: str, via_polytope: bool = True) -> Fraction:
    """Canonical-sector integral of one squared piece over its polytope.

    via_polytope selects nothing, as the polytope is the only route; the
    keyword is kept for perfbench/workloads.py, which passes True."""
    if not via_polytope:
        raise ValueError("I is integrated over the polytopes only")
    p = f.pieces[name]
    if p.is_zero():
        return Fraction(0)
    return canonical_polytope(name, f.eps).integrate(p * p)


def integrate_J(f: PiecewiseCutoff) -> Fraction:
    """Exact value of the slot-integrated quadratic functional:
    6 x the integral of g^2 over the J region {0 < y < x, x+y < 1-eps}."""
    g = _fibre_integrals(f)
    total = Fraction(0)
    for cell, segments in _fibre_programs(f.eps)[0]:
        inner = g(segments)
        total += _integral(inner * inner, cell)
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


@dataclass(frozen=True)
class CutoffVerification:
    """The exact checks of one cutoff, as verify_cutoff runs them."""

    eps: Fraction
    I: Fraction
    J: Fraction
    residuals: tuple  # (label, Poly3) per marginal identity, as check_marginals
    marginals_vanish: bool
    support_ok: bool

    @property
    def ok(self) -> bool:
        """Every marginal vanishes, the support holds and J > 2I > 0."""
        return self.marginals_vanish and self.support_ok and self.J > 2 * self.I > 0


def verify_cutoff(f: PiecewiseCutoff) -> CutoffVerification:
    """Full exact verification of a cutoff: I, J and the marginal residuals,
    each computed once, and the support, read from the inequality systems
    (each of the 60 pieces lies in the simplex).  A failed check shows in
    the result; nothing is raised."""
    residuals = tuple(check_marginals(f))
    support_ok = all(set(_SIMPLEX_ROWS) <= set(rows) for rows in _canonical_systems(f.eps).values())
    return CutoffVerification(
        f.eps, integrate_I(f), integrate_J(f), residuals,
        all(res.is_zero() for _, res in residuals), support_ok,
    )


def evaluate(f: PiecewiseCutoff, point):
    """Pointwise value of the symmetric extension (None on boundaries)."""
    where = _locate(f.eps, point)
    if where is None:
        return None
    return piece_polynomial(f, *where).eval(*point)
