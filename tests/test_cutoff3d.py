import hashlib
import itertools
import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps.cutoff3d import (
    CANONICAL_NAMES,
    WORDS,
    PiecewiseCutoff,
    Poly3,
    Polytope3,
    _fibre_programs,
    _integer_row,
    _integral,
    _locate,
    _simplex_integral,
    _vertices,
    build_partition,
    builtin_cutoff,
    canonical_polytope,
    check_marginals,
    evaluate,
    integrate_I,
    integrate_J,
    integrate_piece_I,
    piece_polynomial,
    verify_cutoff,
)

from .reference import (
    FractionPoly3,
    fraction_clip,
    fraction_polytope_contains,
    fraction_polytope_integrate,
    fraction_polytope_vertices,
    iterated_integral,
    slab_polygon_integral,
)

I_EXACT = Q(62082439864241, 507343011840)
J_EXACT = Q(9933190664926733, 40587440947200)
RATIO_EXCESS = Q(286648173, 4966595189139280)
# the built-in pieces at other eps, computed by the per-piece transcribed
# integration limits that this module used before it derived its programs
# from the partition (the polytope route gave the same I)
OTHER_EPS_GOLDENS = {
    Q(3, 10): (Q(227556533165970881, 1935360000000000),
               Q(30283655893101186407, 129024000000000000)),
    Q(1, 3): (Q(241139484289, 2116316160), Q(43171396328587, 190468454400)),
    # pinned from the Fraction polytope geometry, before it moved to integers
    Q(2, 7): (Q(9295228079507129, 78098756843520),
              Q(2600708368666231573, 10933825958092800)),
}
PARTITION_EPS = (Q(1, 4), Q(2, 7), Q(3, 10), Q(1, 3))
# SHA-256 of repr(check_marginals(f)) for the built-in pieces at each eps,
# pinned from the Fraction polytope geometry, before it moved to integers
MARGINAL_DIGESTS = {
    Q(1, 4): "2ce2498d6908986511ce7fb875629fa2e7c087ce32381d7854f715c569c81d1f",
    Q(2, 7): "0191735408d3c11a5dd218adc61287c74474bc24b4170486f698189d64289560",
    Q(3, 10): "5f0b1abf6c3d49b51009f463ee0d7e31ab3aff8acc2113c072bc1bb94b3997dc",
    Q(1, 3): "7c627e6bd28fa61856664a28d6c2cb0333f2615ba41cffe69799ceb1be5685e1",
}
# SHA-256 of the repr of each fibre program's cells, in order, as (sorted
# vertices, segments), pinned when the cells were vertex rings clipped in
# Fractions
FIBRE_PROGRAM_DIGESTS = {
    Q(1, 4): "2966368c5b21f7b4b881f048f6156812615b46c2c651da0c68abdf87f4fa8774",
    Q(2, 7): "67fafa0e469c1360ee2a0ccc2ac1322acb8773ca3b4960cb3a735603acadbb16",
    Q(3, 10): "7fbbb75bf8c44d64ffff041d1883fb5a44e4250c0a88e3a564fe18e43c59651c",
    Q(1, 3): "9892aac9f695241a993cd22d977e63c4dcef10438a0ba0f027e5fd41b61bd04d",
}
MARGINAL_LABELS = ["G_yzx", "T_yzx", "U_yzx+G_yzx", "E_yzx+S_yzx+H_yzx", "G_yzx+G_zyx",
                   "U_yzx+G_yzx+G_zyx"]


class TestPoly3:
    def test_mul_and_eval(self):
        p = Poly3.affine(1, 2, 0, -1)  # 1 + 2x - z
        q = p * p
        assert q.eval(Q(1, 2), 0, Q(1, 4)) == (1 + 1 - Q(1, 4)) ** 2

    def test_integrate_with_affine_limits(self):
        # int_0^{1-x} z dz = (1-x)^2/2
        F = Poly3.var("z").antiderivative("z")
        out = F.substitute("z", Poly3.affine(1, -1)) - F.substitute("z", Poly3.const(0))
        assert out == Poly3({(0, 0, 0): Q(1, 2), (1, 0, 0): -1, (2, 0, 0): Q(1, 2)})

    def test_permute(self):
        p = Poly3.var("x") * Poly3.var("x") * Poly3.var("y")
        assert p.permute("yzx") == Poly3.var("y") * Poly3.var("y") * Poly3.var("z")


class TestPartition:
    def test_sixty_pieces(self):
        parts = build_partition(Q(1, 4))
        assert len(parts) == 60
        assert len({p.name for p in parts}) == 60

    def test_volume_identity(self):
        for eps in (Q(1, 4), Q(1, 3)):
            total = sum((p.volume() for p in build_partition(eps)), Q(0))
            assert total == Q(9, 16), eps

    def test_nonempty_interiors(self):
        for name in CANONICAL_NAMES:
            assert canonical_polytope(name, Q(1, 4)).volume() > 0

    def test_membership_example(self):
        A = canonical_polytope("A", Q(1, 4))
        assert A.contains((Q(1, 10), Q(1, 20), Q(1, 5)))
        assert not A.contains((Q(1, 20), Q(1, 10), Q(1, 5)))  # wrong order

    def test_random_point_disjointness(self):
        parts = build_partition(Q(1, 4))
        rng = np.random.default_rng(99)
        inside_count = 0
        attempted = 0
        for _ in range(600):
            pt = tuple(Q(int(v), 10**6) for v in rng.integers(0, 1_500_000, 3))
            if sum(pt) >= Q(3, 2):
                continue
            attempted += 1
            hits = [p.name for p in parts if p.contains(pt)]
            assert len(hits) <= 1
            inside_count += len(hits)
        # every interior point off the (null) boundaries lies in one piece
        assert attempted > 50
        assert inside_count >= attempted - 3

    def test_eps_domain(self):
        build_partition(Q(1, 3))
        with pytest.raises(ValueError):
            build_partition(Q(1, 5))


_VERTEX_COORD = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def _simplices_and_polys(draw, n):
    """One or two n-simplices with rational vertices, the last one sometimes
    flattened onto the midpoint of two others (zero volume), and a rational
    polynomial in the first n variables of total degree at most 10, not
    homogeneous in general and sometimes zero."""
    simplices = []
    for _ in range(draw(st.integers(1, 2))):
        verts = draw(st.lists(st.tuples(*[_VERTEX_COORD] * n), min_size=n + 1, max_size=n + 1))
        if draw(st.booleans()) and n > 1:
            verts[-1] = tuple((a + b) / 2 for a, b in zip(verts[0], verts[1]))
        simplices.append(tuple(verts))
    keys = [key for key in itertools.product(range(11), repeat=3)
            if sum(key) <= 10 and not any(key[n:])]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=6, unique=True))
    return simplices, Poly3({key: draw(_VERTEX_COORD) for key in chosen})


def _chain_oracle(poly, simplex):
    """The integral over one simplex by the affine map from the standard one:
    poly composed with the map in Fraction polynomials of (u, v, w), named
    (x, y, z), integrated along u, v, w and scaled by |det| of the edges."""
    n = len(simplex) - 1
    apex, edges = simplex[0], [[c - a for c, a in zip(v, simplex[0])] for v in simplex[1:]]
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    forms = [FractionPoly3({(0, 0, 0): apex[axis], **{units[i]: e[axis] for i, e in enumerate(edges)}})
             for axis in range(n)]
    composed = FractionPoly3()
    for key, c in poly.terms.items():
        term = FractionPoly3.const(c)
        for form, e in zip(forms, key):
            for _ in range(e):
                term = term * form
        composed = composed + term
    one = Poly3.const(1)
    chain = [("x", Poly3(), one), ("y", Poly3(), one - Poly3.var("x")),
             ("z", Poly3(), one - Poly3.var("x") - Poly3.var("y"))][:n]
    return abs(_fraction_det(edges)) * iterated_integral(composed, chain)


def _fraction_det(m):
    """Laplace expansion along the first row."""
    if not m:
        return Q(1)
    return sum((-1) ** j * m[0][j] * _fraction_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


class TestSimplexKernel:
    def test_standard_simplex_monomials(self):
        rows = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, -1, -1, -1))
        simplex = Polytope3("simplex", tuple(tuple(Q(c) for c in row) for row in rows))
        f = math.factorial
        for a in range(7):
            for b in range(7 - a):
                for c in range(7 - a - b):
                    value = simplex.integrate(Poly3({(a, b, c): 1}))
                    assert value == Q(f(a) * f(b) * f(c), f(a + b + c + 3)), (a, b, c)

    def test_int_coefficients_are_exact(self):
        rows = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, -1, -1, -1))
        simplex = Polytope3("simplex", rows)
        vertices = simplex.vertices()
        assert vertices == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert all(type(c) is type(Q(0)) for v in vertices for c in v)
        assert simplex.volume() == Q(1, 6)
        # the rows read back as given, as Fractions
        assert simplex.inequalities == tuple(tuple(Q(c) for c in row) for row in rows)
        assert all(type(c) is type(Q(0)) for row in simplex.inequalities for c in row)

    def test_repeated_facet_row_counted_once(self):
        # x + y + z < 1 twice, the second time scaled: one facet, one fan
        rows = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, -1, -1, -1), (2, -2, -2, -2))
        assert Polytope3("simplex", rows).volume() == Q(1, 6)

    def test_rational_tetrahedron_against_chain(self):
        # {x > -1/3, y > 2/7, z > 1/7, x + 2y + 3z < 32/21}
        rows = ((Q(1, 3), 1, 0, 0), (Q(-2, 7), 0, 1, 0), (Q(-1, 7), 0, 0, 1),
                (Q(32, 21), -1, -2, -3))
        tet = Polytope3("tet", tuple(tuple(Q(c) for c in row) for row in rows))
        assert tet.vertices() == [
            (Q(-1, 3), Q(2, 7), Q(1, 7)), (Q(-1, 3), Q(2, 7), Q(3, 7)),
            (Q(-1, 3), Q(5, 7), Q(1, 7)), (Q(11, 21), Q(2, 7), Q(1, 7)),
        ]
        poly = Poly3({(4, 0, 0): 3, (1, 2, 1): -5, (0, 1, 3): Q(2, 7), (2, 1, 0): 1,
                      (0, 0, 1): Q(-1, 3), (0, 0, 0): 2})
        aff = Poly3.affine
        chain = [
            ("x", aff(Q(-1, 3)), aff(Q(11, 21))),
            ("y", aff(Q(2, 7)), aff(Q(23, 42), Q(-1, 2))),
            ("z", aff(Q(1, 7)), aff(Q(32, 63), Q(-1, 3), Q(-2, 3))),
        ]
        assert tet.integrate(poly) == iterated_integral(poly, chain)
        assert tet.volume() == iterated_integral(Poly3.const(1), chain)

    def test_standard_segment_monomials(self):
        # x^a over [0, 1] is a!/(a+1)!, whichever way the segment runs
        f = math.factorial
        for a in range(9):
            for segment in (((Q(0),), (Q(1),)), ((Q(1),), (Q(0),))):
                assert _simplex_integral(Poly3({(a, 0, 0): 1}), [segment]) == Q(f(a), f(a + 1)), a

    def test_standard_triangle_monomials(self):
        # x^a y^b over the standard triangle is a!b!/(a+b+2)!, in either orientation
        f = math.factorial
        ccw = ((Q(0), Q(0)), (Q(1), Q(0)), (Q(0), Q(1)))
        for a in range(7):
            for b in range(7 - a):
                for triangle in (ccw, ccw[::-1]):
                    value = _simplex_integral(Poly3({(a, b, 0): 1}), [triangle])
                    assert value == Q(f(a) * f(b), f(a + b + 2)), (a, b)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_vertex_formula_matches_chain_oracle(self, n, data):
        simplices, poly = data.draw(_simplices_and_polys(n))
        expected = sum((_chain_oracle(poly, s) for s in simplices), Q(0))
        assert _simplex_integral(poly, simplices) == expected

    def test_partition_square_integral_is_I(self):
        f = builtin_cutoff()
        total = Q(0)
        for part in build_partition(f.eps):
            name, word = part.name.split("_")
            g = piece_polynomial(f, name, word)
            total += part.integrate(g * g)
        assert total == I_EXACT


_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_SECTOR_ROWS = ((0, 1, -1), (0, 0, 1), (3, -2, -2))  # 0 < y < x, x+y < 3/2


@st.composite
def _sector_cells(draw):
    """A convex cell of the sector {0 < y < x, x+y < 3/2}, cut 1 to 3 times
    by a random rational line through a random interior point: its integer
    rows, and its vertex ring clipped in Fractions."""
    rows = _SECTOR_ROWS
    ring = ((Q(0), Q(0)), (Q(3, 2), Q(0)), (Q(3, 4), Q(3, 4)))
    for _ in range(draw(st.integers(1, 3))):
        weights = [draw(st.integers(1, 9)) for _ in ring]
        px, py = (sum(w * v[i] for w, v in zip(weights, ring)) / sum(weights) for i in (0, 1))
        cx, cy = draw(_RATIONAL.filter(bool)), draw(_RATIONAL)
        form = (-cx * px - cy * py, cx, cy)
        rows += (_integer_row(form),)
        ring = fraction_clip(ring, form)
    return rows, ring


@st.composite
def _bivariate_polys(draw):
    """A random rational polynomial in (x, y) of total degree at most 6."""
    keys = [(a, b, 0) for a in range(7) for b in range(7 - a)]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=8, unique=True))
    return Poly3({key: draw(_RATIONAL) for key in chosen})


class TestCellIntegral:
    """Cells of integer rows against the Fraction vertex rings and the slab
    integral they replaced (tests/reference.py)."""

    @settings(max_examples=60, deadline=None)
    @given(cell=_sector_cells(), poly=_bivariate_polys())
    def test_pulling_triangulation_matches_slab_oracle(self, cell, poly):
        rows, ring = cell
        assert _vertices(rows) == sorted(ring)
        expected = slab_polygon_integral(poly, ring)
        assert _integral(poly, rows) == expected
        # the integral does not depend on the order of the rows
        assert _integral(poly, rows[::-1]) == expected

    def test_square_with_repeated_and_touching_rows(self):
        # the unit square, with x < 1 twice and x + y > 0 touching only (0, 0)
        square = ((0, 1, 0), (1, -1, 0), (0, 0, 1), (1, 0, -1))
        ring = ((Q(0), Q(0)), (Q(1), Q(0)), (Q(1), Q(1)), (Q(0), Q(1)))
        poly = Poly3({(0, 0, 0): 2, (3, 1, 0): -5, (0, 2, 0): Q(1, 3)})
        for rows in (square, square + ((1, -1, 0),), square + ((0, 1, 1),),
                     ((0, 1, 1), (1, -1, 0)) + square):
            assert _vertices(rows) == sorted(ring), rows
            assert _integral(Poly3.const(1), rows) == 1, rows
            assert _integral(poly, rows) == slab_polygon_integral(poly, ring), rows


_COORD = st.fractions(min_value=-2, max_value=2, max_denominator=9)
_POINTS = st.tuples(_COORD, _COORD, _COORD)
_SCALE = st.fractions(min_value=Q(1, 7), max_value=5, max_denominator=7).filter(lambda q: q > 0)


def _cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot3(a, b):
    return sum(u * v for u, v in zip(a, b))


def _edges(pts):
    return [tuple(u - v for u, v in zip(p, pts[0])) for p in pts[1:]]


@st.composite
def _tetrahedra(draw):
    """Four affinely independent rational points, and the rows of their
    tetrahedron: each facet plane oriented toward the opposite vertex and
    scaled by a random positive rational."""
    pts = draw(st.lists(_POINTS, min_size=4, max_size=4)
               .filter(lambda pts: _dot3(_edges(pts)[0], _cross3(*_edges(pts)[1:])) != 0))
    rows = []
    for i, opposite in enumerate(pts):
        a, b, c = (p for j, p in enumerate(pts) if j != i)
        normal = _cross3(_edges([a, b])[0], _edges([a, c])[0])
        if _dot3(normal, opposite) < _dot3(normal, a):
            normal = tuple(-v for v in normal)
        scale = draw(_SCALE)
        rows.append(tuple(scale * v for v in (-_dot3(normal, a), *normal)))
    return pts, tuple(rows)


@st.composite
def _boxes(draw):
    """The corners lo < hi of a rational box, and its rows, each scaled by a
    random positive rational."""
    lo, hi = [], []
    for _ in range(3):
        a, b = draw(st.lists(_COORD, min_size=2, max_size=2, unique=True).map(sorted))
        lo.append(a)
        hi.append(b)
    rows = []
    for axis in range(3):
        unit = [0, 0, 0]
        unit[axis] = 1
        rows.append((-lo[axis], *unit))                  # x_axis > lo
        rows.append((hi[axis], *(-u for u in unit)))     # x_axis < hi
    scaled = []
    for row in rows:
        scale = draw(_SCALE)
        scaled.append(tuple(scale * c for c in row))
    return tuple(lo), tuple(hi), tuple(scaled)


@st.composite
def _trivariate_polys(draw):
    """A random rational polynomial in (x, y, z) of total degree at most 4."""
    keys = [(a, b, c) for a in range(5) for b in range(5 - a) for c in range(5 - a - b)]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6, unique=True))
    return Poly3({key: draw(_RATIONAL) for key in chosen})


def _matches_fraction_oracle(rows, poly, points):
    polytope = Polytope3("drawn", rows)
    assert polytope.vertices() == fraction_polytope_vertices(rows)
    assert polytope.integrate(poly) == fraction_polytope_integrate(rows, poly)
    for point in points:
        for strict in (True, False):
            assert polytope.contains(point, strict) == fraction_polytope_contains(rows, point, strict)
    return polytope


class TestIntegerGeometry:
    """Vertices, facets and point tests in integers against the Fraction
    geometry they replaced (tests/reference.py)."""

    @pytest.mark.parametrize("eps", PARTITION_EPS, ids=str)
    def test_partition_matches_fraction_oracle(self, eps):
        f = PiecewiseCutoff(builtin_cutoff().pieces, eps)
        for part in build_partition(eps):
            poly = piece_polynomial(f, *part.name.split("_")) + 1
            assert part.vertices() == fraction_polytope_vertices(part.inequalities), part.name
            assert part.integrate(poly) == fraction_polytope_integrate(part.inequalities, poly), part.name

    @settings(max_examples=60, deadline=None)
    @given(drawn=_tetrahedra(), poly=_trivariate_polys(), points=st.lists(_POINTS, max_size=6))
    def test_tetrahedra(self, drawn, poly, points):
        pts, rows = drawn
        a, b, c, d = pts
        mid = lambda *vs: tuple(sum(v[i] for v in vs) / len(vs) for i in range(3))
        # on a facet, on an edge, at a vertex, and inside
        boundary = [mid(a, b, c), mid(a, b), d]
        tet = _matches_fraction_oracle(rows, poly, points + boundary + [mid(a, b, c, d)])
        assert tet.vertices() == sorted(pts)
        assert tet.volume() == abs(_dot3(_edges(pts)[0], _cross3(*_edges(pts)[1:]))) / 6
        for point in boundary:
            assert not tet.contains(point) and tet.contains(point, strict=False)
        assert tet.contains(mid(a, b, c, d))

    @settings(max_examples=60, deadline=None)
    @given(drawn=_boxes(), poly=_trivariate_polys(), points=st.lists(_POINTS, max_size=6))
    def test_boxes(self, drawn, poly, points):
        lo, hi, rows = drawn
        mid = tuple((u + v) / 2 for u, v in zip(lo, hi))
        # on a facet, on an edge, at a vertex, and inside
        boundary = [(mid[0], mid[1], lo[2]), (lo[0], mid[1], hi[2]), hi]
        box = _matches_fraction_oracle(rows, poly, points + boundary + [mid])
        assert len(box.vertices()) == 8
        assert box.volume() == math.prod(v - u for u, v in zip(lo, hi))
        for point in boundary:
            assert not box.contains(point) and box.contains(point, strict=False)
        assert box.contains(mid)

    @pytest.mark.parametrize("rows, apex, volume", [
        # apex (1/2, 1/2, 1) over the unit square at z = 0
        (((0, 0, 0, 1), (0, 0, 2, -1), (0, 2, 0, -1), (2, 0, -2, -1), (2, -2, 0, -1)),
         (Q(1, 2), Q(1, 2), Q(1)), Q(1, 3)),
        # apex (0, 1/2, 1/2) over the unit square at x = 1: the first vertex,
        # so the triangulation pulls from it
        (((1, -1, 0, 0), (-1, 1, 2, 0), (-1, 1, 0, 2), (1, 1, -2, 0), (1, 1, 0, -2)),
         (Q(0), Q(1, 2), Q(1, 2)), Q(1, 3)),
    ], ids=["apex-not-first", "apex-first"])
    def test_square_pyramid(self, rows, apex, volume):
        # the apex is tight at four rows
        poly = Poly3({(0, 0, 0): 1, (2, 1, 0): -3, (0, 1, 2): Q(5, 7), (1, 0, 3): 2})
        pyramid = _matches_fraction_oracle(rows, poly, [apex])
        assert len(pyramid.vertices()) == 5 and apex in pyramid.vertices()
        assert pyramid.volume() == volume

    def test_octahedron(self):
        # |x| + |y| + |z| < 1: every vertex is tight at four rows
        rows = tuple((1, -a, -b, -c) for a in (1, -1) for b in (1, -1) for c in (1, -1))
        poly = Poly3({(0, 0, 0): 2, (2, 0, 0): -1, (1, 1, 1): 4, (0, 0, 4): Q(3, 5), (1, 0, 0): 1})
        octahedron = _matches_fraction_oracle(rows, poly, [(0, 0, 0), (1, 0, 0), (Q(1, 2), Q(1, 2), 0)])
        assert len(octahedron.vertices()) == 6
        assert octahedron.volume() == Q(4, 3)

    @settings(max_examples=40, deadline=None)
    @given(drawn=_boxes(), normal=_POINTS.filter(any), poly=_trivariate_polys(),
           points=st.lists(_POINTS, max_size=6))
    def test_boxes_cut_through_centre(self, drawn, normal, poly, points):
        # a plane through the centre leaves faces of 3 to 6 vertices
        lo, hi, rows = drawn
        mid = tuple((u + v) / 2 for u, v in zip(lo, hi))
        cut = rows + ((-_dot3(normal, mid), *normal),)
        _matches_fraction_oracle(cut, poly, points + [mid, lo, hi])


@st.composite
def _poly_terms(draw, degree=3):
    """Random rational coefficients, zeros among them, of total degree at most
    `degree`: possibly no terms at all."""
    keys = [(a, b, c) for a in range(degree + 1) for b in range(degree + 1 - a)
            for c in range(degree + 1 - a - b)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=6, unique=True))
    return {key: draw(_RATIONAL) for key in chosen}


def _agrees(poly, ref):
    """poly is in canonical form and holds the oracle's coefficients."""
    assert poly.den > 0 and math.gcd(poly.den, *poly.num.values()) == 1
    assert all(poly.num.values())
    assert poly.terms == ref.terms and repr(poly) == repr(ref)


class TestIntegerPoly3:
    """Poly3 in integer numerators over one denominator against the Fraction
    polynomials it replaced (tests/reference.py)."""

    @settings(max_examples=150, deadline=None)
    @given(a=_poly_terms(), b=_poly_terms(), c=_RATIONAL, word=st.sampled_from(WORDS),
           name=st.sampled_from("xyz"), limit=_poly_terms(degree=2), point=_POINTS)
    def test_matches_fraction_oracle(self, a, b, c, word, name, limit, point):
        p, q, v = Poly3(a), Poly3(b), Poly3(limit)
        rp, rq, rv = FractionPoly3(a), FractionPoly3(b), FractionPoly3(limit)
        for poly, ref in [(p, rp), (q, rq), (p + q, rp + rq), (p - q, rp - rq), (p * q, rp * rq),
                          (p + c, rp + c), (p - c, rp - c), (c * p, c * rp), (-p, -rp),
                          (p.permute(word), rp.permute(word)),
                          (p.substitute(name, v), rp.substitute(name, rv)),
                          (p.antiderivative(name), rp.antiderivative(name))]:
            _agrees(poly, ref)
        value = p.eval(*point)
        assert type(value) is Q and value == rp.eval(*point)
        # equality and hash follow the value, whatever route built it
        assert (p == q) == (rp == rq)
        for same in ((p + q) - q, Poly3(rp.terms), p * 1):
            assert same == p and hash(same) == hash(p)
        assert (Poly3.const(c) == c) and (Poly3.const(c) + p == p + c)


class TestExactValues:
    def test_marginals_vanish(self):
        for label, residual in check_marginals(builtin_cutoff()):
            assert residual.is_zero(), label

    def test_integral_I(self):
        assert integrate_I(builtin_cutoff()) == I_EXACT

    def test_integral_J(self):
        assert integrate_J(builtin_cutoff()) == J_EXACT

    def test_ratio_excess(self):
        f = builtin_cutoff()
        assert integrate_J(f) / integrate_I(f) - 2 == RATIO_EXCESS

    def test_verify_cutoff(self):
        f = builtin_cutoff()
        v = verify_cutoff(f)
        assert (v.eps, v.I, v.J) == (Q(1, 4), I_EXACT, J_EXACT)
        assert v.residuals == tuple(check_marginals(f))
        assert v.marginals_vanish and v.support_ok and v.ok

    @pytest.mark.parametrize("eps", sorted(OTHER_EPS_GOLDENS), ids=str)
    def test_other_eps_goldens(self, eps):
        f = PiecewiseCutoff(builtin_cutoff().pieces, eps)
        assert (integrate_I(f), integrate_J(f)) == OTHER_EPS_GOLDENS[eps]

    @pytest.mark.parametrize("eps", PARTITION_EPS, ids=str)
    def test_marginal_residuals_pinned(self, eps):
        report = repr(check_marginals(PiecewiseCutoff(builtin_cutoff().pieces, eps)))
        assert hashlib.sha256(report.encode()).hexdigest() == MARGINAL_DIGESTS[eps]

    def test_marginal_labels(self):
        labels = [label for label, _ in check_marginals(builtin_cutoff())]
        assert labels == MARGINAL_LABELS
        for eps in (Q(2, 7), Q(1, 3)):
            labels = [label for label, _ in check_marginals(PiecewiseCutoff({}, eps))]
            assert len(set(labels)) == len(labels), eps

    def test_polytope_is_the_only_route_for_I(self):
        f = builtin_cutoff()
        assert integrate_piece_I(f, "A", via_polytope=True) == integrate_piece_I(f, "A")
        with pytest.raises(ValueError, match="polytopes only"):
            integrate_piece_I(f, "A", via_polytope=False)


class TestFibrePrograms:
    @pytest.mark.parametrize("eps", [Q(1, 4), Q(2, 7), Q(1, 3)], ids=str)
    def test_cells_tile_regions(self, eps):
        """The cells tile the J region and the far outer region, and over
        each cell the segments run contiguously from z = 0 to 3/2-x-y."""
        j_cells, far_cells = _fibre_programs(eps)
        areas = [(1 - eps) ** 2 / 4, (Q(9, 4) - (1 + eps) ** 2) / 4]
        for cells, area in zip((j_cells, far_cells), areas):
            assert sum(_integral(Poly3.const(1), cell) for cell, _ in cells) == area
            for cell, segments in cells:
                assert _integral(Poly3.const(1), cell) > 0
                assert segments[0][2] == (0, 0, 0)
                assert segments[-1][3] == (Q(3, 2), -1, -1)
                for (_, _, _, hi), (_, _, lo, _) in zip(segments, segments[1:]):
                    assert hi == lo
                # the program holds at the centroid and halfway to each vertex
                verts = _vertices(cell)
                cx = sum(v[0] for v in verts) / len(verts)
                cy = sum(v[1] for v in verts) / len(verts)
                for x, y in [(cx, cy)] + [((cx + vx) / 2, (cy + vy) / 2) for vx, vy in verts]:
                    for name, word, lo, hi in segments:
                        z_lo, z_hi = (b[0] + b[1] * x + b[2] * y for b in (lo, hi))
                        assert z_lo < z_hi
                        assert _locate(eps, (x, y, (z_lo + z_hi) / 2)) == (name, word)

    @pytest.mark.parametrize("eps", PARTITION_EPS, ids=str)
    def test_programs_pinned(self, eps):
        programs = [[(tuple(_vertices(cell)), segments) for cell, segments in region]
                    for region in _fibre_programs(eps)]
        assert hashlib.sha256(repr(programs).encode()).hexdigest() == FIBRE_PROGRAM_DIGESTS[eps]

    def test_cell_counts(self):
        j_cells, far_cells = _fibre_programs(Q(1, 4))
        assert (len(j_cells), len(far_cells)) == (8, 13)

    def test_locator_matches_partition(self):
        parts = build_partition(Q(1, 4))
        rng = np.random.default_rng(7)
        for _ in range(150):
            pt = tuple(Q(int(v), 10**4) for v in rng.integers(0, 15_000, 3))
            hits = [p.name for p in parts if p.contains(pt)]
            where = _locate(Q(1, 4), pt)
            assert hits == ([] if where is None else ["_".join(where)]), pt


class TestDegenerateCutoffs:
    def test_zero(self):
        zero = PiecewiseCutoff({}, Q(1, 4))
        assert integrate_I(zero) == 0
        assert integrate_J(zero) == 0
        assert all(res.is_zero() for _, res in check_marginals(zero))

    def test_constant_one_gives_volume(self):
        ones = PiecewiseCutoff({n: {(0, 0, 0): 1} for n in CANONICAL_NAMES}, Q(1, 4))
        assert integrate_I(ones) == Q(9, 16)

    def test_nonzero_middle_piece_increases_I_only(self):
        f = builtin_cutoff()
        g = f.with_piece("D", Poly3.const(3))
        assert integrate_I(g) > integrate_I(f)
        assert integrate_J(g) == integrate_J(f)
        assert integrate_J(g) / integrate_I(g) < integrate_J(f) / integrate_I(f)

    def test_perturbed_piece_breaks_marginal(self):
        g = builtin_cutoff().with_piece("H", Poly3({(0, 0, 1): 9}))
        residuals = dict(check_marginals(g))
        broken = [label for label, res in residuals.items() if not res.is_zero()]
        assert broken == ["E_yzx+S_yzx+H_yzx"]  # untouched identities stay intact

    def test_verify_cutoff_reports_broken_marginal(self):
        v = verify_cutoff(builtin_cutoff().with_piece("H", Poly3({(0, 0, 1): 9})))
        assert not v.marginals_vanish and v.support_ok and not v.ok
        nonzero = [label for label, res in v.residuals if not res.is_zero()]
        assert nonzero == ["E_yzx+S_yzx+H_yzx"]

    def test_verify_cutoff_ratio_at_most_two(self):
        v = verify_cutoff(builtin_cutoff().with_piece("D", Poly3.const(3)))
        assert v.marginals_vanish and v.support_ok
        assert v.J <= 2 * v.I and not v.ok
        zero = verify_cutoff(PiecewiseCutoff({}, Q(1, 4)))
        assert (zero.I, zero.J, zero.marginals_vanish) == (0, 0, True) and not zero.ok

    def test_verify_cutoff_reads_support_from_systems(self, monkeypatch):
        from primegaps import cutoff3d

        f = builtin_cutoff()
        assert verify_cutoff(f).ok  # fills the polytope and fibre caches first
        systems = cutoff3d._canonical_systems

        def without_z_positive(e):
            return {name: [row for row in rows if row != (0, 0, 0, 1)] for name, rows in systems(e).items()}

        monkeypatch.setattr(cutoff3d, "_canonical_systems", without_z_positive)
        v = verify_cutoff(f)
        assert v.marginals_vanish and v.J > 2 * v.I
        assert not v.support_ok and not v.ok

    @pytest.mark.parametrize("eps", [Q(1, 2), Q(1, 10), Q(1, 4) - Q(1, 10**9)], ids=str)
    def test_eps_outside_partition_refused(self, eps):
        # the same one-line error as build_partition's
        for make in (
            lambda: PiecewiseCutoff(builtin_cutoff().pieces, eps),
            lambda: canonical_polytope("S", eps),  # at eps = 1/2 its volume would be 0
        ):
            with pytest.raises(ValueError, match=r"^the partition is valid for eps in \[1/4, 1/3\]$"):
                make()

    def test_marginals_fail_at_other_eps(self):
        # the built-in coefficients are tuned to eps = 1/4
        g = PiecewiseCutoff(builtin_cutoff().pieces, Q(1, 3))
        assert any(not res.is_zero() for _, res in check_marginals(g))


class TestSymmetry:
    def test_permuted_piece_values(self):
        f = builtin_cutoff()
        poly = piece_polynomial(f, "A", "yzx")
        canon = f.pieces["A"]
        pt = (Q(1, 10), Q(1, 20), Q(1, 5))
        assert poly.eval(*pt) == canon.eval(pt[1], pt[2], pt[0])

    def test_evaluate_respects_symmetry(self):
        f = builtin_cutoff()
        rng = np.random.default_rng(3)
        hits = 0
        attempted = 0
        for _ in range(400):
            pt = [Q(int(v), 10**6) for v in rng.integers(0, 1_400_000, 3)]
            if sum(pt) >= Q(3, 2):
                continue
            attempted += 1
            vals = {evaluate(f, (pt[0], pt[1], pt[2])), evaluate(f, (pt[2], pt[0], pt[1])),
                    evaluate(f, (pt[1], pt[0], pt[2]))}
            assert len(vals) == 1
            if vals != {None}:
                hits += 1
        assert attempted > 40 and hits >= attempted - 3

    def test_unknown_names_rejected(self):
        f = builtin_cutoff()
        with pytest.raises(KeyError):
            piece_polynomial(f, "Q")
        with pytest.raises(KeyError):
            piece_polynomial(f, "A", "xxy")

    def test_unknown_piece_in_cutoff_refused(self):
        # an unknown name is refused, not dropped from the cutoff
        with pytest.raises(ValueError, match=r"^unknown canonical piece 'Z'$"):
            PiecewiseCutoff({"A": {(0, 0, 0): 1}, "Z": {(0, 0, 0): 1}}, Q(1, 4))
        with pytest.raises(ValueError, match=r"^unknown canonical piece 'Z'$"):
            builtin_cutoff().with_piece("Z", Poly3.const(1))
        assert builtin_cutoff().with_piece("D", {(0, 0, 0): 3}).pieces["D"] == Poly3.const(3)


def _classify_eval(f, pts):
    """Vectorized float evaluation of the symmetric extension at pts (n,3).

    Independent of the fibre programs and of the exact locator: points are
    sorted into the canonical sector and located by float masks written from
    the inequality chains.
    """
    eps = float(f.eps)
    lo, hi = 1 - eps, 1 + eps
    srt = np.sort(pts, axis=1)
    y, x, z = srt[:, 0], srt[:, 1], srt[:, 2]  # min, mid, max
    vals = np.zeros(len(pts))
    masks = {
        "A": (z + x < lo),
        "B": (y + z < lo) & (z + x > lo) & (z + x < hi),
        "C": (x + y < lo) & (y + z > lo) & (z + x < hi),
        "D": (x + y > lo) & (z + x < hi),
        "E": (y + z < lo) & (z + x > hi),
        "S": (x + y < lo) & (y + z > lo) & (y + z < hi) & (z + x > hi) & (z < 0.5 + eps),
        "T": (x + y < lo) & (y + z > lo) & (y + z < hi) & (z + x > hi)
             & (z > 0.5 + eps) & (x > 0.5 - eps),
        "U": (x + y < lo) & (y + z > lo) & (y + z < hi) & (z + x > hi) & (x < 0.5 - eps),
        "G": (x + y < lo) & (y + z > hi),
        "H": (x + y > lo) & (y + z < hi) & (z + x > hi),
    }
    total = np.zeros(len(pts), dtype=bool)
    for name, mask in masks.items():
        poly = f.pieces[name]
        if poly.is_zero():
            total |= mask
            continue
        acc = np.zeros(len(pts))
        for (i, j, l), c in poly.terms.items():
            acc += float(c) * x**i * y**j * z**l
        vals[mask] = acc[mask]
        assert not np.any(total & mask), f"overlap at {name}"
        total |= mask
    return vals


class TestMonteCarloSanity:
    def test_I_and_J_against_monte_carlo(self):
        f = builtin_cutoff()
        I = float(integrate_I(f))
        J = float(integrate_J(f))
        rng = np.random.default_rng(20240808)
        n_total, chunk = 10_000_000, 1_000_000

        # I: uniform samples in the bounding cube, F^2 averaged
        acc = 0.0
        acc2 = 0.0
        for _ in range(n_total // chunk):
            pts = rng.random((chunk, 3)) * 1.5
            inside = pts.sum(axis=1) <= 1.5
            v = np.zeros(chunk)
            v[inside] = _classify_eval(f, pts[inside]) ** 2
            acc += v.sum()
            acc2 += (v**2).sum()
        vol = 1.5**3
        mean = acc / n_total
        var = acc2 / n_total - mean**2
        est_I = mean * vol
        sigma_I = vol * (var / n_total) ** 0.5
        assert abs(est_I - I) < 3 * sigma_I + 1e-9

        # J: 3 * int over {x+y<=1-eps} of (int F dz)^2; sample (x,y,z,z')
        eps = float(f.eps)
        acc = 0.0
        acc2 = 0.0
        tri = 0
        for _ in range(n_total // chunk):
            xy = rng.random((chunk, 2)) * (1 - eps)
            keep = xy.sum(axis=1) <= 1 - eps
            xy = xy[keep]
            tri += len(xy)
            c = 1.5 - xy.sum(axis=1)
            z1 = rng.random(len(xy)) * c
            z2 = rng.random(len(xy)) * c
            f1 = _classify_eval(f, np.column_stack([xy, z1]))
            f2 = _classify_eval(f, np.column_stack([xy, z2]))
            v = c * c * f1 * f2
            acc += v.sum()
            acc2 += (v**2).sum()
        mean = acc / tri
        var = acc2 / tri - mean**2
        area = (1 - eps) ** 2 / 2
        est_J = 3 * area * mean
        sigma_J = 3 * area * (var / tri) ** 0.5
        assert abs(est_J - J) < 3 * sigma_J
