import math

import numpy as np
import pytest

from primegaps.cutoff3d import (
    CANONICAL_NAMES,
    PiecewiseCutoff,
    Poly3,
    Polytope3,
    _cell_integral,
    _fibre_programs,
    _iterated_integral,
    _locate,
    build_partition,
    builtin_cutoff,
    canonical_polytope,
    check_marginals,
    evaluate,
    integrate_I,
    integrate_J,
    integrate_piece_I,
    piece_polynomial,
    verify_theorem_piece,
)
from primegaps.rational import Q

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
        z = Poly3.var("z")
        out = z.integrate("z", Poly3.const(0), Poly3.affine(1, -1))
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
        assert tet.integrate(poly) == _iterated_integral(poly, chain)
        assert tet.volume() == _iterated_integral(Poly3.const(1), chain)

    def test_partition_square_integral_is_I(self):
        f = builtin_cutoff()
        total = Q(0)
        for part in build_partition(f.eps):
            name, word = part.name.split("_")
            g = piece_polynomial(f, name, word)
            total += part.integrate(g * g)
        assert total == I_EXACT


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

    def test_verify_theorem_piece(self):
        assert verify_theorem_piece() is True

    @pytest.mark.parametrize("eps", sorted(OTHER_EPS_GOLDENS), ids=str)
    def test_other_eps_goldens(self, eps):
        f = PiecewiseCutoff(builtin_cutoff().pieces, eps)
        assert (integrate_I(f), integrate_J(f)) == OTHER_EPS_GOLDENS[eps]

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
            assert sum(_cell_integral(Poly3.const(1), ring) for ring, _ in cells) == area
            for ring, segments in cells:
                assert _cell_integral(Poly3.const(1), ring) > 0
                assert segments[0][2] == (0, 0, 0)
                assert segments[-1][3] == (Q(3, 2), -1, -1)
                for (_, _, _, hi), (_, _, lo, _) in zip(segments, segments[1:]):
                    assert hi == lo
                # the program holds at the centroid and halfway to each vertex
                cx = sum(v[0] for v in ring) / len(ring)
                cy = sum(v[1] for v in ring) / len(ring)
                for x, y in [(cx, cy)] + [((cx + vx) / 2, (cy + vy) / 2) for vx, vy in ring]:
                    for name, word, lo, hi in segments:
                        z_lo, z_hi = (b[0] + b[1] * x + b[2] * y for b in (lo, hi))
                        assert z_lo < z_hi
                        assert _locate(eps, (x, y, (z_lo + z_hi) / 2)) == (name, word)

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

    @pytest.mark.parametrize("eps", [Q(1, 2), Q(1, 10), Q(1, 4) - Q(1, 10**9)], ids=str)
    def test_eps_outside_partition_refused(self, eps):
        # the same one-line error as build_partition's
        with pytest.raises(ValueError, match=r"^the partition is valid for eps in \[1/4, 1/3\]$"):
            PiecewiseCutoff(builtin_cutoff().pieces, eps)

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
