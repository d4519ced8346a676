import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from primegaps.symmpoly import (
    Signature,
    _apply_L_int,
    _struct_constants,
    affine_apply_L,
    affine_integral,
    affine_multiply,
)
from primegaps.varprob import _basis_signatures

from .reference import enumerated_struct_constants, per_term_apply_L_int


def simplex_monomial_oracle(a, exponents):
    """Independent iterated 1-D integration of (1-sum t)^a * prod t^e.

    Works budget-first: int_0^u t^e (u-t)^c dt = u^(e+c+1) * B where B is
    the alternating binomial sum  sum_j C(c,j) (-1)^j / (e+j+1); folding the
    variables in one at a time keeps everything a monomial in the remaining
    budget u.  This never uses the factorial formula under test.
    """
    power = a
    coeff = Q(1)
    for e in exponents:
        B = Q(0)
        for j in range(power + 1):
            B += Q(math.comb(power, j) * (-1) ** j, e + j + 1)
        coeff *= B
        power = e + power + 1
    return coeff  # evaluated at total budget u = 1


def plain(terms):
    """Affine form of sum c * P_alpha (every affine exponent 0)."""
    return {(0,) + tuple(sig): Q(c) for sig, c in terms.items() if c != 0}


def expand(terms, k):
    """P_alpha coefficients of an affine-form polynomial, multiplying out
    each (1 - P_(1))^a with affine_multiply."""
    one_minus_p1 = plain({(): 1, (1,): -1})
    out = {}
    for key, c in terms.items():
        poly = {(0,) + key[1:]: c}
        for _ in range(key[0]):
            poly = affine_multiply(poly, one_minus_p1, k)
        for pkey, v in poly.items():
            out[pkey[1:]] = out.get(pkey[1:], 0) + v
    return {sig: v for sig, v in out.items() if v != 0}


def combine(*scaled):
    """sum c * f over (c, f) pairs of affine-form polynomials."""
    out = {}
    for c, f in scaled:
        for key, v in f.items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v != 0}


def evaluate(terms, k, t):
    """Value at the point t: sum c (1 - sum t)^a P_alpha(t), with P_alpha
    summed over its distinct exponent vectors (independent of the code)."""
    total = Q(0)
    for key, c in terms.items():
        a, alpha = key[0], key[1:]
        mono = Q(0)
        for exps in set(itertools.permutations(alpha + (0,) * (k - len(alpha)))):
            mono += math.prod(ti**e for ti, e in zip(t, exps))
        total += c * (1 - sum(t)) ** a * mono
    return total


def partitions(d, top=None):
    """Every signature of degree d with parts at most top."""
    if d == 0:
        yield ()
        return
    for p in range(min(d, top or d), 0, -1):
        for rest in partitions(d - p, p):
            yield (p,) + rest


def rand_poly(k, deg, rng):
    sigs = [(), (1,), (2,), (1, 1), (3,), (2, 1), (2, 2), (4,)]
    return plain({s: rng.randint(-4, 4) for s in sigs if sum(s) <= deg and len(s) <= k})


class TestSignature:
    def test_valid(self):
        s = Signature((3, 2, 2))
        assert s.degree == 7 and len(s) == 3
        assert not s.has_one

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            Signature((1, 2))
        with pytest.raises(ValueError):
            Signature((2, 0))


class TestBetaIntegral:
    """The Beta identity, through single-term affine_integral."""

    def test_unit_interval(self):
        assert affine_integral({(0,): Q(1)}, 1) == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_volume(self, k):
        assert affine_integral({(0,): Q(1)}, k) == Q(1, math.factorial(k))

    def test_linear_case(self):
        # int_0^1 (1-t) t dt
        assert affine_integral({(1, 1): Q(1)}, 1) == Q(1, 6)

    def test_against_iterated_oracle_exhaustive(self):
        # every k <= 4, every a <= 3, every exponent vector with entries <= 3;
        # a single term P_alpha sums the monomial over its distinct exponent
        # vectors
        for k in range(1, 5):
            for a in range(4):
                for exps in itertools.product(range(4), repeat=k):
                    alpha = tuple(sorted((e for e in exps if e), reverse=True))
                    expect = sum(
                        (simplex_monomial_oracle(a, v) for v in set(itertools.permutations(exps))),
                        Q(0),
                    )
                    assert affine_integral({(a,) + alpha: Q(1)}, k) == expect

    @pytest.mark.parametrize(
        "offset,scale",
        [(Q(26, 25), Q(26, 25)), (Q(26, 25), Q(24, 25)), (Q(3, 2), Q(1, 3)), (Q(1), Q(2, 3)),
         (Q(0), Q(1, 2))],
        ids=["eps-m1", "eps-m2", "wide", "shrunk", "zero-offset"],
    )
    def test_offset_and_scale_against_iterated_oracle(self, offset, scale):
        # over scale*R_k, (offset - P_(1))^a = (shift + scale (1 - P_(1)(u)))^a
        # with shift = offset - scale: expand binomially, integrate each power
        # with the iterated oracle, and scale the volume element
        shift = offset - scale
        for k in range(1, 4):
            for a in range(4):
                for alpha in ((), (1,), (2,), (2, 1), (3, 2), (2, 2, 1)):
                    if len(alpha) > k:
                        continue
                    vecs = set(itertools.permutations(alpha + (0,) * (k - len(alpha))))
                    expect = scale ** (sum(alpha) + k) * sum(
                        (math.comb(a, j) * shift ** (a - j) * scale**j * simplex_monomial_oracle(j, v)
                         for j in range(a + 1) for v in vecs),
                        Q(0),
                    )
                    assert affine_integral({(a,) + alpha: Q(1)}, k, offset, scale) == expect

    def test_against_sympy_spot_checks(self):
        sympy = pytest.importorskip("sympy")
        t1, t2 = sympy.symbols("t1 t2", nonnegative=True)
        val = sympy.integrate(
            sympy.integrate((1 - t1 - t2) ** 2 * t1**3 * t2, (t2, 0, 1 - t1)),
            (t1, 0, 1),
        )
        num, den = sympy.fraction(val)
        # P_(3,1) in two variables is t1^3 t2 + t1 t2^3: twice the integral
        assert affine_integral({(2, 3, 1): Q(1)}, 2) == 2 * Q(int(num), int(den))


class TestMultiply:
    def test_p1_squared(self):
        for k in (2, 3, 6):
            p1 = plain({(1,): 1})
            assert affine_multiply(p1, p1, k) == plain({(2,): 1, (1, 1): 2})

    def test_p1_times_p2(self):
        out = affine_multiply(plain({(1,): 1}), plain({(2,): 1}), 3)
        assert out == plain({(3,): 1, (2, 1): 1})

    def test_k2_p1_times_p11(self):
        out = affine_multiply(plain({(1,): 1}), plain({(1, 1): 1}), 2)
        assert out == plain({(2, 1): 1})

    def test_commutative_associative(self):
        rng = random.Random(7)
        for k in (2, 3, 4):
            f, g, h = (rand_poly(k, 4, rng) for _ in range(3))
            assert affine_multiply(f, g, k) == affine_multiply(g, f, k)
            fg_h = affine_multiply(affine_multiply(f, g, k), h, k)
            assert fg_h == affine_multiply(f, affine_multiply(g, h, k), k)

    def test_length_overflow_truncates(self):
        # in 2 variables P_(1,1) * P_(1,1) = P_(2,2): no length-3 terms
        p11 = plain({(1, 1): 1})
        assert affine_multiply(p11, p11, 2) == plain({(2, 2): 1})

    def test_against_point_evaluation(self):
        rng = random.Random(5)
        for k in (2, 3, 4):
            f, g = rand_poly(k, 3, rng), rand_poly(k, 3, rng)
            f[(2, 2)] = Q(3)  # an affine exponent, to cover the (1-P_(1))^a factor
            fg = affine_multiply(f, g, k)
            for _ in range(3):
                t = [Q(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(k)]
                assert evaluate(fg, k, t) == evaluate(f, k, t) * evaluate(g, k, t)

    def test_structure_constants_k_independent(self):
        # every pair of signatures free of 1s with degree <= 6: the product
        # computed in min(k, len(alpha) + len(beta)) variables equals the
        # structure constants enumerated in all k variables
        sigs = [(), (2,), (3,), (4,), (5,), (6,), (2, 2), (3, 2), (4, 2), (3, 3), (2, 2, 2)]
        for alpha, beta in itertools.product(sigs, repeat=2):
            ell = len(alpha) + len(beta)
            for k in sorted({ell, ell + 1, 10} | ({ell - 1} if ell > 1 else set())):
                full = enumerated_struct_constants(alpha, beta, k)
                assert _struct_constants(alpha, beta, min(k, ell)) == full
                product = affine_multiply({(0,) + alpha: Q(1)}, {(0,) + beta: Q(1)}, k)
                assert product == {(0,) + gamma: Q(c) for gamma, c in full}

    def test_structure_constants_match_enumeration(self):
        # every pair of signatures, parts equal to 1 included, whose product
        # has degree <= 8, counted in fewer, exactly and more variables than
        # the product needs
        sigs = [()] + [sig for d in range(1, 9) for sig in partitions(d)]
        for alpha, beta in itertools.product(sigs, repeat=2):
            if sum(alpha) + sum(beta) > 8:
                continue
            ell = len(alpha) + len(beta)
            for k in sorted({ell, ell + 1, 10} | ({ell - 1} if ell > 1 else set())):
                counted = _struct_constants.__wrapped__(alpha, beta, k)
                assert counted == enumerated_struct_constants(alpha, beta, k), (alpha, beta, k)

    @pytest.mark.slow
    def test_structure_constants_of_plain_54_16(self):
        # the 4,489 pairs of even signatures of degree <= 16 that the Gram
        # assembly of plain(54, 16) requests, at k = min(54, len(alpha) + len(beta))
        sigs = _basis_signatures(54, 16, even_only=True)
        assert len(sigs) ** 2 == 4489
        for alpha, beta in itertools.product(sigs, repeat=2):
            k = min(54, len(alpha) + len(beta))
            counted = _struct_constants.__wrapped__(alpha, beta, k)
            assert counted == enumerated_struct_constants(alpha, beta, k), (alpha, beta, k)


class TestIntegration:
    def test_constant(self):
        for k in (1, 2, 5):
            assert affine_integral({(0,): Q(1)}, k) == Q(1, math.factorial(k))

    def test_scaled_volume(self):
        assert affine_integral({(0,): Q(1)}, 3, scale=Q(3, 2)) == Q(9, 16)

    def test_p1_k2(self):
        # oracle: int over the 2-simplex of t1+t2 is 2 * (1!0!)/(1+2)! = 1/3
        assert affine_integral(plain({(1,): 1}), 2) == Q(1, 3)

    def test_homogeneous_scaling(self):
        rng = random.Random(3)
        f = rand_poly(3, 3, rng)
        # each signature of degree d scales by s^(d+k); compare termwise sum
        s = Q(2, 3)
        total = sum(
            (c * s ** (sum(key[1:]) + 3) * affine_integral({key: Q(1)}, 3) for key, c in f.items()),
            Q(0),
        )
        assert affine_integral(f, 3, scale=s) == total


class TestApplyL:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
    def test_image_of_one(self, k):
        image = expand(affine_apply_L(plain({(): 1}), k), k)
        assert image == {sig: v for sig, v in {(): k, (1,): -(k - 1)}.items() if v}

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_image_of_p1(self, k):
        expect = {(): Q(k, 2), (2,): Q(-(k - 1), 2), (1, 1): -(k - 2)}
        image = expand(affine_apply_L(plain({(1,): 1}), k), k)
        assert image == {sig: v for sig, v in expect.items() if v}

    def test_linear(self):
        rng = random.Random(11)
        for k in (2, 3):
            f, g = rand_poly(k, 3, rng), rand_poly(k, 3, rng)
            lhs = affine_apply_L(combine((2, f), (3, g)), k)
            rhs = combine((2, affine_apply_L(f, k)), (3, affine_apply_L(g, k)))
            assert expand(lhs, k) == expand(rhs, k)

    def test_self_adjoint(self):
        rng = random.Random(13)
        for k in (2, 3, 4):
            f, g = rand_poly(k, 3, rng), rand_poly(k, 3, rng)
            lf_g = affine_integral(affine_multiply(affine_apply_L(f, k), g, k), k)
            f_lg = affine_integral(affine_multiply(f, affine_apply_L(g, k), k), k)
            assert lf_g == f_lg

    @pytest.mark.parametrize("k", range(2, 8))
    def test_integral_of_image(self, k):
        # integrating each slot's free fiber back over its coordinate:
        # int L f = int (1 + (k-1)(1-P_(1))) f over R_k
        weight = {(0,): Q(1), (1,): Q(k - 1)}
        mixed = {(6,): Q(-2), (0, 3, 2, 1): Q(7), (2, 1, 1, 1, 1): Q(1, 3), (1, 2, 2): Q(-5, 2),
                 (3, 2, 1): Q(4), (0, 6): Q(1), (0,): Q(3)}
        for f in ({(0,): Q(1)}, {(0, 1): Q(1)}, {(2, 2, 1): Q(1)}, mixed):
            f = {key: v for key, v in f.items() if len(key) - 1 <= k}
            lhs = affine_integral(affine_apply_L(f, k), k)
            assert lhs == affine_integral(affine_multiply(weight, f, k), k)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_moment_closed_forms(self, k):
        f = plain({(): 1})
        moments = [affine_integral(f, k)]
        for _ in range(3):
            f = affine_apply_L(f, k)
            moments.append(affine_integral(f, k))
        fac = math.factorial
        assert moments[0] == Q(1, fac(k))
        assert moments[1] == Q(2 * k, fac(k + 1))
        assert moments[2] == Q(k * (5 * k + 1), fac(k + 2))
        assert moments[3] == Q(2 * k * k * (7 * k + 5), fac(k + 3))


def random_int_terms(k, rng):
    """Sparse integer numerators in affine form over k variables, of mixed
    degrees, with a term using all k slots and a pair of terms whose
    weights on one slot image (1-s)^c P_beta cancel to zero."""
    beta = tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, k - 1))), reverse=True))
    c = rng.randint(2, 6)
    m1, m2 = rng.sample(range(c), 2)  # both strip beta's slot at c = a + m + 1
    x = rng.choice((-1, 1)) * rng.randint(1, 9)
    fact = math.factorial
    terms = {}
    for m, other in ((m1, m2), (m2, m1)):
        a = c - 1 - m
        key = (a,) + tuple(sorted(beta + ((m,) if m else ()), reverse=True))
        terms[key] = x * fact(c - 1 - other) * fact(other)
        x = -x
    full = (rng.randint(0, 3),) + tuple(sorted((rng.randint(1, 3) for _ in range(k)), reverse=True))
    terms.setdefault(full, rng.randint(1, 99))
    for _ in range(rng.randint(3, 12)):
        parts = (rng.randint(1, 4) for _ in range(rng.randint(0, k)))
        key = (rng.randint(0, 4),) + tuple(sorted(parts, reverse=True))
        terms.setdefault(key, rng.choice((-1, 1)) * rng.randint(1, 10**6))
    return terms


@pytest.mark.parametrize("k", range(2, 7))
def test_factored_step_matches_per_term(k):
    # the slot-weight accumulation then one expansion per slot image gives
    # the same keys, numerators and reduced denominator as expanding every
    # (term, m) pair on its own
    rng = random.Random(100 + k)
    for _ in range(40):
        terms = random_int_terms(k, rng)
        den = rng.randint(1, 10**4)
        assert _apply_L_int(terms, den, k) == per_term_apply_L_int(terms, den, k)


def test_krylov_order_guard():
    from primegaps.varprob import krylov_moments

    with pytest.raises(ValueError, match="degree cap exceeded"):
        krylov_moments(3, 101)
