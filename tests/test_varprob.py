import functools
import hashlib
import math
from fractions import Fraction
from fractions import Fraction as Q

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import varprob
from primegaps.bounds import m4eps_check
from primegaps.symmpoly import affine_integral, affine_multiply, affine_slot_integral
from primegaps.varprob import (
    BasisElement,
    GramPair,
    KrylovTable,
    Variant,
    _quadratic_forms,
    assemble_eps,
    assemble_plain,
    build_basis,
    certify,
    gram_lower_bound,
    hankel_pair,
    krylov_lower_bound,
    krylov_moments,
    read_certificate,
    solve_generalized,
    verify_certificate_file,
    write_certificate,
)

from .reference import EARLIER_CERTIFICATES, KRYLOV_TARGETS, exact_ldl


class TestTypes:
    def test_variant_validation(self):
        assert str(Variant("plain", 3)) == "plain(3)"
        assert str(Variant("eps", 50, Q(1, 25))) == "eps(50, 1/25)"
        with pytest.raises(ValueError):
            Variant("eps", 2, Q(2))
        with pytest.raises(ValueError):
            Variant("plain", 2, Q(1, 2))

    def test_basis_element_rejects_ones(self):
        with pytest.raises(ValueError):
            BasisElement(0, (2, 1))

    def test_gram_requires_symmetry(self):
        with pytest.raises(ValueError):
            GramPair(Variant("plain", 2), [BasisElement(0, ()), BasisElement(1, ())],
                     (1, [[1, 0], [1, 1]]), (1, [[1, 0], [0, 1]]))

    @pytest.mark.parametrize("M1, message", [
        ((1, [[1, 0], [1, 1]]), "exactly symmetric"),
        ((1, [[1, 0], [0, 1], [0, 0]]), "sizes must match"),
        ((1, [[1, 0], [0]]), "sizes must match"),
        ((0, [[1, 0], [0, 1]]), "denominator must be positive"),
        ((-3, [[1, 0], [0, 1]]), "denominator must be positive"),
    ], ids=["asymmetric", "extra-row", "short-row", "zero-den", "negative-den"])
    def test_gram_refuses_bad_forms(self, M1, message):
        basis = [BasisElement(0, ()), BasisElement(1, ())]
        with pytest.raises(ValueError, match=message) as info:
            GramPair(Variant("plain", 2), basis, M1, (1, [[1, 0], [0, 1]]))
        assert "\n" not in str(info.value)

    def test_gram_stores_reduced_form(self):
        # one stored form per matrix, over the least common denominator;
        # M1 and M2 are Fraction views of it
        basis = [BasisElement(0, ()), BasisElement(1, ())]
        g = GramPair(Variant("plain", 2), basis, (12, [[6, 4], [4, 2]]), (5, [[0, 0], [0, 0]]))
        assert g.forms == ((6, ((3, 2), (2, 1))), (1, ((0, 0), (0, 0))))
        assert g.M1 == ((Q(1, 2), Q(1, 3)), (Q(1, 3), Q(1, 6)))
        assert g.M2 == ((0, 0), (0, 0))


class TestAssemblePlain:
    def test_k2_d0(self):
        g = assemble_plain(2, 0)
        assert g.M1 == ((Q(1, 2),),)
        assert g.M2 == ((Q(2, 3),),)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_d0_mass(self, k):
        assert assemble_plain(k, 0).M1[0][0] == Q(1, math.factorial(k))

    def test_k2_d0_bound(self):
        cert = gram_lower_bound(assemble_plain(2, 0))
        assert cert.verified
        assert Q(4, 3) - Q(1, 10**7) < cert.C < Q(4, 3)
        # consistent with the known optimum 1.38593...
        assert cert.C < Q(138594, 100000)

    def test_m1_positive_definite(self):
        for k, d in ((2, 4), (3, 4), (4, 2)):
            pair = assemble_plain(k, d)
            keep, L, diag = exact_ldl(pair.M1, pair.n)
            assert len(keep) == pair.n and all(x > 0 for x in diag)

    def test_dependent_candidate_dropped(self):
        # at d > k the affine family is dependent: (1 - P_1)^4 is the one
        # candidate of the ten that lies in the span of the others
        g = assemble_plain(2, 4)
        assert len(build_basis(2, 4)) == 10 and g.n == 9
        assert [(b.a, tuple(b.alpha)) for b in g.basis] == [
            (0, ()), (1, ()), (0, (2,)), (2, ()), (1, (2,)), (3, ()), (0, (2, 2)), (0, (4,)),
            (2, (2,)),
        ]
        keep, L, diag = exact_ldl(g.M1, g.n)
        assert len(keep) == len(L) == len(diag) == 9 and all(x > 0 for x in diag)

    def test_proposal_is_narrow_integer_vector(self):
        # the proposal is rounded to its span plus 64 bits: the smallest
        # nonzero coefficient keeps 64 bits and nothing is wider than needed
        cert = gram_lower_bound(assemble_plain(5, 8))
        assert cert.verified and all(x.denominator == 1 for x in cert.a)
        bits = [abs(x.numerator).bit_length() for x in cert.a if x]
        span = max(bits) - min(bits)
        assert max(bits) <= span + 65

    def test_monotone_in_degree(self):
        prev = None
        for d in (0, 2, 4, 6):
            c = gram_lower_bound(assemble_plain(3, d))
            assert c.verified
            if prev is not None:
                assert c.C >= prev
            prev = c.C

    def test_basis_prefix(self):
        small = assemble_plain(3, 2).basis
        large = assemble_plain(3, 4).basis
        assert list(large[: len(small)]) == list(small)

    def test_full_signatures_at_least_as_good(self):
        even = gram_lower_bound(assemble_plain(3, 4, even_only=True))
        full = gram_lower_bound(assemble_plain(3, 4, even_only=False))
        assert full.C >= even.C - Q(1, 10**9)

    def test_upper_bound_consistency(self):
        for k, d in ((2, 6), (3, 6), (4, 4)):
            cert = gram_lower_bound(assemble_plain(k, d))
            assert float(cert.C) < k / (k - 1) * math.log(k)


class TestAssembleEps:
    def test_k2_d0_mass(self):
        g = assemble_eps(2, 0, Q(1, 4))
        assert g.M1 == ((Q(25, 32),),)

    def test_linear_cutoff_cross_check(self):
        # the linear four-variable cutoff lies in the d=1 basis span, so the
        # quadratic forms must reproduce the exact closed-form functionals
        eps, alpha = Q(21, 125), Q(98, 125)
        I, J, _ = m4eps_check(eps, alpha)
        g = assemble_eps(4, 1, eps, even_only=True)
        assert [b.degree for b in g.basis] == [0, 1]
        a = (1 - alpha * (1 + eps), alpha)  # 1 - alpha*P1 in the affine basis
        n = g.n
        q1 = sum(a[i] * g.M1[i][j] * a[j] for i in range(n) for j in range(n))
        q2 = sum(a[i] * g.M2[i][j] * a[j] for i in range(n) for j in range(n))
        assert q1 == I
        assert q2 == 4 * J

    def test_k2_certificate_below_exact_optimum(self):
        # exact optimum (e(1+eps)-2eps)/(e-1) at eps=1/2 is 1.7909883...
        cert = gram_lower_bound(assemble_eps(2, 2, Q(1, 2)))
        assert cert.verified
        assert Q(176, 100) < cert.C < Q(17909884, 10**7)

    def test_eps_upper_bound_consistency(self):
        for k, d, eps in ((2, 4, Q(1, 4)), (3, 4, Q(1, 10))):
            cert = gram_lower_bound(assemble_eps(k, d, eps))
            assert float(cert.C) < k / (k - 1) * math.log(2 * k - 1)


#: (kind, k, d, eps, even_only) of the pairs checked entry by entry
EXACT_ASSEMBLY_CASES = [
    ("eps", 50, 6, Q(1, 25), True),
    ("plain", 5, 8, None, True),
    ("eps", 50, 10, Q(1, 25), True),
    ("plain", 2, 4, None, True),  # drops a dependent candidate
    ("plain", 3, 5, None, False),
    ("plain", 4, 6, None, True),
    ("plain", 2, 7, None, False),
    ("eps", 5, 4, Q(1, 3), True),
    ("eps", 4, 5, Q(1, 4), False),
    ("eps", 3, 6, Q(1, 2), True),
]


def reference_matrices(pair, offset, m1_scale, m2_scale):
    """M1 and M2 over the pair's kept basis, entry by entry in Fraction: the
    product of the two basis terms (or of their slot images), integrated."""
    k, n = pair.variant.k, pair.n
    terms = [{(b.a,) + tuple(b.alpha): Q(1)} for b in pair.basis]
    slots = [affine_slot_integral(t, k) for t in terms]
    M1 = [[None] * n for _ in range(n)]
    M2 = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M1[i][j] = M1[j][i] = affine_integral(
                affine_multiply(terms[i], terms[j], k), k, offset, m1_scale
            )
            M2[i][j] = M2[j][i] = k * affine_integral(
                affine_multiply(slots[i], slots[j], k - 1), k - 1, offset, m2_scale
            )
    return tuple(map(tuple, M1)), tuple(map(tuple, M2))


EXACT_ASSEMBLY_IDS = [f"{c[0]}-{c[1]}-{c[2]}{'' if c[4] else '-full'}" for c in EXACT_ASSEMBLY_CASES]


@pytest.mark.parametrize("kind,k,d,eps,even_only", EXACT_ASSEMBLY_CASES, ids=EXACT_ASSEMBLY_IDS)
def test_assembly_matches_fraction_reference(kind, k, d, eps, even_only):
    if kind == "eps":
        pair = assemble_eps(k, d, eps, even_only=even_only)
        scales = (1 + eps, 1 + eps, 1 - eps)
    else:
        pair = assemble_plain(k, d, even_only=even_only)
        scales = (Q(1), Q(1), Q(1))
    M1, M2 = reference_matrices(pair, *scales)
    assert pair.M1 == M1
    assert pair.M2 == M2


@pytest.mark.parametrize("kind,k,d,eps,even_only", EXACT_ASSEMBLY_CASES, ids=EXACT_ASSEMBLY_IDS)
def test_independence_scan_matches_exact_ldl(kind, k, d, eps, even_only):
    # M1 over every candidate, entry by entry in Fraction; the mod-p scan
    # must keep the columns the exact LDL^T keeps (plain-2-4, plain-3-5-full
    # and plain-2-7-full drop dependent candidates)
    offset = 1 + eps if kind == "eps" else Q(1)
    candidates = build_basis(k, d, offset, even_only)
    terms = [{(b.a,) + tuple(b.alpha): Q(1)} for b in candidates]
    n = len(terms)
    M1 = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M1[i][j] = M1[j][i] = affine_integral(affine_multiply(terms[i], terms[j], k), k, offset, offset)
    keep = exact_ldl(M1, n)[0]
    den = math.lcm(*(x.denominator for row in M1 for x in row))
    N1 = [[x.numerator * (den // x.denominator) for x in row] for row in M1]
    assert varprob._independent_columns(den, N1) == keep
    if kind == "eps":
        pair = assemble_eps(k, d, eps, even_only=even_only)
    else:
        pair = assemble_plain(k, d, even_only=even_only)
    assert list(pair.basis) == [candidates[i] for i in keep]


def test_independence_scan_refuses_denominator_divisible_by_prime():
    with pytest.raises(ValueError, match="divisible by the scan prime"):
        varprob._independent_columns(3 * varprob.SCAN_PRIME, [[1, 0], [0, 1]])


#: SHA-256 of (basis, den1, N1, den2, N2) per pair: the stored integer
#: forms, which equal the least-common-denominator forms of the matrices
PAIR_DIGESTS = {
    "eps-50-6": "598ef501c622da51328be608e158af88670e7ceb1a3755b9b1d7c2f8d2460208",
    "plain-5-8": "74a00d48fb4f51dbae2a6dfe3de431c2e8a6a229788727ffd140b372f611c404",
    "eps-50-10": "9a251990c5946b2dc1881cbb21ff9b2e34608df5bbf588ff2cd66f77afa3c370",
    "plain-2-4": "ee7bec8056e96f884ac116fea1df70de9bf2c594bf6e55aedc710e387cf0c6b2",
    "plain-3-5-full": "02863c0959dc308bd342fbc36ea8f005ca6b66bc8baf5e7c91488dced7cd3cc7",
    "plain-4-6": "4edec71a8ff00951f78e6a2052364c6c12df4b5bed98281d1c23cfc49977ec3a",
    "plain-2-7-full": "33035c6db3c8220bf61de893a756fc9397fae046c8ba7a896e81a0702dc2cca2",
    "eps-5-4": "6db2bf0063e65ea72ce334a4eebefb7eaf55fbc3e2d510cc9ba8a541dd3aabcb",
    "eps-4-5-full": "e64d6cbb109cd3e01cd974ae82c5173fca574a1a7a7621a141bab95c487091ac",
    "eps-3-6": "e8b2f3577d92f85b00987e798698fbfbdbc5c154c84b10c3d4f675c9a54c2491",
    "plain-54-12": "e3ca716610021ae66b19eb860b676c3dbf96f7401b4dd0d540847fd57f9aceaa",
}


def pair_digest(pair):
    h = hashlib.sha256()
    for b in pair.basis:
        h.update(f"{b.a} {' '.join(map(str, b.alpha))} {b.offset}\n".encode())
    for den, N in pair.forms:
        h.update(f"{den}\n".encode())
        for row in N:
            h.update((" ".join(map(str, row)) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "kind,k,d,eps,even_only", EXACT_ASSEMBLY_CASES + [("plain", 54, 12, None, True)],
    ids=EXACT_ASSEMBLY_IDS + ["plain-54-12"],
)
def test_stored_forms_pinned(kind, k, d, eps, even_only):
    if kind == "eps":
        pair = assemble_eps(k, d, eps, even_only=even_only)
    else:
        pair = assemble_plain(k, d, even_only=even_only)
    assert pair_digest(pair) == PAIR_DIGESTS[f"{kind}-{k}-{d}{'' if even_only else '-full'}"]


#: pairwise coprime denominators (Mersenne primes)
_LARGE_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)
_rationals = st.one_of(
    st.just(0),
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**6),
    st.builds(Q, st.integers(-(10**40), 10**40), st.sampled_from(_LARGE_PRIMES)),
)
_FORMS_PAIRS = {
    "gram-plain-3-4": functools.cache(lambda: assemble_plain(3, 4)),
    "hankel-3-6": functools.cache(lambda: hankel_pair(krylov_moments(3, 6), 6)),
}


def fraction_forms(pair, a):
    n = pair.n
    return tuple(
        sum((Q(a[i]) * M[i][j] * Q(a[j]) for i in range(n) for j in range(n)), Q(0))
        for M in (pair.M1, pair.M2)
    )


@pytest.mark.parametrize("which", sorted(_FORMS_PAIRS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_forms_match_fraction_loop(which, data):
    pair = _FORMS_PAIRS[which]()
    a = data.draw(st.lists(_rationals, min_size=pair.n, max_size=pair.n))
    assert _quadratic_forms(pair, a) == fraction_forms(pair, a)


@pytest.mark.parametrize("which", sorted(_FORMS_PAIRS))
def test_integer_forms_edge_vectors(which):
    pair = _FORMS_PAIRS[which]()
    n = pair.n
    assert _quadratic_forms(pair, [0] * n) == (0, 0)
    for a in ([Q(-1, p) for p in (_LARGE_PRIMES * n)[:n]], [Q(i - 2, 3**i) for i in range(n)]):
        assert _quadratic_forms(pair, a) == fraction_forms(pair, a)
    with pytest.raises(ValueError, match="length"):
        _quadratic_forms(pair, [1] * (n + 1))


class TestSolveAndCertify:
    def test_identity_pair(self):
        basis = (BasisElement(0, ()), BasisElement(1, ()))
        eye = (1, [[1, 0], [0, 1]])
        pair = GramPair(Variant("plain", 2), basis, eye, eye)
        a = solve_generalized(pair)
        assert len(a) == 2 and any(x != 0 for x in a)
        assert all(isinstance(x, type(Q(1))) for x in a)
        # every vector has Rayleigh quotient exactly 1, so C lands one grid
        # step below it
        cert = gram_lower_bound(pair)
        assert cert.verified and cert.C == 1 - Q(1, 10**12)

    def test_not_positive_definite(self):
        basis = (BasisElement(0, ()), BasisElement(1, ()))
        # indefinite, then singular: a hand-built pair keeps every column,
        # so a dependent one is refused, not dropped
        for bad in ((1, [[1, 2], [2, 1]]), (1, [[1, 1], [1, 1]])):
            pair = GramPair(Variant("plain", 2), basis, bad, bad)
            with pytest.raises(ValueError, match="not positive definite"):
                solve_generalized(pair)
            with pytest.raises(ValueError, match="not positive definite"):
                gram_lower_bound(pair)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_proposal_reaches_top_eigenvalue(self, data):
        # small SPD integer pairs B^T B + I: the exact Rayleigh quotient of
        # the proposal against scipy's top generalized eigenvalue
        n = data.draw(st.integers(1, 6))
        entries = st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
        M1, M2 = (
            [[sum(B[t][i] * B[t][j] for t in range(n)) + (i == j) for j in range(n)] for i in range(n)]
            for B in (data.draw(entries), data.draw(entries))
        )
        pair = GramPair(Variant("plain", 2), [BasisElement(0, ())] * n, (1, M1), (1, M2))
        a = solve_generalized(pair)
        assert all(x.denominator == 1 for x in a)
        t1, t2 = _quadratic_forms(pair, a)
        top = scipy.linalg.eigh(np.array(M2, float), np.array(M1, float), eigvals_only=True)[-1]
        assert abs(float(t2 / t1) - top) <= 1e-9 * top

    @pytest.mark.parametrize(
        "make",
        [
            lambda: assemble_plain(2, 0),
            lambda: assemble_plain(3, 4),
            lambda: assemble_eps(2, 2, Q(1, 2)),
            lambda: hankel_pair(krylov_moments(3, 6), 6),
        ],
        ids=["plain-2-0", "plain-3-4", "eps-2-2-half", "hankel-3-6"],
    )
    def test_C_is_rounded_rayleigh_quotient(self, make):
        pair = make()
        cert = gram_lower_bound(pair)
        a = list(cert.a)
        n = pair.n
        t1 = sum(a[i] * pair.M1[i][j] * a[j] for i in range(n) for j in range(n))
        t2 = sum(a[i] * pair.M2[i][j] * a[j] for i in range(n) for j in range(n))
        rho = t2 / t1
        assert cert.verified
        assert cert.C < rho <= cert.C + Q(1, 10**12)
        assert (cert.C * 10**12).denominator == 1
        assert certify(pair, a, cert.C).verified

    def test_certify_examples(self):
        g = assemble_plain(2, 0)
        assert certify(g, [Q(1)], Q(13, 10)).verified    # 2/3 - 13/20 = 1/60 > 0
        assert not certify(g, [Q(1)], Q(4, 3)).verified  # equality is rejected
        assert not certify(g, [Q(0)], Q(1)).verified     # zero vector

    def test_certify_never_raises_on_failure(self):
        g = assemble_plain(2, 0)
        cert = certify(g, [Q(1)], Q(100))
        assert cert.verified is False


def fraction_apply_L(terms, k):
    """Reference L on Fraction coefficients: for each term (1-P_(1))^a
    P_alpha and each exponent m on the integrated slot (a distinct part of
    alpha, or 0 when a slot is free), add a!m!/c! (1-s)^c P_beta with
    c = a+m+1, expanded as sum_r C(c,r) (1-P_(1))^(c-r) t^r."""
    fact = math.factorial
    out = {}
    for key, coeff in terms.items():
        a, alpha = key[0], key[1:]
        strips = [
            (m, alpha[:i] + alpha[i + 1 :]) for i, m in enumerate(alpha) if m not in alpha[:i]
        ]
        if len(alpha) < k:
            strips.append((0, alpha))
        for m, beta in strips:
            c = a + m + 1
            w = coeff * Q(fact(a) * fact(m), fact(c))
            for r in range(c + 1):
                if r == 0:
                    okey, mult = (c,) + beta, k - len(beta)
                else:
                    gamma = tuple(sorted(beta + (r,), reverse=True))
                    okey, mult = (c - r,) + gamma, math.comb(c, r) * gamma.count(r)
                out[okey] = out.get(okey, Q(0)) + w * mult
    return {key: v for key, v in out.items() if v != 0}


class TestKrylov:
    def test_moment_values(self):
        t = krylov_moments(2, 2)
        assert t.moments == (Q(1, 2), Q(2, 3), Q(11, 12), Q(19, 15))

    def test_moment_closed_forms(self):
        fac = math.factorial
        for k in range(2, 11):
            mom = krylov_moments(k, 2).moments
            assert mom[0] == Q(1, fac(k))
            assert mom[1] == Q(2 * k, fac(k + 1))
            assert mom[2] == Q(k * (5 * k + 1), fac(k + 2))
            assert mom[3] == Q(2 * k * k * (7 * k + 5), fac(k + 3))

    def test_table_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            KrylovTable(2, (Q(1), Q(0)))

    def test_hankel_matrices_positive_definite(self):
        for k in (2, 3, 5):
            pair = hankel_pair(krylov_moments(k, 6), 6)
            keep1, _, d1 = exact_ldl(pair.M1, 6)
            assert len(keep1) == 6 and all(x > 0 for x in d1)
            keep2, _, d2 = exact_ldl(pair.M2, 6)
            assert len(keep2) == 6 and all(x > 0 for x in d2)

    def test_n1_is_moment_ratio(self):
        cert = krylov_lower_bound(2, 1)
        assert cert.verified
        assert Q(4, 3) - Q(1, 10**7) < cert.C < Q(4, 3)

    def test_monotone_in_order(self):
        for k in (2, 3, 4, 5):
            prev = None
            for n in range(1, 11):
                c = krylov_lower_bound(k, n)
                assert c.verified
                if prev is not None:
                    assert c.C >= prev - Q(1, 10**10)
                prev = c.C

    @pytest.mark.parametrize("n", [24, 30])
    def test_high_order_widens_fixed_point(self, n):
        # past order 20 a pivot of the Hankel M1 keeps fewer than 64 of the
        # first 128 fixed-point bits, so the proposal must widen to certify
        cert = krylov_lower_bound(2, n)
        assert cert.verified and cert.C >= Q(692966637999, 5 * 10**11)

    def test_reaches_published_targets(self):
        for k, target in KRYLOV_TARGETS.items():
            cert = krylov_lower_bound(k, 12)
            assert cert.verified
            assert cert.C > Q(Fraction(target))
            assert float(cert.C) < k / (k - 1) * math.log(k)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_moments_match_fraction_reference(self, k):
        # the integer moment stream against a plain Fraction loop: the
        # slot-integration formula term by term, then affine_integral;
        # order 12 for the published k = 2..5, order 8 past them
        n = 12 if k <= 5 else 8
        f = {(0,): Q(1)}
        expect = [affine_integral(f, k)]
        for _ in range(2 * n - 1):
            f = fraction_apply_L(f, k)
            expect.append(affine_integral(f, k))
        assert krylov_moments(k, n).moments == tuple(expect)

    def test_iterate_term_count_is_exact(self):
        # every (a, alpha) of degree j with at most k parts survives in L^j 1;
        # the stream holds L^j 1 with the moments m_0 .. m_(j+1)
        for k in range(2, 7):
            stream = varprob._MomentStream(k)
            for j in range(1, 16):
                stream.upto(j + 2)
                assert stream._degree == j
                assert len(stream._terms) == varprob._iterate_terms(k, j)
        assert varprob._iterate_terms(5, 23) == 1892
        assert varprob._iterate_terms(10, 59) == 1548122
        assert varprob._iterate_terms(10**9, 3) == 1 + 1 + 2 + 3

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_grown_stream_matches_fresh(self, k):
        grown = varprob._MomentStream(k)
        assert len(grown.upto(5)) == 5
        assert grown.upto(24) == varprob._MomentStream(k).upto(24)

    @pytest.mark.parametrize("k, n", [(10, 30), (3, 64), (4, 37), (50, 18), (10**9, 20)])
    def test_term_cap(self, k, n, monkeypatch):
        # refused on the count alone, before any moment stream is made
        calls = []
        monkeypatch.setattr(varprob, "_stream", calls.append)
        assert varprob._iterate_terms(k, 2 * n - 1) > varprob.KRYLOV_TERM_LIMIT
        with pytest.raises(ValueError, match="term cap exceeded"):
            krylov_moments(k, n)
        assert calls == []

    def test_validation(self):
        with pytest.raises(ValueError):
            krylov_moments(1, 3)
        with pytest.raises(ValueError):
            krylov_moments(3, 0)


class TestCertificateFiles:
    def test_roundtrip_plain(self, tmp_path):
        cert = gram_lower_bound(assemble_plain(2, 4))
        path = tmp_path / "cert.txt"
        write_certificate(path, cert, d=4, basis_kind="even")
        re_cert, margin = verify_certificate_file(path)
        assert re_cert.verified and margin > 0
        variant, d, kind, C, a = read_certificate(path)
        assert variant == cert.variant and d == 4 and kind == "even"
        assert Q(C) == cert.C and tuple(a) == cert.a

    def test_roundtrip_eps(self, tmp_path):
        cert = gram_lower_bound(assemble_eps(2, 2, Q(1, 4)))
        path = tmp_path / "cert.txt"
        write_certificate(path, cert, d=2)
        re_cert, margin = verify_certificate_file(path)
        assert re_cert.verified and margin > 0

    def test_roundtrip_krylov(self, tmp_path):
        cert = krylov_lower_bound(3, 6)
        path = tmp_path / "cert.txt"
        write_certificate(path, cert, d=0, basis_kind="krylov")
        re_cert, margin = verify_certificate_file(path)
        assert re_cert.verified and margin > 0

    def test_tampered_certificate_fails(self, tmp_path):
        cert = gram_lower_bound(assemble_plain(2, 2))
        path = tmp_path / "cert.txt"
        write_certificate(path, cert, d=2)
        text = path.read_text().replace(f"C = {cert.C}", "C = 7/5")
        path.write_text(text)
        re_cert, margin = verify_certificate_file(path)
        assert not re_cert.verified

    def test_unknown_basis_kind_refused(self, tmp_path):
        cert = gram_lower_bound(assemble_plain(2, 0))
        path = tmp_path / "cert.txt"
        with pytest.raises(ValueError, match="basis='weird'"):
            write_certificate(path, cert, d=0, basis_kind="weird")
        assert not path.exists()
        write_certificate(path, cert, d=0)
        path.write_text(path.read_text().replace("basis even", "basis weird"))
        with pytest.raises(ValueError, match="basis='weird' is not one of even, full, krylov"):
            read_certificate(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "cert.txt"
        path.write_text("variant plain\nk 2\nd 0\n")
        with pytest.raises(ValueError):
            read_certificate(path)


#: pinned SHA-256 of six certificate files: a change to the proposal or the
#: exact kernels behind them must reproduce each file byte for byte
GOLDEN_CERTIFICATES = {
    "krylov-2-12": "5db5b875ffc23a326dd151c5ec730fc8bde81772119bb8b2c363cc53ecc405c3",
    "krylov-3-12": "5901b0f16283ea27381a13cac8fa31427e059d584b78a653e6aaa1641e9300b9",
    "krylov-4-12": "de1958d945b768163324fc7d7d6cdb0ed96dff2d7dd8fb3b7ee1b78817efec22",
    "krylov-5-12": "e602dfd9842b3544eed4f5cd6890e9016eaaf095ce8d09a33458aa9c24e74619",
    "eps-50-6": "ae3031519394cbaa38ddd066335a205022361c3a288c798f5078b20439ea5c6f",
    "plain-5-8": "d278afc42333a4a0f14f7ad29ca0f5f2cd0190e1fc4cc38d2d479549d9210e65",
}


#: pinned SHA-256 of the order-30 Krylov certificates, the orders whose
#: proposal needs the widened fixed point
ORDER_30_CERTIFICATES = {
    2: "78f55f63db0c0ed1cf3be6178f84dbbaa4eaaacc8a365d78666c09d6a43a8ac3",
    3: "218e5d2eeeac5a5b24a70b0845208a36c7722c46887c78a1dc6b47e724deece4",
}


@pytest.mark.parametrize("k", sorted(ORDER_30_CERTIFICATES))
def test_order_30_certificate_digest(tmp_path, k):
    path = tmp_path / f"krylov-{k}-30.cert"
    write_certificate(path, krylov_lower_bound(k, 30), d=0, basis_kind="krylov")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ORDER_30_CERTIFICATES[k]


@functools.cache
def golden_certificate(stem):
    """(certificate, d, basis kind) of a golden stem; d is the Hankel order
    in the stem of a Krylov one and 0 in its file."""
    kind, k, d = stem.split("-")
    k, d = int(k), int(d)
    if kind == "krylov":
        return krylov_lower_bound(k, d), 0, "krylov"
    if kind == "eps":
        return gram_lower_bound(assemble_eps(k, d, Q(1, 25))), d, "even"
    return gram_lower_bound(assemble_plain(k, d)), d, "even"


@pytest.mark.parametrize("stem", sorted(GOLDEN_CERTIFICATES))
def test_golden_certificate_digest(tmp_path, stem):
    cert, d, basis = golden_certificate(stem)
    path = tmp_path / f"{stem}.cert"
    write_certificate(path, cert, d=d, basis_kind=basis)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CERTIFICATES[stem]


@pytest.mark.parametrize("stem", sorted(GOLDEN_CERTIFICATES))
def test_golden_certificate_not_below_earlier(stem):
    cert = golden_certificate(stem)[0]
    assert cert.verified
    assert cert.C >= read_certificate(EARLIER_CERTIFICATES / f"{stem}.cert")[3]


def test_eps_50_10_certificate(tmp_path):
    # n = 71: the width the proposal is rounded to must not cost C
    cert = gram_lower_bound(assemble_eps(50, 10, Q(1, 25)))
    assert cert.verified and cert.C >= Q(3818911265873, 10**12)
    path = tmp_path / "eps-50-10.cert"
    write_certificate(path, cert, d=10)
    re_cert, margin = verify_certificate_file(path)
    assert re_cert.verified and margin > 0 and re_cert.C == cert.C
