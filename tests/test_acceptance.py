"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL summary line (run with -s to see them
all) and enforces the stated runtime budget.  Two sub-criteria are known
to be unattainable as stated and are kept as strict expected failures with
the analysis in the repository notes: the four-variable ratio constant
2.00558 (the true exact ratio is 2.0055790720952...) and the published
best-known diameter 398130 at k = 35410 (it includes local
post-optimizations that are out of scope here).
"""

import math
import time
from fractions import Fraction
from fractions import Fraction as Q

import mpmath as mp
import pytest

from primegaps.admissible import Tuple, h_exact_small, is_admissible
from primegaps.bounds import (
    AsymptoticParams,
    asymptotic_lower,
    bessel_lower,
    m2_eps,
    m2_exact,
    m4eps_check,
)
from primegaps.cutoff3d import builtin_cutoff, check_marginals, integrate_I, integrate_J
from primegaps.pipeline import (
    ExternalBound,
    Hypothesis,
    MarginalEvidence,
    audit_report,
    dhl_from_eps,
    dhl_from_marginal,
    dhl_from_trunc,
    emit_report,
    hm_from_dhl,
    trunc_params_from_bound,
)
from primegaps.sieves import (
    SieveConfig,
    sieve_eratosthenes,
    sieve_hensley_richards,
    sieve_k_primes_past_k,
    sieve_shifted_greedy,
    sieve_shifted_schinzel,
)
from primegaps.varprob import certify, hankel_pair, krylov_lower_bound, krylov_moments

from .reference import (
    ASYMPTOTIC_ROWS,
    KPPK_DIAMETERS,
    KRYLOV_TARGETS,
    LADDER_5511,
    tuple_50,
    tuple_51,
    tuple_54,
)


def _report(number, description, budget, t0):
    elapsed = time.monotonic() - t0
    print(f"criterion {number}: PASS ({description}) [{elapsed:.1f}s <= {budget}s]")
    assert elapsed <= budget


def test_criterion_1_admissibility_ground_truth():
    t0 = time.monotonic()
    assert is_admissible(Tuple((0, 2, 6)))
    assert not is_admissible(Tuple((0, 2, 4)))
    for t, diam in ((tuple_50(), 246), (tuple_51(), 252), (tuple_54(), 270)):
        assert is_admissible(t)
        assert t.diameter == diam
    _report(1, "ground-truth triples and reference tuples 246/252/270", 1, t0)


def test_criterion_2_exhaustive_small_case():
    t0 = time.monotonic()
    assert h_exact_small(3, 10) == 6
    _report(2, "exhaustive minimal diameter at k=3 equals 6", 1, t0)


def test_criterion_3_deterministic_row():
    t0 = time.monotonic()
    for k, want in KPPK_DIAMETERS.items():
        assert sieve_k_primes_past_k(k).diameter == want
    _report(3, "k-primes-past-k diameters exact at 5511/35410/41588", 30, t0)


def test_criterion_4_sieve_quality_ladder():
    t0 = time.monotonic()
    k = 5511
    d_er = sieve_eratosthenes(k).diameter
    assert d_er <= int(LADDER_5511["eratosthenes"] * 1.005), d_er
    d_hr = sieve_hensley_richards(k).diameter
    assert d_hr <= int(LADDER_5511["hensley-richards"] * 1.005), d_hr
    d_ss = sieve_shifted_schinzel(k, SieveConfig(method="shifted-schinzel")).diameter
    assert d_ss <= int(LADDER_5511["shifted-schinzel"] * 1.005), d_ss
    d_sg = sieve_shifted_greedy(k, SieveConfig(method="shifted-greedy")).diameter
    assert d_sg <= int(LADDER_5511["shifted-greedy"] * 1.01), d_sg
    assert d_er >= d_hr  # observed table ordering
    _report(4, f"ladder at k=5511: {d_er}/{d_hr}/{d_ss}/{d_sg}", 1800, t0)


def test_criterion_5_krylov_bounds():
    t0 = time.monotonic()
    n = 12  # the Krylov caps admit n <= 100, 63, 36, 27 at k = 2, 3, 4, 5
    for k, target in KRYLOV_TARGETS.items():
        cert = krylov_lower_bound(k, n)
        assert cert.verified
        assert cert.C > Q(Fraction(target)), (k, float(cert.C))
        # exact re-validation from scratch
        pair = hankel_pair(krylov_moments(k, n), n)
        assert certify(pair, cert.a, cert.C).verified
        assert float(cert.C) < k / (k - 1) * math.log(k)
    fac = math.factorial
    for k in range(2, 11):
        mom = krylov_moments(k, 2).moments
        assert mom[0] == Q(1, fac(k))
        assert mom[1] == Q(2 * k, fac(k + 1))
        assert mom[2] == Q(k * (5 * k + 1), fac(k + 2))
        assert mom[3] == Q(2 * k * k * (7 * k + 5), fac(k + 3))
    _report(5, "certified Krylov bounds at k=2..5 plus exact moment forms", 300, t0)


def test_criterion_6_exact_special_values():
    t0 = time.monotonic()
    assert abs(float(m2_exact()) - 1.38593) < 5e-6
    left = m2_eps(Q(1, 3) - Q(1, 10**24))
    right = m2_eps(Q(1, 3))
    assert abs(left - right) < 1e-9
    assert abs(float(bessel_lower(2)) - 1.383) < 5e-4
    assert float(bessel_lower(6)) > 2
    assert all(float(bessel_lower(k)) < 4 for k in range(2, 201))
    _report(6, "two-variable optimum, branch agreement, Bessel bounds", 10, t0)


def test_criterion_7_asymptotic_rows():
    t0 = time.monotonic()
    for k, theta, beta, M in ASYMPTOTIC_ROWS:
        r = asymptotic_lower(AsymptoticParams.from_scaled(k, theta, beta))
        assert abs(float(r.lower_bound - mp.mpf(M))) < 1e-6, k
    _report(7, "all seven explicit lower-bound rows within 1e-6", 5, t0)


def test_criterion_8_mpz_gate_chain():
    t0 = time.monotonic()
    k, theta, beta, _ = ASYMPTOTIC_ROWS[1]
    assert k == 35410
    r = asymptotic_lower(AsymptoticParams.from_scaled(k, theta, beta))
    C, varpi, delta = trunc_params_from_bound(2, r.lower_bound, r.params.T)
    assert 600 * varpi + 180 * delta < 7  # exact rational gate
    claim = dhl_from_trunc(k, ExternalBound(C, "explicit-evaluator"), varpi, delta, 2)
    assert (claim.k, claim.m + 1) == (35410, 3)
    _report(8, "derived (varpi, delta) pass the gate and give DHL[35410,3]", 1, t0)


def test_criterion_9_cutoff_exact_verification():
    t0 = time.monotonic()
    f = builtin_cutoff()
    I = integrate_I(f)
    J = integrate_J(f)
    assert I == Q(62082439864241, 507343011840)
    assert J == Q(9933190664926733, 40587440947200)
    assert all(res.is_zero() for _, res in check_marginals(f))
    assert J / I - 2 == Q(286648173, 4966595189139280)
    _report(9, "exact I, J, vanishing marginals and ratio excess", 120, t0)


def test_criterion_10_four_variable_values():
    t0 = time.monotonic()
    I, J, _ = m4eps_check(Q(21, 125), Q(98, 125))
    assert abs(float(I) - 0.00728001347) < 1e-9
    assert abs(float(J) - 0.003650160667) < 1e-9
    assert 4 * J > 2 * I  # what the downstream chain actually requires
    _report(10, "exact four-variable I and J match to 1e-9", 1, t0)


@pytest.mark.xfail(
    strict=True,
    reason="the exact ratio is 2.0055790720952... < 2.00558: the published "
    "constant rounds the ratio up at the fifth decimal, so the strict exact "
    "comparison cannot hold (see the repository decisions notes)",
)
def test_criterion_10_ratio_constant_as_stated():
    I, J, ok = m4eps_check(Q(21, 125), Q(98, 125))
    print("criterion 10 (ratio > 2.00558 exactly): FAIL (documented defect)")
    assert ok and 4 * J > Q(200558, 100000) * I


def test_criterion_11_end_to_end_chains():
    t0 = time.monotonic()
    # H_1 <= 246 through the enlarged rule with the published bound value
    d50 = dhl_from_eps(50, Q(1, 25), ExternalBound(Q(40043, 10**4), "published-value"),
                       Hypothesis.bv(), 1)
    h246 = hm_from_dhl(d50, tuple_50())
    assert h246.m == 1 and h246.bound == 246

    # H_1 <= 6 through the exactly verified cutoff under GEH
    ev = MarginalEvidence.from_cutoff(builtin_cutoff())
    d3 = dhl_from_marginal(3, Q(1, 4), ev, Hypothesis.geh_full(), 1)
    h6 = hm_from_dhl(d3, Tuple((0, 2, 6)))
    assert h6.m == 1 and h6.bound == 6

    # H_2 through the truncated rule plus a constructed 35410-tuple
    k, theta, beta, _ = ASYMPTOTIC_ROWS[1]
    r = asymptotic_lower(AsymptoticParams.from_scaled(k, theta, beta))
    C, varpi, delta = trunc_params_from_bound(2, r.lower_bound, r.params.T)
    d35410 = dhl_from_trunc(k, ExternalBound(C, "explicit-evaluator"), varpi, delta, 2)
    t = sieve_shifted_greedy(k, SieveConfig(method="shifted-greedy", shift=0, batch_size=16))
    h2 = hm_from_dhl(d35410, t)
    assert h2.m == 2 and h2.bound == t.diameter
    assert h2.bound <= 404000  # within 1.5% of the published best-known 398130

    report = emit_report([h246, h6, h2])
    assert audit_report(report)
    _report(11, f"chains give H_1<=246, H_1<=6, H_2<={h2.bound} (audited)", 60, t0)


@pytest.mark.xfail(
    strict=True,
    reason="the published 398130 diameter at k=35410 includes local "
    "post-optimizations that are explicitly out of scope; the in-scope "
    "constructions reach ~402250 (see the repository decisions notes)",
)
def test_criterion_11_published_h2_figure():
    t = sieve_shifted_greedy(
        35410, SieveConfig(method="shifted-greedy", shift=0, batch_size=16)
    )
    print("criterion 11 (H_2 <= 398130 as stated): FAIL (documented defect)")
    assert t.diameter <= 398130
