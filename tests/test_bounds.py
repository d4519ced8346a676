import dataclasses
import hashlib
import math
from fractions import Fraction as Q

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primegaps.bounds import (
    DPS,
    AsymptoticParams,
    _bessel_first_zero,
    _bessel_pair,
    asymptotic_lower,
    bessel_lower,
    m2_eps,
    m2_exact,
    m4eps_check,
    mk_upper,
    mkeps_upper,
)

from .reference import ASYMPTOTIC_ROWS


class TestMkUpper:
    def test_values(self):
        assert abs(float(mk_upper(2)) - 2 * math.log(2)) < 1e-15
        assert abs(float(mk_upper(54)) - 4.06425) < 5e-6
        assert abs(float(mk_upper(100)) - 4.65169) < 5e-6

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            mk_upper(1)


class TestM2Exact:
    def test_five_decimals(self):
        assert abs(float(m2_exact()) - 1.38593) < 5e-6

    def test_fixed_point_residual(self):
        # w = 1 - 1/m2 must satisfy w e^w = 1/e to high precision
        with mp.workdps(40):
            w = 1 - 1 / m2_exact()
            assert abs(w * mp.exp(w) - mp.exp(-1)) < mp.mpf(10) ** -30

    def test_below_upper_bound(self):
        assert m2_exact() < mk_upper(2)

    def test_above_d0_certificate(self):
        assert float(m2_exact()) > 4 / 3


class TestM2Eps:
    def test_closed_form_at_one_third(self):
        # direct evaluation of (e(1+eps)-2eps)/(e-1) at eps=1/3
        expect = (math.e * (4 / 3) - 2 / 3) / (math.e - 1)
        assert abs(float(m2_eps(Q(1, 3))) - expect) < 1e-12
        assert abs(expect - 1.7213178) < 5e-8

    def test_branch_agreement_at_one_third(self):
        left = m2_eps(Q(1, 3) - Q(1, 10**24))
        right = m2_eps(Q(1, 3))
        assert abs(left - right) < 1e-9

    def test_small_eps_approaches_plain_optimum(self):
        assert abs(m2_eps(Q(1, 10**7)) - m2_exact()) < 1e-5

    def test_limit_at_one(self):
        assert abs(float(m2_eps(Q(9999, 10000))) - 2) < 1e-2
        assert float(m2_eps(Q(999, 1000))) < 2

    def test_monotone(self):
        vals = [float(m2_eps(Q(i, 20))) for i in range(1, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    # str() at 40 digits of the root as the bisection-and-Newton solver found
    # it; the Anderson refinement must reproduce every digit
    PINNED = [
        (Q(1, 3) - Q(1, 10**24), "1.721317804579550949590000918716047908358"),
        (Q(1, 5), "1.628021034780184936859551649217532497293"),
        (Q(3, 10), "1.704751528018792957274213009594920961086"),
        (Q(1, 10**7), "1.385933414591521853671213453365011457084"),
        (Q(1, 20), "1.454345845257934230512671370295201958126"),
        (Q(2, 20), "1.518664301110425783538136050993471196311"),
        (Q(3, 20), "1.576923506802375707695889801568536207582"),
        (Q(4, 20), "1.628021034780184936859551649217532497293"),
        (Q(5, 20), "1.671011881531694172403494258328775872951"),
        (Q(6, 20), "1.704751528018792957274213009594920961086"),
    ]

    @pytest.mark.parametrize("eps, expect", PINNED)
    def test_pinned_roots(self, eps, expect):
        value = m2_eps(eps)
        with mp.workdps(40):
            assert str(value) == expect

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            m2_eps(Q(0))
        with pytest.raises(ValueError):
            m2_eps(Q(3, 2))


class TestMkepsUpper:
    def test_default_a(self):
        v = float(mkeps_upper(50, Q(1, 25)))
        assert abs(v - 50 / 49 * math.log(99)) < 1e-12

    def test_k2(self):
        v = float(mkeps_upper(2, Q(1, 2)))
        assert abs(v - 2 * math.log(3)) < 1e-12
        assert float(m2_eps(Q(1, 2))) <= v

    def test_limit_recovers_plain_bound(self):
        # at a = 1/(1+eps) the bound is (k(1+eps)/(k-1)) log k, which
        # recovers the plain upper bound as eps goes to zero
        eps = Q(1, 10**6)
        a = Q(1) / (1 + eps) + Q(1, 10**12)
        v = float(mkeps_upper(5, eps, a))
        assert abs(v - 5 / 4 * math.log(5)) < 1e-5

    def test_rejects_a_outside_interval(self):
        with pytest.raises(ValueError):
            mkeps_upper(5, Q(1, 10), Q(1, 2))
        with pytest.raises(ValueError):
            mkeps_upper(5, Q(1, 10), Q(2))


class TestBesselLower:
    def test_k2(self):
        assert abs(float(bessel_lower(2)) - 1.3833) < 5e-4

    def test_k6_exceeds_two(self):
        assert float(bessel_lower(6)) > 2

    def test_all_below_four(self):
        vals = [float(bessel_lower(k)) for k in range(2, 201)]
        assert all(v < 4 for v in vals)

    def test_k2_below_exact_optimum(self):
        assert bessel_lower(2) <= m2_exact()

    def test_zero_against_library(self):
        from scipy.special import jn_zeros

        for k in (2, 3, 7, 30):
            j = float(mp.sqrt(4 * k * (k - 1) / bessel_lower(k)))
            assert abs(j - jn_zeros(k - 2, 1)[0]) < 1e-9

    def test_matches_besseljzero_at_full_precision(self):
        # k = 100 and 200: the series cancels most at the largest orders
        with mp.workdps(40):
            for k in (2, 7, 30, 100, 200):
                j = mp.besseljzero(k - 2, 1)
                assert abs(bessel_lower(k) - 4 * k * (k - 1) / (j * j)) < mp.mpf(10) ** -35

    def test_golden_digest(self):
        # repr round-trips at DPS digits, so the digest pins every value
        # for k = 2..200 exactly
        with mp.workdps(DPS):
            text = "\n".join(repr(bessel_lower(k)) for k in range(2, 201))
        assert hashlib.sha256(text.encode()).hexdigest() == BESSEL_LOWER_DIGEST

    def test_large_order_zero(self):
        # k = 7472: the library Bessel function needs more than its default
        # precision cap here, so it is only the oracle
        k = 7472
        with mp.workdps(40):
            j = _bessel_first_zero(k - 2)
            assert abs(mp.besselj(k - 2, j, maxprec=40000)) < mp.mpf(10) ** -35
            h = mp.mpf(10) ** -30
            below = mp.besselj(k - 2, j - h, maxprec=40000)
            above = mp.besselj(k - 2, j + h, maxprec=40000)
            assert below * above < 0
        assert bessel_lower(k) < 4


#: SHA-256 of the seven ASYMPTOTIC_ROWS reports, every field's repr at DPS
#: digits, pinned before the quadratures shared their g(t)^2 values
ASYMPTOTIC_DIGEST = "12505ad1e35152af20cff33932d0f7aa9bef3b2942cc4cf7ebe0e09c07ad382c"
BESSEL_LOWER_DIGEST = "953b8b7312c013af26a2a5c024616315057e0d5f4c24b95515a8e8c200726d2f"
PAIR_BITS = 150


def _series_scale(nu, x):
    """Largest term tau and first term t_0 of the J_nu power series at x."""
    y = x * x / 4
    tau = t0 = (x / 2) ** nu / mp.factorial(nu)
    m = 1
    while y > m * (nu + m):
        tau *= y / (m * (nu + m))
        m += 1
    return tau, t0


@settings(max_examples=60, deadline=None)
@given(nu=st.integers(1, 300), frac=st.floats(min_value=1e-9, max_value=1.0))
@example(nu=300, frac=1e-9)
@example(nu=300, frac=0.01)
@example(nu=1, frac=1.0)
@example(nu=198, frac=0.45)
def test_bessel_pair_error_bound(nu, frac):
    # x in (0, 2 nu + 50]; small frac puts x far below nu, where t_0 is tiny
    with mp.workdps(60):
        x = mp.mpf(frac) * (2 * nu + 50)
        jv, jm1 = _bessel_pair(nu, x, PAIR_BITS)
        tau, t0 = _series_scale(nu, x)
        bound = mp.ldexp(min(1, tau), -PAIR_BITS)
        # N <= x + F by the docstring, and
        # F <= bits + 66 + log2 max(1, tau) + log2 max(1, 1/t_0)
        n_terms = x + PAIR_BITS + 66 + max(0, mp.log(tau, 2)) + max(0, -mp.log(t0, 2))
        assert abs(jv - mp.besselj(nu, x)) <= bound
        assert abs(jm1 - mp.besselj(nu - 1, x)) <= bound * 2 * (nu + n_terms) / x


class TestAsymptoticLower:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            AsymptoticParams(1, "0.1", "0.1", "0.1")
        with pytest.raises(ValueError):
            AsymptoticParams(5, "-0.1", "0.1", "0.1")

    @pytest.mark.parametrize("row", ASYMPTOTIC_ROWS[:3])
    def test_reference_rows_fast(self, row):
        k, theta, beta, M = row
        r = asymptotic_lower(AsymptoticParams.from_scaled(k, theta, beta))
        assert abs(float(r.lower_bound - mp.mpf(M))) < 1e-6

    def test_never_exceeds_upper_bound(self):
        for k, theta, beta, _ in ASYMPTOTIC_ROWS[:3]:
            r = asymptotic_lower(AsymptoticParams.from_scaled(k, theta, beta))
            assert r.lower_bound <= mk_upper(k)

    def test_condition_violation_named(self):
        # an enormous tau breaks the first admissibility condition
        k, theta, beta, _ = ASYMPTOTIC_ROWS[0]
        p = AsymptoticParams.from_scaled(k, theta, beta, tau="0.9")
        with pytest.raises(ValueError, match=r"k\*mu <= 1 - tau"):
            asymptotic_lower(p)

    def test_t_bound_violation_named(self):
        # k*mu ~ 0.51 passes the tau condition but T = 0.5 blocks it
        with pytest.raises(ValueError, match=r"k\*mu < 1 - T"):
            asymptotic_lower(AsymptoticParams(10, "0.2", "0.5", "0.01"))

    def test_weight_stats_match_quadrature(self):
        # asymptotic_lower cross-checks the closed forms internally at 1e-12;
        # reaching a report means the check passed
        k, theta, beta, _ = ASYMPTOTIC_ROWS[0]
        r = asymptotic_lower(AsymptoticParams.from_scaled(k, theta, beta))
        assert r.m2 > 0 and r.sigma2 > 0

    def test_seven_rows_golden_digest(self):
        # repr round-trips at DPS digits, so the digest pins every field of
        # the seven reports exactly
        with mp.workdps(DPS):
            text = "\n".join(
                " ".join(repr(getattr(r, f.name)) for f in dataclasses.fields(r))
                for r in (asymptotic_lower(AsymptoticParams.from_scaled(k, theta, beta))
                          for k, theta, beta, _ in ASYMPTOTIC_ROWS)
            )
        assert hashlib.sha256(text.encode()).hexdigest() == ASYMPTOTIC_DIGEST

    def test_report_fields_positive(self):
        k, theta, beta, _ = ASYMPTOTIC_ROWS[2]
        r = asymptotic_lower(AsymptoticParams.from_scaled(k, theta, beta))
        for name in ("Z", "Z3", "W", "X", "V", "U"):
            assert getattr(r, name) > 0
        assert r.error_budget >= 0


class TestM4Eps:
    def test_published_decimals(self):
        I, J, _ = m4eps_check(Q(21, 125), Q(98, 125))
        assert abs(float(I) - 0.00728001347) < 1e-9
        assert abs(float(J) - 0.003650160667) < 1e-9

    def test_exact_values(self):
        # frozen from the closed forms (independently cross-checked by the
        # d=1 Gram assembly in test_varprob)
        I, J, _ = m4eps_check(Q(21, 125), Q(98, 125))
        assert I == Q(3905303554116646, 536441802978515625)
        assert J == Q(407937243662261248, 111758708953857421875)
        assert 4 * J / I > 2

    def test_exact_ratio_vs_published_constant(self):
        # the exact ratio is 2.005579072... ; the published threshold
        # 2.00558 rounds that value UP, so the strict comparison fails by
        # ~9.3e-7.  ratio_ok reports the honest exact comparison.
        I, J, ok = m4eps_check(Q(21, 125), Q(98, 125))
        ratio = 4 * J / I
        assert Q(200557, 100000) < ratio < Q(200558, 100000)
        assert ok is False

    def test_quadrature_cross_check(self):
        eps, alpha = Q(21, 125), Q(98, 125)
        I, J, _ = m4eps_check(eps, alpha)
        with mp.workdps(30):
            e, al = mp.mpf(21) / 125, mp.mpf(98) / 125
            w = 1 + e
            Iq = mp.quad(lambda s: (1 - al * s) ** 2 * s**3 / 6, [0, w])
            Jq = mp.quad(
                lambda u: (w - u) ** 2 * (1 - al * (w + u) / 2) ** 2 * u * u / 2,
                [0, 1 - e],
            )
            assert abs(Iq - mp.mpf(int(I.numerator)) / int(I.denominator)) < mp.mpf(10) ** -25
            assert abs(Jq - mp.mpf(int(J.numerator)) / int(J.denominator)) < mp.mpf(10) ** -25

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            m4eps_check(Q(3, 4), Q(1, 2))
