import pytest

from primegaps.admissible import Tuple
from primegaps.cutoff3d import builtin_cutoff, check_marginals, integrate_I, integrate_J
from primegaps.pipeline import (
    THETA_NEAR_ONE,
    DHLClaim,
    ExternalBound,
    Hypothesis,
    MarginalEvidence,
    audit_report,
    dhl_from_eps,
    dhl_from_marginal,
    dhl_from_mk,
    dhl_from_trunc,
    emit_report,
    hm_from_dhl,
    rule_threshold,
    trunc_params_from_bound,
    tuple_digest,
)
from primegaps.rational import Q
from primegaps.varprob import assemble_eps, assemble_plain, certify, gram_lower_bound

from .reference import tuple_50


class TestHypothesis:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hypothesis.eh(Q(2))
        with pytest.raises(ValueError):
            Hypothesis("BV", theta=Q(1, 3))
        with pytest.raises(ValueError):
            Hypothesis.mpz(Q(-1, 10), Q(0))
        with pytest.raises(ValueError):
            Hypothesis("XYZ")

    def test_thresholds(self):
        assert Hypothesis.bv().ratio_threshold(1) == 4
        assert Hypothesis.eh(Q(1, 2)).ratio_threshold(3) == 12
        assert Hypothesis.geh_full().ratio_threshold(1) == 2 / THETA_NEAR_ONE

    def test_describe(self):
        assert Hypothesis.bv().describe() == "BV"
        assert Hypothesis.eh(Q(1, 2)).describe() == "EH(1/2)"
        assert Hypothesis.mpz(Q(1, 100), Q(1, 50)).describe() == "MPZ(1/100,1/50)"

    def test_parse_inverts_describe(self):
        for hyp in (Hypothesis.bv(), Hypothesis.eh(Q(1, 2)), Hypothesis.geh_full(),
                    Hypothesis.mpz(Q(1, 100), Q(1, 50))):
            assert Hypothesis.parse(hyp.describe()) == hyp
        for text in ("BV(1/2)", "EH", "EH(1/2", "GEH(1/2,1/3)", "MPZ(1/100)", "XYZ(1)"):
            with pytest.raises(ValueError):
                Hypothesis.parse(text)


class TestRuleThreshold:
    def test_thresholds_by_rule(self):
        assert rule_threshold("mk", Hypothesis.eh(Q(1, 2)), 10, 2) == 8
        assert rule_threshold("trunc", Hypothesis.mpz(Q(1, 200), Q(1, 100)), 10, 1) == Q(200, 51)
        assert rule_threshold("eps", Hypothesis.bv(), 50, 1, Q(1, 25)) == 4
        assert rule_threshold("marginal", Hypothesis.geh(Q(1, 2)), 3, 1, Q(1, 4)) == 4

    @pytest.mark.parametrize("args, message", [
        (("mk", Hypothesis.geh_full(), 10, 1), "EH or BV"),
        (("trunc", Hypothesis.bv(), 10, 1), "needs MPZ"),
        (("trunc", Hypothesis.mpz(Q(1, 100), Q(1, 30)), 10, 1), "600"),
        (("eps", Hypothesis.bv(), 10, 1), "needs eps"),
        (("eps", Hypothesis.mpz(Q(1, 100), Q(1, 50)), 10, 1, Q(1, 25)), "EH, BV or GEH"),
        (("eps", Hypothesis.bv(), 10, 1, Q(1)), "side condition"),
        (("marginal", Hypothesis.eh_full(), 3, 1, Q(1, 4)), "needs GEH"),
        (("mk", Hypothesis.bv(), 2, 2), "k >= m"),
        (("plain", Hypothesis.bv(), 10, 1), "unknown rule"),
    ])
    def test_gates(self, args, message):
        with pytest.raises(ValueError, match=message):
            rule_threshold(*args)

    def test_nonstrict_relaxes_eps_rule_only(self):
        hyp = Hypothesis.geh(Q(1, 2))
        assert rule_threshold("eps", hyp, 51, 1, Q(1, 50), nonstrict=True) == 4
        with pytest.raises(ValueError, match="side condition"):
            rule_threshold("marginal", hyp, 51, 1, Q(1, 50), nonstrict=True)

    def test_nonstrict_chain_audits(self):
        bound = ExternalBound(Q(5), "x")
        claim = dhl_from_eps(51, Q(1, 50), bound, Hypothesis.geh(Q(1, 2)), 1, nonstrict=True)
        text = emit_report([claim])
        assert audit_report(text)
        assert not audit_report(text.replace(" nonstrict_side_conditions=true", ""))


def verified_cert(k=2):
    pair = assemble_plain(k, 0)
    return certify(pair, [Q(1)], Q(13, 10))


class TestPlainRule:
    def test_reference_case(self):
        claim = dhl_from_mk(5511, ExternalBound(Q(6000048, 10**6), "explicit-evaluator"),
                            Hypothesis.eh_full(), 3)
        assert (claim.k, claim.m) == (5511, 4 - 1)
        assert claim.rule == "mk"

    def test_bv_threshold_is_4m(self):
        # passes exactly when the bound strictly exceeds 4m
        good = ExternalBound(Q(4) + Q(1, 10**9), "prior-work")
        claim = dhl_from_mk(105, good, Hypothesis.bv(), 1)
        assert claim.threshold == 4
        with pytest.raises(ValueError, match="inequality not satisfied"):
            dhl_from_mk(105, ExternalBound(Q(4), "prior-work"), Hypothesis.bv(), 1)

    def test_strict_rejection_at_equality(self):
        hyp = Hypothesis.eh(Q(1, 2))
        with pytest.raises(ValueError, match="inequality not satisfied"):
            dhl_from_mk(10, ExternalBound(Q(4), "x"), hyp, 1)

    def test_requires_eh_or_bv(self):
        with pytest.raises(ValueError, match="EH or BV"):
            dhl_from_mk(10, ExternalBound(Q(5), "x"), Hypothesis.geh_full(), 1)

    def test_certificate_input_fails_threshold(self):
        cert = verified_cert()
        with pytest.raises(ValueError, match="inequality not satisfied"):
            dhl_from_mk(2, cert, Hypothesis.eh_full(), 1)

    def test_unverified_certificate_rejected(self):
        pair = assemble_plain(2, 0)
        bad = certify(pair, [Q(1)], Q(4, 3))  # equality -> unverified
        assert not bad.verified
        with pytest.raises(ValueError, match="not verified"):
            dhl_from_mk(2, bad, Hypothesis.eh_full(), 1)

    def test_variant_mismatch_rejected(self):
        cert = verified_cert(k=2)
        with pytest.raises(ValueError, match="does not match"):
            dhl_from_mk(3, cert, Hypothesis.eh_full(), 1)


class TestTruncRule:
    def test_gate_rejects_boundary(self):
        # 600 varpi + 180 delta = 7 exactly must be rejected
        varpi = Q(7, 1200)
        delta = (7 - 600 * varpi) / 180
        assert 600 * varpi + 180 * delta == 7
        with pytest.raises(ValueError, match="gate violated"):
            dhl_from_trunc(35410, ExternalBound(Q(8), "x"), varpi, delta, 2)

    def test_gate_ranges(self):
        with pytest.raises(ValueError, match="varpi"):
            dhl_from_trunc(10, ExternalBound(Q(9), "x"), Q(1, 3), Q(1, 100), 1)
        with pytest.raises(ValueError, match="delta"):
            dhl_from_trunc(10, ExternalBound(Q(9), "x"), Q(1, 100), Q(2, 3), 1)

    def test_conservative_parameter_derivation(self):
        import mpmath as mp

        # matches the k=35410 reference row: M = 7.829849259..., T = beta/log k
        with mp.workdps(40):
            T = mp.mpf("0.85213") / mp.log(35410)
        C, varpi, delta = trunc_params_from_bound(2, "7.8298492548", T)
        assert C > Q(2) / (Q(1, 4) + varpi)  # strict inequality by construction
        assert 600 * varpi + 180 * delta < 7
        claim = dhl_from_trunc(35410, ExternalBound(C, "explicit-evaluator"), varpi, delta, 2)
        assert (claim.k, claim.m) == (35410, 2)

    def test_all_truncated_rows_pass_the_gate(self):
        # the gate slack shrinks to ~1e-9 on the largest row, so the
        # directional rounding in the parameter derivation is load-bearing
        from primegaps.bounds import AsymptoticParams, asymptotic_lower

        rows = [(35410, "0.99479", "0.85213", 2), (1649821, "1.00422", "0.80148", 3),
                (75845707, "1.00712", "0.77003", 4), (3473955908, "1.0079318", "0.7490925", 5)]
        for k, theta, beta, m in rows:
            p = AsymptoticParams.from_scaled(k, theta, beta)
            r = asymptotic_lower(p)
            C, varpi, delta = trunc_params_from_bound(m, r.lower_bound, p.T)
            claim = dhl_from_trunc(k, ExternalBound(C, "explicit-evaluator"), varpi, delta, m)
            assert (claim.k, claim.m + 1) == (k, m + 1)


class TestEpsRule:
    def test_reference_case(self):
        claim = dhl_from_eps(50, Q(1, 25), ExternalBound(Q(40043, 10**4), "published-value"),
                             Hypothesis.bv(), 1)
        assert claim.margin == Q(43, 10**4)

    def test_eh_side_condition(self):
        hyp = Hypothesis.eh(Q(3, 4))  # 1/theta = 4/3
        with pytest.raises(ValueError, match="side condition"):
            dhl_from_eps(50, Q(1, 2), ExternalBound(Q(10), "x"), hyp, 1)

    def test_geh_side_condition_strict_and_nonstrict(self):
        hyp = Hypothesis.geh_full()
        bound = ExternalBound(Q(400156, 10**5), "published-value")
        with pytest.raises(ValueError, match="side condition"):
            dhl_from_eps(51, Q(1, 50), bound, hyp, 1)  # eps == 1/(k-1): strict fails
        claim = dhl_from_eps(51, Q(1, 50), bound, hyp, 1, nonstrict=True)
        assert claim.provenance["nonstrict_side_conditions"] == "true"

    def test_threshold_strict(self):
        hyp = Hypothesis.eh(Q(1, 2))
        with pytest.raises(ValueError, match="inequality not satisfied"):
            dhl_from_eps(50, Q(1, 25), ExternalBound(Q(4), "x"), hyp, 1)


    def test_rejects_certificate_for_another_eps(self):
        # C ~ 2.150 for eps = 1/3 would clear the eps = 1/100 threshold ~ 2.041
        cert = gram_lower_bound(assemble_eps(5, 4, Q(1, 3)))
        assert cert.verified and cert.C > Hypothesis.eh(Q(49, 50)).ratio_threshold(1)
        with pytest.raises(ValueError, match="does not match"):
            dhl_from_eps(5, Q(1, 100), cert, Hypothesis.eh(Q(49, 50)), 1)

    def test_rejects_plain_certificate(self):
        cert = certify(assemble_plain(2, 0), (1,), Q(1))
        assert cert.verified
        with pytest.raises(ValueError, match="does not match"):
            dhl_from_eps(2, Q(1, 100), cert, Hypothesis.bv(), 1)


class TestMarginalRule:
    def evidence(self):
        f = builtin_cutoff()
        ratio = integrate_J(f) / integrate_I(f)
        ok = all(res.is_zero() for _, res in check_marginals(f))
        return MarginalEvidence(3, Q(1, 4), ratio, ok, True)

    def test_reference_case(self):
        claim = dhl_from_marginal(3, Q(1, 4), self.evidence(), Hypothesis.geh_full(), 1)
        assert (claim.k, claim.m) == (3, 1)
        assert claim.bound - 2 == Q(286648173, 4966595189139280)

    def test_requires_geh(self):
        with pytest.raises(ValueError, match="GEH"):
            dhl_from_marginal(3, Q(1, 4), self.evidence(), Hypothesis.eh_full(), 1)

    def test_rejects_ratio_two(self):
        ev = MarginalEvidence(3, Q(1, 4), Q(2), True, True)
        with pytest.raises(ValueError, match="inequality not satisfied"):
            dhl_from_marginal(3, Q(1, 4), ev, Hypothesis.geh_full(), 1)

    def test_eps_side_condition(self):
        ev = MarginalEvidence(3, Q(1, 2), Q(5, 2), True, True)
        with pytest.raises(ValueError, match="side condition"):
            dhl_from_marginal(3, Q(1, 2), ev, Hypothesis.geh_full(), 1)

    def test_missing_verification(self):
        ev = MarginalEvidence(3, Q(1, 4), Q(5, 2), False, True)
        with pytest.raises(ValueError, match="marginal verification missing"):
            dhl_from_marginal(3, Q(1, 4), ev, Hypothesis.geh_full(), 1)


class TestHmChain:
    def dhl50(self):
        return dhl_from_eps(50, Q(1, 25), ExternalBound(Q(40043, 10**4), "published-value"),
                            Hypothesis.bv(), 1)

    def test_reference_chain(self):
        claim = hm_from_dhl(self.dhl50(), tuple_50())
        assert claim.m == 1 and claim.bound == 246

    def test_triple_chain(self):
        ev_claim = dhl_from_marginal(
            3, Q(1, 4),
            TestMarginalRule().evidence(),
            Hypothesis.geh_full(), 1,
        )
        claim = hm_from_dhl(ev_claim, Tuple((0, 2, 6)))
        assert claim.bound == 6

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            hm_from_dhl(self.dhl50(), Tuple((0, 2, 6)))

    def test_inadmissible_tuple(self):
        d = dhl_from_marginal(3, Q(1, 4), TestMarginalRule().evidence(), Hypothesis.geh_full(), 1)
        with pytest.raises(ValueError, match="not admissible"):
            hm_from_dhl(d, Tuple((0, 2, 4)))

    def test_dhl_claim_invariant(self):
        with pytest.raises(ValueError, match="k >= m"):
            DHLClaim(3, 3, "mk", Hypothesis.bv(), Q(20), Q(12))


class TestReports:
    def chain(self):
        d = dhl_from_eps(50, Q(1, 25), ExternalBound(Q(40043, 10**4), "published-value"),
                         Hypothesis.bv(), 1)
        return hm_from_dhl(d, tuple_50())

    def test_empty_report(self):
        text = emit_report([])
        assert text == "report claims=0\n"
        assert audit_report(text)

    def test_chain_report_audits(self):
        text = emit_report([self.chain()])
        assert "bound=246" in text.splitlines()[1]
        assert "margin=43/10000" in text
        assert tuple_digest(tuple_50()) in text
        assert audit_report(text)

    def test_two_claims_in_order(self):
        c = self.chain()
        text = emit_report([c, c.dhl])
        assert text.count("claim index=") == 2
        assert "kind=hm" in text and "kind=dhl" in text

    def test_byte_identical(self):
        a = emit_report([self.chain()])
        b = emit_report([self.chain()])
        assert a == b

    def test_tampered_report_fails_audit(self):
        text = emit_report([self.chain()])
        assert not audit_report(text.replace("bound=40043/10000", "bound=4"))
        assert not audit_report(text.replace("margin=43/10000", "margin=44/10000"))

    def test_claim_must_match_its_chain(self):
        text = emit_report([self.chain()])
        claim = text.splitlines()[1]
        for old, new in ((" m=1 ", " m=2 "), (" k=50 ", " k=51 ")):
            assert not audit_report(text.replace(claim, claim.replace(old, new)))
        with pytest.raises(ValueError, match="line 2: missing field m="):
            audit_report(text.replace(claim, claim.replace(" m=1 ", " ")))

    def test_malformed_report_raises(self):
        text = emit_report([self.chain()])
        chain = text.splitlines()[2]
        with pytest.raises(ValueError, match="missing field bound="):
            audit_report(text.replace(" bound=40043/10000", ""))
        with pytest.raises(ValueError, match="report claims=N"):
            audit_report(chain + "\n")
        with pytest.raises(ValueError, match="report claims=2 needs 4"):
            audit_report(text.replace("claims=1", "claims=2"))

    def test_golden_report(self):
        golden = (
            "report claims=1\n"
            "claim index=0 kind=hm m=1 bound=246 k=50 tuple_sha256="
            "3a3d57f7167ac31bda0330ecc6f02ca71698ef0eb182ab7ba54b9b66ce8ca367\n"
            "chain index=0 rule=eps k=50 m=1 hypothesis=BV bound=40043/10000 "
            "threshold=4 margin=43/10000 bound_source=external:published-value "
            "eps=1/25\n"
        )
        assert emit_report([self.chain()]) == golden
