from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps.admissible import Tuple
from primegaps.cutoff3d import Poly3, builtin_cutoff
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
        return MarginalEvidence.from_cutoff(builtin_cutoff())

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

    def test_refuses_evidence_of_broken_cutoff(self):
        ev = MarginalEvidence.from_cutoff(builtin_cutoff().with_piece("H", Poly3({(0, 0, 1): 9})))
        assert not ev.marginals_vanish and ev.support_ok
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


GOLDEN_CHAIN = TestReports().chain


def edit_chain(text, old, new):
    head, chain = text.rsplit("chain ", 1)
    assert old in chain
    return head + "chain " + chain.replace(old, new)


# edits of a genuine chain line that re-read to the same values; only the
# byte comparison with the re-rendered line rejects them
SAME_VALUE_EDITS = [
    ("bound=40043/10000", "bound=80086/20000"),
    (" threshold=4", "  threshold=4"),
    ("threshold=4 margin=43/10000", "margin=43/10000 threshold=4"),
    (" eps=1/25", " eps=1/25 bound=40043/10000"),
]


class TestOneDerivation:
    def marginal(self):
        return dhl_from_marginal(3, Q(1, 4), TestMarginalRule().evidence(), Hypothesis.geh_full(), 1)

    @pytest.mark.parametrize("build", [
        lambda self: dhl_from_mk(5511, ExternalBound(Q(6000048, 10**6), "explicit-evaluator"),
                                 Hypothesis.eh_full(), 3),
        lambda self: dhl_from_trunc(10, ExternalBound(Q(4), "synthetic"), Q(1, 200), Q(1, 100), 1),
        lambda self: dhl_from_eps(50, Q(1, 25), ExternalBound(Q(40043, 10**4), "published-value"),
                                  Hypothesis.bv(), 1),
        lambda self: dhl_from_eps(51, Q(1, 50), ExternalBound(Q(400156, 10**5), "published-value"),
                                  Hypothesis.geh_full(), 1, nonstrict=True),
        lambda self: self.marginal(),
    ], ids=["mk", "trunc", "eps", "eps-nonstrict", "marginal"])
    def test_every_rule_audits(self, build):
        assert audit_report(emit_report([build(self)]))

    def test_certificate_chain_audits(self):
        cert = gram_lower_bound(assemble_eps(5, 4, Q(1, 5)))  # C ~ 2.194
        claim = dhl_from_eps(5, Q(1, 5), cert, Hypothesis.geh_full(), 1)
        assert claim.provenance == {"bound_source": "certificate", "eps": "1/5"}
        assert audit_report(emit_report([claim]))

    @pytest.mark.parametrize("old, new", SAME_VALUE_EDITS,
                             ids=["unreduced-bound", "doubled-space", "margin-first", "second-bound"])
    def test_same_value_edit_is_invalid(self, old, new):
        text = emit_report([GOLDEN_CHAIN()])
        assert audit_report(text)
        assert not audit_report(edit_chain(text, old, new))

    def test_derived_provenance_wins(self):
        claim = dhl_from_eps(50, Q(1, 25), ExternalBound(Q(5), "x"), Hypothesis.bv(), 1,
                             provenance={"eps": "1/2", "bound_source": "y", "note": 7})
        assert claim.provenance == {"bound_source": "external:x", "eps": "1/25", "note": "7"}

    @pytest.mark.parametrize("provenance", [
        {"note": "Polymath 8b table"},
        {"note": ""},
        {"note": "a\tb"},
        {"Note": "x"},
        {"note-1": "x"},
        {"threshold": "1"},
        {"index": "0"},
    ], ids=["spaced-value", "empty-value", "tab-value", "upper-key", "dash-key",
            "chain-field-threshold", "chain-field-index"])
    def test_provenance_must_read_back(self, provenance):
        with pytest.raises(ValueError, match="would not read back"):
            DHLClaim(3, 1, "mk", Hypothesis.bv(), Q(5), Q(4), provenance)
        with pytest.raises(ValueError, match="would not read back"):
            dhl_from_mk(3, ExternalBound(Q(5), "x"), Hypothesis.bv(), 1, provenance)

    def test_spaced_source_rejected(self):
        with pytest.raises(ValueError, match="would not read back"):
            dhl_from_eps(50, Q(1, 25), ExternalBound(Q(5), "x threshold=1"), Hypothesis.bv(), 1)


class TestProvenanceMatchesRule:
    @pytest.mark.parametrize("rule, threshold, provenance, key", [
        ("mk", Q(4), {"bound_source": "external:x", "eps": "1/25"}, "eps"),
        ("trunc", Q(4), {"bound_source": "external:x", "eps": "1/25"}, "eps"),
        ("eps", Q(4), {"bound_source": "external:x"}, "eps"),
        ("marginal", Q(2), {"bound_source": "cutoff-verification"}, "eps"),
        ("eps", Q(4), {"bound_source": "cutoff-verification", "eps": "1/25"}, "bound_source"),
        ("mk", Q(4), {"bound_source": "cutoff-verification"}, "bound_source"),
        ("marginal", Q(2), {"bound_source": "external:x", "eps": "1/4"}, "bound_source"),
        ("marginal", Q(2), {"eps": "1/4"}, "bound_source"),
        ("mk", Q(4), {"bound_source": "external:x", "nonstrict_side_conditions": "true"},
         "nonstrict_side_conditions"),
        ("marginal", Q(2), {"bound_source": "cutoff-verification", "eps": "1/4",
                            "nonstrict_side_conditions": "true"}, "nonstrict_side_conditions"),
    ], ids=["eps-on-mk", "eps-on-trunc", "eps-missing", "eps-missing-marginal",
            "cutoff-on-eps", "cutoff-on-mk", "external-on-marginal", "no-source-marginal",
            "nonstrict-on-mk", "nonstrict-on-marginal"])
    def test_refused(self, rule, threshold, provenance, key):
        with pytest.raises(ValueError, match=f"provenance {key}= does not match rule {rule}"):
            DHLClaim(3, 1, rule, Hypothesis.bv(), Q(5), threshold, provenance)

    def test_caller_eps_refused_on_mk(self):
        with pytest.raises(ValueError, match="provenance eps="):
            dhl_from_mk(3, ExternalBound(Q(5), "x"), Hypothesis.bv(), 1, {"eps": "1/25"})

    @pytest.mark.parametrize("claim, old, new", [
        (lambda: GOLDEN_CHAIN(), " rule=eps ", " rule=mk "),
        (lambda: dhl_from_eps(51, Q(1, 60), ExternalBound(5, "x"), Hypothesis.geh(Q(1, 2)), 1),
         " rule=eps ", " rule=marginal "),
        (lambda: TestOneDerivation().marginal(), " rule=marginal ", " rule=eps "),
    ], ids=["eps-to-mk", "eps-to-marginal-geh", "marginal-to-eps"])
    def test_relabelled_chain_is_invalid(self, claim, old, new):
        # each relabel keeps the hypothesis, threshold and margin of the chain
        text = emit_report([claim()])
        assert audit_report(text)
        assert not audit_report(edit_chain(text, old, new))


class TestClaimLineLayout:
    def text(self):
        return emit_report([GOLDEN_CHAIN()])

    def claim_line(self):
        return self.text().splitlines()[1]

    @pytest.mark.parametrize("old, new", [
        (" kind=hm ", " kind=gap "),
        (" kind=hm ", " "),
        (" tuple_sha256=3a3d57f7", " tuple_sha256=3A3D57F7"),
        ("3a3d57f7167ac31bda0330ecc6f02ca71698ef0eb182ab7ba54b9b66ce8ca367", "0000"),
        ("3a3d57f7167ac31bda0330ecc6f02ca71698ef0eb182ab7ba54b9b66ce8ca367", ""),
        (" bound=246 ", " bound=-246 "),
        (" bound=246 ", " bound=0246 "),
        (" bound=246 ", " bound=246/1 "),
        (" k=50 ", "  k=50 "),
        (" k=50 ", " k=50 note=1 "),
        ("claim index=0", "claim  index=0"),
    ], ids=["kind", "no-kind", "upper-hex", "short-digest", "empty-digest", "negative-bound",
            "padded-bound", "rational-bound", "doubled-space", "extra-key", "space-after-claim"])
    def test_hm_claim_line_malformed(self, old, new):
        line = self.claim_line()
        assert old in line
        with pytest.raises(ValueError, match="line 2"):
            audit_report(self.text().replace(line, line.replace(old, new)))

    @pytest.mark.parametrize("line", [
        "claim index=0 kind=dhl m=1 k=50 bound=246",
        "claim index=0 kind=dhl m=1 k=50 tuple_sha256="
        "3a3d57f7167ac31bda0330ecc6f02ca71698ef0eb182ab7ba54b9b66ce8ca367",
        "claim index=0 kind=dhl k=50 m=1",
    ], ids=["dhl-with-bound", "dhl-with-digest", "dhl-swapped"])
    def test_dhl_claim_line_malformed(self, line):
        text = emit_report([GOLDEN_CHAIN().dhl])
        assert audit_report(text)
        with pytest.raises(ValueError, match="line 2"):
            audit_report(text.replace(text.splitlines()[1], line))


CHAIN_KEYS = ("index", "rule", "k", "m", "hypothesis", "bound", "threshold", "margin")
# a provenance value: printable, no whitespace
CHAIN_TOKEN = st.from_regex(r"[!-~]{1,12}", fullmatch=True)


@st.composite
def derived_claims(draw):
    """A claim derived by one of the four rules from random admissible inputs."""
    rule = draw(st.sampled_from(["mk", "trunc", "eps", "marginal"]))
    k = draw(st.integers(2, 10**6))
    m = draw(st.integers(1, min(k - 1, 30)))
    theta = Q(draw(st.integers(1, 999)), 1000)
    unit = Q(draw(st.integers(1, 999)), 1000)  # a factor in (0, 1)
    eps, nonstrict = None, False
    if rule == "mk":
        hyp = draw(st.sampled_from([Hypothesis.bv(), Hypothesis.eh(theta)]))
    elif rule == "trunc":
        varpi = Q(7, 600) * unit
        hyp = Hypothesis.mpz(varpi, (7 - 600 * varpi) / 180 * Q(draw(st.integers(1, 999)), 1000))
    else:
        tag = "GEH" if rule == "marginal" else draw(st.sampled_from(["BV", "EH", "GEH"]))
        hyp = Hypothesis.bv() if tag == "BV" else Hypothesis(tag, theta=theta)
        limit = {"BV": Q(1), "EH": 1 / theta - 1, "GEH": Q(1, k - 1)}[tag]
        nonstrict = rule == "eps" and tag != "BV" and draw(st.booleans())
        eps = limit if nonstrict and draw(st.booleans()) else limit * unit
    threshold = rule_threshold(rule, hyp, k, m, eps, nonstrict)
    bound = threshold + Q(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))
    provenance = draw(st.dictionaries(
        # eps is the derivation's own key, refused from a caller on mk and trunc
        st.from_regex(r"[a-z0-9_]{1,10}", fullmatch=True).filter(
            lambda key: key not in CHAIN_KEYS and key != "eps"
        ),
        CHAIN_TOKEN, max_size=3,
    ))
    source = ExternalBound(bound, draw(CHAIN_TOKEN))
    if rule == "mk":
        return dhl_from_mk(k, source, hyp, m, provenance)
    if rule == "trunc":
        return dhl_from_trunc(k, source, hyp.varpi, hyp.delta, m, provenance)
    if rule == "eps":
        return dhl_from_eps(k, eps, source, hyp, m, nonstrict, provenance)
    evidence = MarginalEvidence(k, eps, bound, True, True)
    return dhl_from_marginal(k, eps, evidence, hyp, m, provenance)


def other_value(draw, key, old):
    """Another value for the chain field key."""
    if key in ("index", "k", "m"):
        return str(draw(st.integers(-3, 10**6)))
    if key in ("bound", "threshold", "margin"):
        return str(Q(draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**6))))
    # rule, hypothesis: a suffix makes the name unknown or unparsable, where
    # another valid name could state an equally true claim (BV and EH(1/2)
    # share the threshold 4m)
    return old + draw(st.text(alphabet="0123456789/(),x", min_size=1, max_size=4))


class TestReportRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(claims=st.lists(derived_claims(), min_size=1, max_size=3), data=st.data())
    def test_emitted_report_audits_and_edits_do_not(self, claims, data):
        text = emit_report(claims)
        assert audit_report(text)
        lines = text.splitlines()
        row = 2 + 2 * data.draw(st.integers(0, len(claims) - 1))
        key = data.draw(st.sampled_from(CHAIN_KEYS))
        chunks = lines[row].split(" ")
        pos = next(p for p, chunk in enumerate(chunks) if chunk.partition("=")[0] == key)
        old = chunks[pos].partition("=")[2]
        new = other_value(data.draw, key, old)
        if new == old:
            return
        chunks[pos] = f"{key}={new}"
        lines[row] = " ".join(chunks)
        try:
            assert audit_report("\n".join(lines) + "\n") is False
        except ValueError:
            pass
