"""The table of implication rules, and the truncated rule's evidence.

pipeline.RULES says, per rule, which hypotheses it takes, which certificate
variant it consumes and whether it reads eps and nonstrict.  The truncated
rule consumes no certificate: a plain certificate bounds M_k from below, and
M_k can exceed the truncated quantity the rule needs."""

from fractions import Fraction as Q

import pytest

from primegaps.cli import build_parser, main
from primegaps.pipeline import (
    RULES,
    DHLClaim,
    ExternalBound,
    Hypothesis,
    MarginalEvidence,
    audit_report,
    derive,
    dhl_from_eps,
    dhl_from_marginal,
    dhl_from_mk,
    dhl_from_trunc,
)
from primegaps.varprob import assemble_plain, gram_lower_bound

#: what `chain hm --dhl-rule trunc --cert` wrote before the truncated rule
#: refused certificates: a plain(54) certificate, C = 3.9316, over MPZ(1/100,
#: 1/1000), whose threshold 50/13 it exceeds
TRUNC_CERT_REPORT = (
    "report claims=1\n"
    "claim index=0 kind=hm m=1 bound=270 k=54 "
    "tuple_sha256=59ba827686386efb3437a5af1fbe7f3b4322f9b815fdd1eebd9cdfb04b40f66e\n"
    "chain index=0 rule=trunc k=54 m=1 hypothesis=MPZ(1/100,1/1000) "
    "bound=393162924713/100000000000 threshold=50/13 margin=111118021269/1300000000000 "
    "bound_source=certificate "
    "cert_sha256=2d0d1fc0d151231f8b30193dbe2107c462c48c99651d75464c7c1d6591af29e5\n"
)


class TestTable:
    def test_four_rules(self):
        assert tuple(RULES) == ("mk", "trunc", "eps", "marginal")
        assert [spec.variant for spec in RULES.values()] == ["plain", None, "eps", None]

    @pytest.mark.parametrize("rule", list(RULES) + ["plain"])
    def test_cli_offers_the_table(self, capsys, rule):
        argv = ["chain", "hm", "--dhl-rule", rule, "--k", "3", "--m", "1", "--tuple", "t.txt"]
        if rule in RULES:
            assert build_parser().parse_args(argv).dhl_rule == rule
        else:
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and err.startswith("error: --dhl-rule invalid choice")

    @pytest.mark.parametrize("rule, hyp, evidence, eps, wrapper", [
        ("mk", Hypothesis.bv(), ExternalBound(5, "x"), None,
         lambda: dhl_from_mk(10, ExternalBound(5, "x"), Hypothesis.bv(), 1)),
        ("trunc", Hypothesis.mpz(Q(1, 200), Q(1, 100)), ExternalBound(4, "x"), None,
         lambda: dhl_from_trunc(10, ExternalBound(4, "x"), Q(1, 200), Q(1, 100), 1)),
        ("eps", Hypothesis.bv(), ExternalBound(5, "x"), Q(1, 25),
         lambda: dhl_from_eps(10, Q(1, 25), ExternalBound(5, "x"), Hypothesis.bv(), 1)),
    ], ids=["mk", "trunc", "eps"])
    def test_derive_is_what_the_wrappers_call(self, rule, hyp, evidence, eps, wrapper):
        assert derive(rule, 10, 1, hyp, evidence, eps) == wrapper()

    def test_derive_marginal(self):
        evidence = MarginalEvidence(3, Q(1, 4), Q(5), True, True)
        claim = derive("marginal", 3, 1, Hypothesis.geh_full(), evidence, Q(1, 4))
        assert claim == dhl_from_marginal(3, Q(1, 4), evidence, Hypothesis.geh_full(), 1)

    def test_derive_refuses_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown rule 'plain'"):
            derive("plain", 5, 1, Hypothesis.bv(), ExternalBound(5, "x"))

    def test_claim_refuses_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown rule 'plain'"):
            DHLClaim(5, 1, "plain", Hypothesis.bv(), Q(5), Q(4), {"bound_source": "external:x"})


class TestTruncTakesNoCertificate:
    def test_plain_certificate_refused(self):
        plain_cert = gram_lower_bound(assemble_plain(5, 4))
        assert plain_cert.verified and plain_cert.variant.kind == "plain"
        with pytest.raises(ValueError, match="^the truncated rule takes no certificate$"):
            dhl_from_trunc(5, plain_cert, Q(1, 200), Q(1, 100), 1)

    def test_claim_refuses_certificate_source(self):
        with pytest.raises(ValueError, match="provenance bound_source= does not match rule trunc"):
            DHLClaim(3, 1, "trunc", Hypothesis.mpz(Q(1, 200), Q(1, 100)), Q(5), Q(4),
                     {"bound_source": "certificate"})

    def test_written_report_audits_invalid(self):
        assert not audit_report(TRUNC_CERT_REPORT)

    def test_cli_refuses_cert_before_reading_it(self, capsys, tmp_path):
        code = main(["chain", "hm", "--dhl-rule", "trunc", "--k", "54", "--m", "1",
                     "--varpi", "1/100", "--delta", "1/1000", "--cert", str(tmp_path / "missing.cert"),
                     "--tuple", str(tmp_path / "missing.txt")])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err == "error: --dhl-rule trunc takes no --cert\n"

    def test_cli_report_says_invalid(self, capsys, tmp_path):
        path = tmp_path / "trunc-cert.txt"
        path.write_text(TRUNC_CERT_REPORT)
        code = main(["report", str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == f"{path}: INVALID\n" and err == ""
