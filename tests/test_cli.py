from importlib import resources

import pytest

from primegaps.admissible import read_tuple_file
from primegaps.cli import main
from primegaps.sieves import apply_residue_sieve


def data_path(name):
    return str(resources.files("primegaps").joinpath("data", name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestTupleCommands:
    def test_find_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "t.txt"
        code, out = run(capsys, "tuple", "find", "--k", "11", "--method", "eratosthenes",
                        "--out", str(out_file))
        assert code == 0 and "diameter=" in out
        code, out = run(capsys, "tuple", "verify", str(out_file))
        assert code == 0 and "admissible=yes" in out

    def test_find_shifted(self, capsys):
        code, out = run(capsys, "tuple", "find", "--k", "7", "--method", "shifted-greedy",
                        "--shift", "0")
        assert code == 0 and "k=7" in out

    @pytest.mark.parametrize("method", ["shifted-schinzel", "shifted-greedy"])
    def test_find_sieve_out_roundtrip(self, capsys, tmp_path, method):
        out_file, sieve_file = tmp_path / "t.txt", tmp_path / "sieve.txt"
        code, out = run(capsys, "tuple", "find", "--k", "101", "--method", method,
                        "--out", str(out_file), "--sieve-out", str(sieve_file))
        assert code == 0 and f"wrote {sieve_file}" in out
        assert apply_residue_sieve(sieve_file) == read_tuple_file(out_file)

    @pytest.mark.parametrize("method", ["eratosthenes", "k-primes-past-k", "hensley-richards"])
    def test_find_sieve_out_needs_shifted_method(self, capsys, tmp_path, method):
        sieve_file = tmp_path / "sieve.txt"
        code = main(["tuple", "find", "--k", "11", "--method", method,
                     "--sieve-out", str(sieve_file)])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and not sieve_file.exists()
        assert err.count("\n") == 1 and err.startswith("error:") and method in err

    def test_verify_rejects_inadmissible(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0\n2\n4\n")
        code, out = run(capsys, "tuple", "verify", str(bad))
        assert code == 1 and "admissible=no" in out

    def test_verify_sparse_admissible(self, capsys, tmp_path):
        # diameter far past the bitmap limit: residues are enumerated instead
        sparse = tmp_path / "sparse.txt"
        sparse.write_text(f"0\n2\n{6 + 3 * 10**13}\n")
        code, out = run(capsys, "tuple", "verify", str(sparse))
        assert code == 0 and "admissible=yes" in out

    def test_verify_sparse_inadmissible(self, capsys, tmp_path):
        sparse = tmp_path / "sparse.txt"
        sparse.write_text(f"0\n2\n{10**13}\n")
        code, out = run(capsys, "tuple", "verify", str(sparse))
        assert code == 1 and "admissible=no" in out

    def test_verify_reference(self, capsys):
        code, out = run(capsys, "tuple", "verify", data_path("tuple_50_246.txt"))
        assert code == 0 and "diameter=246" in out

    def test_hsmall(self, capsys):
        code, out = run(capsys, "tuple", "hsmall", "--k", "3", "--dmax", "10")
        assert code == 0 and "6" in out


class TestBoundCommands:
    def test_krylov_roundtrip(self, capsys, tmp_path):
        cert = tmp_path / "c.txt"
        code, out = run(capsys, "mk", "krylov", "--k", "2", "--n", "6", "--out", str(cert))
        assert code == 0 and "verified" in out
        code, out = run(capsys, "verify-cert", str(cert))
        assert code == 0 and "verified" in out

    def test_verify_cert_noncontiguous_indices(self, capsys, tmp_path):
        cert = tmp_path / "c.txt"
        run(capsys, "mk", "krylov", "--k", "2", "--n", "4", "--out", str(cert))
        text = cert.read_text()
        cert.write_text("".join(ln for ln in text.splitlines(True) if not ln.startswith("a[1]")))
        code = main(["verify-cert", str(cert)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and len(err) == 1 and err[0].startswith("error:")

    def test_verify_cert_missing_k_line(self, capsys, tmp_path):
        cert = tmp_path / "c.txt"
        run(capsys, "mk", "krylov", "--k", "2", "--n", "4", "--out", str(cert))
        text = cert.read_text()
        cert.write_text("".join(ln for ln in text.splitlines(True) if not ln.startswith("k ")))
        code = main(["verify-cert", str(cert)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and len(err) == 1 and "missing the k line" in err[0]

    def test_basis(self, capsys):
        code, out = run(capsys, "mk", "basis", "--k", "3", "--d", "2")
        assert code == 0 and "plain(3)" in out

    def test_mkeps(self, capsys, tmp_path):
        cert = tmp_path / "c.txt"
        code, out = run(capsys, "mkeps", "basis", "--k", "2", "--d", "2", "--eps", "1/4",
                        "--out", str(cert))
        assert code == 0
        code, out = run(capsys, "verify-cert", str(cert))
        assert code == 0

    def test_scalar_commands(self, capsys):
        assert run(capsys, "m2exact")[0] == 0
        assert run(capsys, "m2eps", "--eps", "1/3")[0] == 0
        assert run(capsys, "bessel", "--k", "6")[0] == 0
        code, out = run(capsys, "m4eps", "--eps", "21/125", "--alpha", "98/125")
        assert code == 0 and "4J/I" in out

    def test_asympt(self, capsys):
        code, out = run(capsys, "asympt", "--k", "5511", "--theta", "0.965", "--beta", "0.973")
        assert code == 0 and "lower_bound = 6.0000486" in out

    def test_error_exit_code(self, capsys):
        code = main(["m2eps", "--eps", "7/2"])
        assert code == 2


class TestCutoffCommands:
    def test_verify(self, capsys):
        code, out = run(capsys, "cutoff3d", "verify")
        assert code == 0
        assert "I = 62082439864241/507343011840" in out
        assert "J = 9933190664926733/40587440947200" in out
        assert "ratio exceeds 2: yes" in out

    def test_eval(self, capsys):
        code, out = run(capsys, "cutoff3d", "eval", "--piece", "H_xyz", "--at", "0,0,1/2")
        assert code == 0 and "= 4" in out


class TestChainCommands:
    def test_h1_246_chain(self, capsys, tmp_path):
        report = tmp_path / "r.txt"
        code, out = run(capsys, "chain", "hm", "--dhl-rule", "eps", "--k", "50", "--m", "1",
                        "--eps", "1/25", "--hyp", "BV", "--cert-value", "4.0043",
                        "--cert-source", "published-value",
                        "--tuple", data_path("tuple_50_246.txt"), "--out", str(report))
        assert code == 0 and "bound=246" in out
        code, out = run(capsys, "report", str(report))
        assert code == 0 and "valid" in out

    def test_marginal_chain(self, capsys, tmp_path):
        tup = tmp_path / "t3.txt"
        tup.write_text("0\n2\n6\n")
        code, out = run(capsys, "chain", "hm", "--dhl-rule", "marginal", "--k", "3",
                        "--m", "1", "--tuple", str(tup))
        assert code == 0 and "bound=6" in out

    def test_cert_file_chain(self, capsys, tmp_path):
        cert = tmp_path / "c.txt"
        run(capsys, "mk", "krylov", "--k", "5", "--n", "10", "--out", str(cert))
        tup = tmp_path / "t5.txt"
        tup.write_text("0\n4\n6\n10\n12\n")
        code, out = run(capsys, "chain", "hm", "--dhl-rule", "mk", "--k", "5", "--m", "1",
                        "--cert", str(cert), "--tuple", str(tup))
        assert code == 0 and "bound=12" in out

    def test_trunc_chain(self, capsys, tmp_path):
        # gate: 600/200 + 180/100 = 4.8 < 7; threshold 1/(1/4 + 1/200) < 4
        tup = tmp_path / "t10.txt"
        code, _ = run(capsys, "tuple", "find", "--k", "10", "--method", "eratosthenes",
                      "--out", str(tup))
        assert code == 0
        code, out = run(capsys, "chain", "hm", "--dhl-rule", "trunc", "--k", "10",
                        "--m", "1", "--varpi", "1/200", "--delta", "1/100",
                        "--cert-value", "4", "--cert-source", "synthetic",
                        "--tuple", str(tup))
        assert code == 0 and "rule=trunc" in out

    def test_report_flags_tampering(self, capsys, tmp_path):
        report = tmp_path / "r.txt"
        run(capsys, "chain", "hm", "--dhl-rule", "eps", "--k", "50", "--m", "1",
            "--eps", "1/25", "--hyp", "BV", "--cert-value", "4.0043",
            "--tuple", data_path("tuple_50_246.txt"), "--out", str(report))
        text = report.read_text().replace("margin=43/10000", "margin=1/2")
        report.write_text(text)
        code, out = run(capsys, "report", str(report))
        assert code == 1 and "INVALID" in out


GOLDEN_REPORT = (
    "report claims=1\n"
    "claim index=0 kind=hm m=1 bound=246 k=50 tuple_sha256="
    "3a3d57f7167ac31bda0330ecc6f02ca71698ef0eb182ab7ba54b9b66ce8ca367\n"
    "chain index=0 rule=eps k=50 m=1 hypothesis=BV bound=40043/10000 "
    "threshold=4 margin=43/10000 bound_source=external:published-value "
    "eps=1/25\n"
)
CHAIN_FIELDS = {"bound": "40043/10000", "threshold": "4", "margin": "43/10000", "k": "50", "m": "1"}


def edit_chain_line(old, new):
    head, chain = GOLDEN_REPORT.rsplit("chain ", 1)
    assert old in chain
    return head + "chain " + chain.replace(old, new)


def audit_file(capsys, tmp_path, text):
    path = tmp_path / "r.txt"
    path.write_text(text)
    code = main(["report", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


class TestReportAudit:
    @pytest.mark.parametrize("text", [GOLDEN_REPORT, "report claims=0\n"])
    def test_emitted_reports_valid(self, capsys, tmp_path, text):
        code, out, _ = audit_file(capsys, tmp_path, text)
        assert code == 0 and out.endswith(": valid\n")

    @pytest.mark.parametrize("old, new", [(" m=1 ", " m=2 "), (" k=50 ", " k=51 ")],
                             ids=["m", "k"])
    def test_claim_differs_from_chain(self, capsys, tmp_path, old, new):
        claim = GOLDEN_REPORT.splitlines()[1]
        text = GOLDEN_REPORT.replace(claim, claim.replace(old, new))
        code, out, _ = audit_file(capsys, tmp_path, text)
        assert code == 1 and out.endswith(": INVALID\n")

    @pytest.mark.parametrize("old, new", [
        # the margin still adds up, but the eps rule under BV at m=1 needs 4
        (" bound=40043/10000 threshold=4 margin=43/10000 ", " bound=5/2 threshold=0 margin=5/2 "),
        (" threshold=4 margin=43/10000 ", " threshold=3 margin=10043/10000 "),
        # eps = 1/25 is not below 1/(k-1) = 1/49
        (" hypothesis=BV ", " hypothesis=GEH(1/2) "),
        (" rule=eps ", " rule=trunc "),
        (" rule=eps ", " rule=sieve "),
        (" eps=1/25", " eps=1"),
    ], ids=["rewritten-threshold", "lowered-threshold", "side-condition", "wrong-rule",
            "unknown-rule", "eps-gate"])
    def test_chain_fails_its_rule(self, capsys, tmp_path, old, new):
        code, out, _ = audit_file(capsys, tmp_path, edit_chain_line(old, new))
        assert code == 1 and out.endswith(": INVALID\n")

    @pytest.mark.parametrize("old, new, message", [
        (" eps=1/25", "", "missing field eps="),
        (" hypothesis=BV ", " hypothesis=XYZ(1/2) ", "field hypothesis='XYZ(1/2)' is not parsable"),
    ], ids=["no-eps", "bad-hypothesis"])
    def test_rule_input_unreadable(self, capsys, tmp_path, old, new, message):
        code, out, err = audit_file(capsys, tmp_path, edit_chain_line(old, new))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("key", sorted(CHAIN_FIELDS))
    def test_missing_chain_field(self, capsys, tmp_path, key):
        text = edit_chain_line(f" {key}={CHAIN_FIELDS[key]} ", " ")
        code, out, err = audit_file(capsys, tmp_path, text)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and f"missing field {key}=" in err

    @pytest.mark.parametrize("key", sorted(CHAIN_FIELDS))
    def test_unparsable_chain_field(self, capsys, tmp_path, key):
        text = edit_chain_line(f" {key}={CHAIN_FIELDS[key]} ", f" {key}=1/x ")
        code, out, err = audit_file(capsys, tmp_path, text)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"field {key}='1/x' is not parsable" in err

    @pytest.mark.parametrize("text", [
        "",
        # a chain line alone, with no header
        "chain index=0 rule=eps k=50 m=1 hypothesis=BV bound=5/2 threshold=0 margin=5/2\n",
        # the header counts two claims over one
        GOLDEN_REPORT.replace("claims=1", "claims=2"),
        GOLDEN_REPORT.replace("claims=1", "claims=one"),
        GOLDEN_REPORT.replace("chain index=0", "chain index=1"),
        # claim and chain lines swapped
        "".join(GOLDEN_REPORT.splitlines(keepends=True)[i] for i in (0, 2, 1)),
        GOLDEN_REPORT + "chain index=1 rule=eps k=50 m=1 bound=5/2 threshold=0 margin=5/2\n",
    ], ids=["empty", "no-header", "count-mismatch", "bad-count", "bad-index", "swapped",
            "extra-line"])
    def test_malformed_layout(self, capsys, tmp_path, text):
        code, out, err = audit_file(capsys, tmp_path, text)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
