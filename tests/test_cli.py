import json
import os
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from primegaps.admissible import read_tuple_file
from primegaps.cli import main
from primegaps.sieves import apply_residue_sieve

from .reference import EARLIER_CERTIFICATES


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
                        "--shift", "0", "--batch-size", "2")
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

    @pytest.mark.parametrize("method, flag, value", [
        ("eratosthenes", "--shift", "5"), ("k-primes-past-k", "--shift", "search"),
        ("hensley-richards", "--batch-size", "1"), ("shifted-schinzel", "--batch-size", "3"),
    ])
    def test_find_refuses_unread_flag(self, capsys, method, flag, value):
        # --shift is read by the shifted methods only, --batch-size by shifted-greedy only
        code = main(["tuple", "find", "--k", "7", "--method", method, flag, value])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: --method {method} takes no {flag}\n"

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

    @pytest.mark.parametrize("text, number", [("k=2\n0\nabc\n", 3), ("0\n" + "1" * 5001 + "\n", 2)],
                             ids=["word", "5001-digits"])
    def test_verify_refuses_malformed_file(self, capsys, tmp_path, text, number):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code = main(["tuple", "verify", str(bad)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: line {number}: ")
        assert len(err) < 100

    def test_verify_reference(self, capsys):
        code, out = run(capsys, "tuple", "verify", data_path("tuple_50_246.txt"))
        assert code == 0 and "diameter=246" in out

    def test_hsmall(self, capsys):
        code, out = run(capsys, "tuple", "hsmall", "--k", "3", "--dmax", "10")
        assert code == 0 and "6" in out

    def test_find_unparsable_shift(self, capsys):
        code = main(["tuple", "find", "--k", "7", "--method", "shifted-greedy", "--shift", "abc"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: --shift takes an integer or 'search', not 'abc'\n"

    def test_find_unallocatable_k(self, capsys):
        # the primes up to p_(2k) need 3.27 PiB, past any user address space:
        # one error line and exit 2, not a MemoryError traceback
        code = main(["tuple", "find", "--k", str(10**14)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: Unable to allocate")


class TestBoundCommands:
    def test_krylov_roundtrip(self, capsys, tmp_path):
        cert = tmp_path / "c.txt"
        code, out = run(capsys, "mk", "krylov", "--k", "2", "--n", "6", "--out", str(cert))
        assert code == 0 and "verified" in out
        code, out = run(capsys, "verify-cert", str(cert))
        assert code == 0 and "verified" in out

    def test_krylov_term_cap(self, capsys):
        # L^59 1 at k = 10 has 1,548,122 terms: refused before any step
        t0 = time.perf_counter()
        code = main(["mk", "krylov", "--k", "10", "--n", "30"])
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and elapsed < 1
        assert err.count("\n") == 1 and err.startswith("error: term cap exceeded")
        assert "1548122" in err

    def test_verify_cert_krylov_term_cap(self, capsys, tmp_path):
        # a certificate naming that order is refused the same way
        cert = tmp_path / "c.txt"
        lines = [f"a[{i}] = 1\n" for i in range(30)]
        cert.write_text("variant plain\nk 10\nd 0\nbasis krylov\nC = 1\n" + "".join(lines))
        t0 = time.perf_counter()
        code = main(["verify-cert", str(cert)])
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and len(err) == 1 and elapsed < 1
        assert err[0].startswith("error: term cap exceeded")

    @pytest.mark.parametrize("path", sorted(EARLIER_CERTIFICATES.glob("*.cert")), ids=lambda p: p.stem)
    def test_verify_cert_earlier_certificates(self, capsys, path):
        # files written with wide rational coefficients still verify
        code, out = run(capsys, "verify-cert", str(path))
        assert code == 0 and out.rstrip().endswith(" verified")

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

    def test_verify_cert_eps_krylov_refused_before_moments(self, capsys, tmp_path, monkeypatch):
        from primegaps import varprob

        calls = []
        monkeypatch.setattr(varprob, "krylov_moments", lambda *args: calls.append(args))
        cert = tmp_path / "c.txt"
        cert.write_text("variant eps\nk 3000\nd 0\neps 1/4\nbasis krylov\nC = 1\na[0] = 1\n")
        code = main(["verify-cert", str(cert)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and len(err) == 1 and err[0].startswith("error:")
        assert "plain-variant only" in err[0] and calls == []

    @pytest.mark.parametrize(
        "pattern,repl,message",
        [
            (r"^basis even$", "basis weird", "field basis='weird' is not one of even, full, krylov"),
            (r"^C = .*$", "C = 1/0", "field C='1/0' is not parsable"),
            (r"^a\[0\] = .*$", "a[0] = 1/0", "field a[0]='1/0' is not parsable"),
            (r"^k 3$", "k abc", "field k='abc' is not parsable"),
            (r"^C = .*$", "C = 1/-2", "field C='1/-2' is not parsable"),
            (r"^C = .*$", r"\g<0>\nC = 1/1000", "file repeats the C line"),
            (r"^variant plain$", r"k 2\n\g<0>", "file repeats the k line"),
            (r"^variant plain$", r"\g<0>\nvariant eps", "file repeats the variant line"),
            (r"^d 2$", r"\g<0>\nd 4", "file repeats the d line"),
            (r"^d 2$", r"\g<0>\neps 1/4\neps 1/4", "file repeats the eps line"),
            (r"^basis even$", r"\g<0>\nbasis full", "file repeats the basis line"),
            (r"^a\[1\] = .*$", r"\g<0>\na[1] = 0", "file repeats the a[1] line"),
        ],
        ids=["unknown-basis", "C-zero-denominator", "a0-zero-denominator", "k-not-integer",
             "C-signed-denominator", "C-repeated", "k-repeated", "variant-repeated", "d-repeated",
             "eps-repeated", "basis-repeated", "a1-repeated"],
    )
    def test_verify_cert_malformed_field(self, capsys, tmp_path, pattern, repl, message):
        cert = tmp_path / "c.txt"
        run(capsys, "mk", "basis", "--k", "3", "--d", "2", "--out", str(cert))
        text, count = re.subn(pattern, repl, cert.read_text(), flags=re.M)
        assert count == 1
        cert.write_text(text)
        code = main(["verify-cert", str(cert)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and err == [f"error: certificate {message}"]

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

    @pytest.mark.parametrize("eps", ["1 / 4", "1/+4", "1/0"],
                             ids=["spaced-slash", "signed-denominator", "zero-denominator"])
    def test_unparsable_rational_argument(self, capsys, eps):
        code = main(["mkeps", "basis", "--k", "2", "--d", "4", "--eps", eps])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["m2eps", "--eps", "1e999999999"],
        ["m4eps", "--eps", "21/125", "--alpha", "1E-999999999"],
        ["mkeps", "basis", "--k", "2", "--d", "4", "--eps", "1e4301"],
        ["cutoff3d", "eval", "--piece", "G_yzx", "--at", "1/2,1/2,1e999999999"],
        ["chain", "hm", "--dhl-rule", "eps", "--k", "50", "--m", "1", "--eps", "1e-999_999_999",
         "--cert-value", "4.0043", "--tuple", data_path("tuple_50_246.txt")],
        ["chain", "hm", "--dhl-rule", "mk", "--k", "50", "--m", "1", "--theta", "1e999999999",
         "--cert-value", "4.0043", "--tuple", data_path("tuple_50_246.txt")],
        ["chain", "hm", "--dhl-rule", "trunc", "--k", "50", "--m", "1", "--varpi", "1e999999999",
         "--delta", "1/100", "--cert-value", "4.0043", "--tuple", data_path("tuple_50_246.txt")],
        ["chain", "hm", "--dhl-rule", "mk", "--k", "50", "--m", "1", "--cert-value", "1e999999999",
         "--tuple", data_path("tuple_50_246.txt")],
        ["asympt", "--k", "5511", "--theta", "1e999999999", "--beta", "0.9"],
    ], ids=["m2eps", "m4eps-alpha", "mkeps", "at", "chain-eps", "chain-theta", "chain-varpi",
            "cert-value", "asympt-theta"])
    def test_huge_decimal_exponent_refused(self, capsys, argv):
        # 10^999999999 would take minutes and about 415 MB to build
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: --") and "decimal exponent past 4300" in err
        assert elapsed < 0.1

    @pytest.mark.parametrize("field", ["C", "a[0]", "eps"])
    def test_verify_cert_refuses_huge_exponent(self, capsys, tmp_path, field):
        cert = tmp_path / "c.txt"
        text = (EARLIER_CERTIFICATES / "krylov-2-12.cert").read_text()
        if field == "eps":
            text = text.replace("variant plain", "variant eps").replace("basis krylov", "eps 1e999999999")
        else:
            text, count = re.subn(rf"^{re.escape(field)} = .*$", f"{field} = 1e999999999", text, flags=re.M)
            assert count == 1
        cert.write_text(text)
        start = time.perf_counter()
        code = main(["verify-cert", str(cert)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith(f"error: certificate field {field}='1e999999999' has a decimal exponent")
        assert elapsed < 0.1

    @pytest.mark.parametrize("value, code", [("1e4300", 2), ("1e4299", 0)])
    def test_cert_value_digit_limit(self, capsys, value, code):
        # 10^4300 parses, but has more digits than int's default limit prints
        assert main(["chain", "hm", "--dhl-rule", "mk", "--k", "50", "--m", "1", "--hyp", "BV",
                     "--cert-value", value, "--tuple", data_path("tuple_50_246.txt")]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and err == (
                "error: --cert-value='1e4300' has a numerator or denominator of more than 4300 digits\n")
        else:
            assert err == "" and f"bound={10**4299}" in out

    def test_verify_cert_refuses_too_many_digits(self, capsys, tmp_path):
        cert = tmp_path / "c.txt"
        text = (EARLIER_CERTIFICATES / "krylov-2-12.cert").read_text()
        text, count = re.subn(r"^C = .*$", "C = 1e4300", text, flags=re.M)
        assert count == 1
        cert.write_text(text)
        assert main(["verify-cert", str(cert)]) == 2
        assert capsys.readouterr().err == (
            "error: certificate field C='1e4300' has a numerator or denominator of more than 4300 digits\n")

    def test_multiline_error_is_one_line(self, capsys, monkeypatch):
        def fail(k):
            raise ValueError("hypsum() failed to converge to the requested 7223 bits\n"
                             "  of accuracy\nusing a working precision of 40000 bits.")

        monkeypatch.setattr("primegaps.bounds.bessel_lower", fail)
        code = main(["bessel", "--k", "6"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: hypsum() failed")
        assert "7223 bits of accuracy using" in err

    @pytest.mark.parametrize("argv, message", [
        (["tuple", "hsmall", "--dmax", "3"], "the following arguments are required: --k"),
        ([], "the following arguments are required: cmd"),
        (["tuple"], "the following arguments are required: tuple_cmd"),
        (["tuple", "find", "--k", "7", "--method", "nope"], "--method invalid choice: 'nope' (choose from "),
        (["m2exact", "--bogus"], "unrecognized arguments: --bogus"),
        (["chain", "hm", "--dhl-rule", "plain", "--k", "3", "--m", "1", "--tuple", "t.txt"],
         "--dhl-rule invalid choice: 'plain' (choose from "),
        (["tuple", "find", "--k"], "--k expected one argument"),
        (["asympt", "--k", "1", "--theta", "0.9", "--beta", "0.9"], "k must be >= 2"),
        (["asympt", "--k", "0", "--theta", "0.9", "--beta", "0.9"], "k must be >= 2"),
    ], ids=["missing-option", "no-command", "no-subcommand", "bad-choice", "unknown-option",
            "unknown-rule", "missing-value", "asympt-k1", "asympt-k0"])
    def test_refusal_is_one_line(self, capsys, argv, message):
        # argparse's own refusals go through main like every other: exit 2,
        # no usage text, one error line
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv, usage", [
        (["--help"], "usage: primegaps [-h]"),
        (["tuple", "find", "--help"], "usage: primegaps tuple find [-h]"),
    ], ids=["top", "tuple-find"])
    def test_help_exits_zero(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 0 and err == "" and out.startswith(usage)

    def test_bessel_large_order(self, capsys):
        code, out = run(capsys, "bessel", "--k", "7472")
        assert code == 0 and out == "3.96296588843572\n"


class TestCutoffCommands:
    def test_verify(self, capsys):
        code, out = run(capsys, "cutoff3d", "verify")
        assert code == 0
        assert "I = 62082439864241/507343011840" in out
        assert "J = 9933190664926733/40587440947200" in out
        assert "ratio exceeds 2: yes" in out

    def test_verify_reports_nonzero_marginal(self, capsys, monkeypatch):
        from primegaps import cutoff3d

        tampered = cutoff3d.builtin_cutoff().with_piece("H", cutoff3d.Poly3({(0, 0, 1): 9}))
        monkeypatch.setattr(cutoff3d, "builtin_cutoff", lambda: tampered)
        code, out = run(capsys, "cutoff3d", "verify")
        assert code == 1
        nonzero = [ln for ln in out.splitlines() if "NONZERO" in ln]
        assert len(nonzero) == 1 and nonzero[0].startswith("marginal E_yzx+S_yzx+H_yzx: NONZERO ")
        assert "ratio exceeds 2: no" in out

    def test_eval(self, capsys):
        code, out = run(capsys, "cutoff3d", "eval", "--piece", "H_xyz", "--at", "0,0,1/2")
        assert code == 0 and "= 4" in out

    @pytest.mark.parametrize("at", ["1/2,1/2", "1/2,1/2,1/4,0"], ids=["two", "four"])
    def test_eval_needs_three_coordinates(self, capsys, at):
        code = main(["cutoff3d", "eval", "--piece", "G_yzx", "--at", at])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: --at takes three rationals x,y,z, not '{at}'\n"

    @pytest.mark.parametrize("piece", ["Z_xyz", "A_abc"])
    def test_eval_unknown_piece_refused(self, capsys, piece):
        # exit 1 would read "not verified": an unknown name is an input error
        code = main(["cutoff3d", "eval", "--piece", piece, "--at", "0,0,0"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: unknown piece '{piece}'")


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

    @pytest.mark.parametrize("rule_args, cert, message", [
        (["--dhl-rule", "mk", "--hyp", "BV"], "krylov-2-12.cert",
         "certificate variant plain(2) does not match the rule for k=50"),
        (["--dhl-rule", "eps", "--eps", "1/25", "--hyp", "BV"], "krylov-2-12.cert",
         "certificate variant plain(2) does not match the rule for k=50"),
        (["--dhl-rule", "eps", "--eps", "1/30", "--hyp", "BV"], "eps-50-6.cert",
         "certificate variant eps(50, 1/25) does not match the rule at eps = 1/30"),
    ], ids=["mk-k", "eps-kind", "eps-eps"])
    def test_cert_mismatch_refused_before_reassembly(self, capsys, monkeypatch, rule_args, cert,
                                                     message):
        # the variant the file's header names is checked against the rule
        # before the Gram pair is rebuilt
        from primegaps import varprob

        def reassemble(path):
            raise AssertionError("a mismatched certificate was re-assembled")

        monkeypatch.setattr(varprob, "verify_certificate_file", reassemble)
        code = main(["chain", "hm", *rule_args, "--k", "50", "--m", "1",
                     "--cert", str(EARLIER_CERTIFICATES / cert),
                     "--tuple", data_path("tuple_50_246.txt")])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("source", ["Polymath 8b table", "x threshold=1"])
    def test_source_that_would_not_read_back(self, capsys, tmp_path, source):
        report = tmp_path / "r.txt"
        code = main(["chain", "hm", "--dhl-rule", "eps", "--k", "50", "--m", "1",
                     "--eps", "1/25", "--hyp", "BV", "--cert-value", "4.0043",
                     "--cert-source", source, "--tuple", data_path("tuple_50_246.txt"),
                     "--out", str(report)])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and not report.exists()
        assert err.count("\n") == 1 and err.startswith("error: provenance bound_source=")

    @pytest.mark.parametrize("rule_args", [
        ["--dhl-rule", "mk", "--hyp", "BV"],
        ["--dhl-rule", "trunc", "--varpi", "1/200", "--delta", "1/100"],
        ["--dhl-rule", "eps", "--eps", "1/25", "--hyp", "BV"],
    ], ids=["mk", "trunc", "eps"])
    def test_chain_without_evidence(self, capsys, rule_args):
        code = main(["chain", "hm", *rule_args, "--k", "50", "--m", "1",
                     "--tuple", data_path("tuple_50_246.txt")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "--cert " in err and "--cert-value" in err

    @pytest.mark.parametrize("evidence", [["--cert", "missing.cert"], ["--cert-value", "4"]],
                             ids=["cert", "cert-value"])
    def test_marginal_chain_refuses_evidence(self, capsys, tmp_path, evidence):
        # the marginal rule rests on the built-in cutoff verification, so a
        # certificate or value handed in is refused before any file is read
        tup = tmp_path / "t3.txt"
        tup.write_text("0\n2\n6\n")
        code = main(["chain", "hm", "--dhl-rule", "marginal", "--k", "3", "--m", "1",
                     *evidence, "--tuple", str(tup)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "marginal" in err and "missing.cert" not in err

    @pytest.mark.parametrize("setting,message", [
        (["--k", "7"], "needs --k 3 (the built-in cutoff), not 7"),
        (["--hyp", "BV"], "needs --hyp GEH, not BV"),
        (["--hyp", "EH"], "needs --hyp GEH, not EH"),
        (["--eps", "1/3"], "needs the built-in cutoff's --eps 1/4, not 1/3"),
    ], ids=["k", "hyp-BV", "hyp-EH", "eps"])
    def test_marginal_chain_refuses_other_setting(self, capsys, tmp_path, setting, message):
        # the built-in cutoff fixes k = 3, GEH and eps = 1/4: another value
        # is refused, not ignored
        tup = tmp_path / "t3.txt"
        tup.write_text("0\n2\n6\n")
        args = ["chain", "hm", "--dhl-rule", "marginal", "--k", "3", "--m", "1", "--tuple", str(tup)]
        code = main(args + setting)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: --dhl-rule marginal {message}\n"

    @pytest.mark.parametrize("setting", [["--hyp", "GEH"], ["--eps", "1/4"], ["--eps", "0.25"]],
                             ids=["hyp-GEH", "eps", "eps-decimal"])
    def test_marginal_chain_accepts_builtin_setting(self, capsys, tmp_path, setting):
        # the README chain's tuple, 5 7 11, as `tuple find` writes it
        tup = tmp_path / "t3.txt"
        tup.write_text("k=3\n5\n7\n11\n")
        code, out = run(capsys, "chain", "hm", "--dhl-rule", "marginal", "--k", "3", "--m", "1",
                        "--tuple", str(tup), *setting)
        golden = os.path.join(os.path.dirname(__file__), "data", "golden", "cli", "chain-marginal.out")
        with open(golden) as fh:
            assert code == 0 and out == fh.read()

    @pytest.mark.parametrize("rule, flag", [
        ("mk", "eps"), ("mk", "varpi"), ("mk", "delta"), ("mk", "nonstrict"),
        ("trunc", "hyp"), ("trunc", "theta"), ("trunc", "eps"), ("trunc", "nonstrict"),
        ("eps", "varpi"), ("eps", "delta"),
        ("marginal", "varpi"), ("marginal", "delta"), ("marginal", "nonstrict"),
    ])
    def test_chain_refuses_unread_flag(self, capsys, rule, flag):
        # a flag the rule would not read is refused, not dropped from the claim
        value = {"eps": ["1/4"], "varpi": ["1/200"], "delta": ["1/100"], "nonstrict": [],
                 "hyp": ["GEH"], "theta": ["1/2"]}[flag]
        code = main(["chain", "hm", "--dhl-rule", rule, *CHAIN_RULE_ARGS[rule],
                     f"--{flag}", *value, "--tuple", data_path("tuple_50_246.txt")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: --dhl-rule {rule} takes no --{flag}\n"

    @pytest.mark.parametrize("rule", ["mk", "eps", "marginal"])
    def test_chain_refuses_theta_with_bv(self, capsys, rule):
        code = main(["chain", "hm", "--dhl-rule", rule, *CHAIN_RULE_ARGS[rule], "--hyp", "BV",
                     "--theta", "1/3", "--tuple", data_path("tuple_50_246.txt")])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err == "error: --hyp BV takes no --theta\n"

    @pytest.mark.parametrize("rule, flag", [("trunc", "varpi"), ("trunc", "delta"), ("eps", "eps")])
    def test_chain_needs_rule_flag(self, capsys, rule, flag):
        args = CHAIN_RULE_ARGS[rule]
        i = args.index(f"--{flag}")
        code = main(["chain", "hm", "--dhl-rule", rule, *args[:i], *args[i + 2:],
                     "--tuple", data_path("tuple_50_246.txt")])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err == f"error: --dhl-rule {rule} needs --{flag}\n"

    def test_report_flags_tampering(self, capsys, tmp_path):
        report = tmp_path / "r.txt"
        run(capsys, "chain", "hm", "--dhl-rule", "eps", "--k", "50", "--m", "1",
            "--eps", "1/25", "--hyp", "BV", "--cert-value", "4.0043",
            "--tuple", data_path("tuple_50_246.txt"), "--out", str(report))
        text = report.read_text().replace("margin=43/10000", "margin=1/2")
        report.write_text(text)
        code, out = run(capsys, "report", str(report))
        assert code == 1 and "INVALID" in out


#: per rule, chain hm arguments that its claim needs, up to --tuple
CHAIN_RULE_ARGS = {
    "mk": ["--k", "5", "--m", "1", "--cert-value", "4.5"],
    "trunc": ["--k", "10", "--m", "1", "--varpi", "1/200", "--delta", "1/100", "--cert-value", "4"],
    "eps": ["--k", "50", "--m", "1", "--eps", "1/25", "--cert-value", "4.0043"],
    "marginal": ["--k", "3", "--m", "1"],
}


GOLDEN_REPORT = (
    "report claims=1\n"
    "claim index=0 kind=hm m=1 bound=246 k=50 tuple_sha256="
    "3a3d57f7167ac31bda0330ecc6f02ca71698ef0eb182ab7ba54b9b66ce8ca367\n"
    "chain index=0 rule=eps k=50 m=1 hypothesis=BV bound=40043/10000 "
    "threshold=4 margin=43/10000 bound_source=external:published-value "
    "eps=1/25\n"
)
CHAIN_FIELDS = {"bound": "40043/10000", "threshold": "4", "margin": "43/10000", "k": "50", "m": "1"}


def test_readme_chain_prints_golden_report(capsys):
    # README's H_1 <= 246 command; the CI workflow diffs the installed
    # script's stdout against the same file
    code, out = run(capsys, "chain", "hm", "--dhl-rule", "eps", "--k", "50", "--m", "1",
                    "--eps", "1/25", "--hyp", "BV", "--cert-value", "4.0043",
                    "--tuple", data_path("tuple_50_246.txt"))
    golden = os.path.join(os.path.dirname(__file__), "data", "golden", "cli", "chain-eps.out")
    with open(golden) as fh:
        assert code == 0 and out == GOLDEN_REPORT == fh.read()


#: README's tuple lines and the H_1 <= 6 chain, as the CI workflow runs them:
#: golden file name, then the arguments; later lines read the files earlier
#: ones write
README_TUPLE_LINES = (
    ("tuple-find-greedy", "tuple find --k 5511 --method shifted-greedy --shift 0 --out t.txt"),
    ("tuple-find-sieve", "tuple find --k 311 --method shifted-greedy --sieve-out sieve.txt"),
    ("tuple-verify", "tuple verify t.txt"),
    ("tuple-hsmall", "tuple hsmall --k 3 --dmax 10"),
    ("tuple-find-schinzel", "tuple find --k 5511 --out ts.txt"),
    ("tuple-verify-schinzel", "tuple verify ts.txt"),
    ("tuple-find-hr", "tuple find --k 5511 --method hensley-richards --out th.txt"),
    ("tuple-verify-hr", "tuple verify th.txt"),
    ("tuple-find-k3", "tuple find --k 3 --method k-primes-past-k --out t3.txt"),
    ("chain-marginal", "chain hm --dhl-rule marginal --k 3 --m 1 --tuple t3.txt"),
)


def test_readme_tuple_lines_print_golden_output(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = os.path.join(os.path.dirname(__file__), "data", "golden", "cli")
    for name, args in README_TUPLE_LINES:
        code, out = run(capsys, *args.split())
        with open(os.path.join(golden, name + ".out")) as fh:
            assert code == 0 and out == fh.read(), name


#: README's asymptotic and cutoff lines, as the CI workflow runs them
README_SCALAR_LINES = (
    ("asympt", "asympt --k 5511 --theta 0.965 --beta 0.973"),
    ("asympt-h2", "asympt --k 35410 --theta 0.99479 --beta 0.85213"),
    ("cutoff3d-verify", "cutoff3d verify"),
    ("cutoff3d-eval", "cutoff3d eval --piece G_yzx --at 1/2,1/2,1/4"),
)


@pytest.mark.parametrize("name, args", README_SCALAR_LINES, ids=[n for n, _ in README_SCALAR_LINES])
def test_readme_scalar_lines_print_golden_output(capsys, name, args):
    golden = os.path.join(os.path.dirname(__file__), "data", "golden", "cli", name + ".out")
    code, out = run(capsys, *args.split())
    with open(golden) as fh:
        assert code == 0 and out == fh.read()


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
        # mk shares the BV threshold, but eps= is not an mk chain's provenance
        (" rule=eps ", " rule=mk "),
        (" rule=eps ", " rule=sieve "),
        (" eps=1/25", " eps=1"),
    ], ids=["rewritten-threshold", "lowered-threshold", "side-condition", "wrong-rule",
            "relabel-mk", "unknown-rule", "eps-gate"])
    def test_chain_fails_its_rule(self, capsys, tmp_path, old, new):
        code, out, _ = audit_file(capsys, tmp_path, edit_chain_line(old, new))
        assert code == 1 and out.endswith(": INVALID\n")

    @pytest.mark.parametrize("old, new", [
        ("bound=40043/10000", "bound=80086/20000"),
        (" threshold=4", "  threshold=4"),
        ("threshold=4 margin=43/10000", "margin=43/10000 threshold=4"),
        (" eps=1/25", " eps=1/25 bound=40043/10000"),
    ], ids=["unreduced-bound", "doubled-space", "margin-first", "second-bound"])
    def test_chain_not_as_rendered(self, capsys, tmp_path, old, new):
        code, out, _ = audit_file(capsys, tmp_path, edit_chain_line(old, new))
        assert code == 1 and out.endswith(": INVALID\n")

    @pytest.mark.parametrize("old, new", [
        ("3a3d57f7167ac31bda0330ecc6f02ca71698ef0eb182ab7ba54b9b66ce8ca367", "0000"),
        (" kind=hm ", " kind=gap "),
        (" bound=246 ", " bound=-246 "),
    ], ids=["short-digest", "kind", "negative-bound"])
    def test_malformed_claim_line(self, capsys, tmp_path, old, new):
        code, out, err = audit_file(capsys, tmp_path, GOLDEN_REPORT.replace(old, new, 1))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "line 2" in err

    @pytest.mark.parametrize("old, new, message", [
        (" eps=1/25", "", "missing field eps="),
        (" hypothesis=BV ", " hypothesis=XYZ(1/2) ", "field hypothesis='XYZ(1/2)' is not parsable"),
        ("bound=40043/10000", "bound=40043/-10000", "field bound='40043/-10000' is not parsable"),
    ], ids=["no-eps", "bad-hypothesis", "signed-denominator"])
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

    @pytest.mark.parametrize("old, new, message", [
        ("bound=40043/10000", "bound=1e999999999", "field bound='1e999999999' has a decimal exponent"),
        ("threshold=4 ", "threshold=4e-999999999 ", "field threshold='4e-999999999' has a decimal exponent"),
        ("margin=43/10000", "margin=1e999999999", "field margin='1e999999999' has a decimal exponent"),
        ("eps=1/25", "eps=1e999999999", "field eps='1e999999999' has a decimal exponent"),
        ("hypothesis=BV", "hypothesis=EH(1e999999999)", "field hypothesis='EH(1e999999999)' is not parsable"),
        ("hypothesis=BV", "hypothesis=MPZ(1/200,1e999999999)", "field hypothesis='MPZ(1/200,1e999999999)'"),
    ], ids=["bound", "threshold", "margin", "eps", "theta", "delta"])
    def test_huge_decimal_exponent_refused(self, capsys, tmp_path, old, new, message):
        start = time.perf_counter()
        code, out, err = audit_file(capsys, tmp_path, edit_chain_line(old, new))
        elapsed = time.perf_counter() - start
        assert code == 2 and out == "" and err.count("\n") == 1 and f"line 3: {message}" in err
        assert elapsed < 0.1

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


#: run in a fresh interpreter: the modules loaded by `import primegaps`, then
#: by one use of a submodule and by `from primegaps import *`
IMPORT_PROBE = """
import json, sys
import primegaps
got = {"bare": sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "mpmath")
                      or m.startswith("primegaps.")),
       "varprob": primegaps.varprob is sys.modules["primegaps.varprob"]}
try:
    primegaps.nope
    got["nope"] = "resolved"
except AttributeError as exc:
    got["nope"] = str(exc)
from primegaps import *
got["star"] = sorted(name for name in primegaps.__all__ if name in globals())
print(json.dumps(got))
"""

#: `python -m primegaps ARGS...` in a fresh interpreter, then the exit code
#: and every module it loaded (`-X importtime` would miss the submodules,
#: which the package imports through importlib)
CLI_PROBE = """
import json, runpy, sys
sys.argv[0] = "primegaps"
try:
    runpy.run_module("primegaps", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _python(*args):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_import_on_use():
    # every audit is a fresh process, so start-up is the floor of each one:
    # the package loads nothing until a submodule is used
    got = _python("-c", IMPORT_PROBE)
    assert got["bare"] == [] and got["varprob"] is True
    assert got["nope"] == "module 'primegaps' has no attribute 'nope'"
    assert got["star"] == sorted(__import__("primegaps").__all__)
    # a command that evaluates no bound loads neither bounds nor mpmath
    got = _python("-c", CLI_PROBE, "verify-cert", str(EARLIER_CERTIFICATES / "krylov-2-12.cert"))
    assert got["code"] == 0 and "primegaps.varprob" in got["modules"]
    assert not {"mpmath", "primegaps.bounds"} & set(got["modules"])
    # and a bound command loads both
    got = _python("-c", CLI_PROBE, "m2exact")
    assert got["code"] == 0 and {"mpmath", "primegaps.bounds"} <= set(got["modules"])
