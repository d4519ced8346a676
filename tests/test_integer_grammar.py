"""One integer grammar for every file and every integer option: ASCII digits
after at most one sign, no underscores, at most 4300 digits
(admissible.read_int).  One case per format that holds integers: tuple,
certificate, residue-sieve and report files, and the CLI's options.  Each
underscore form below is one that int() takes."""

import pytest

from primegaps.admissible import MAX_DIGITS, read_int
from primegaps.cli import main
from primegaps.pipeline import audit_report
from primegaps.sieves import SieveConfig, apply_residue_sieve, shifted_greedy_run, write_residue_sieve

from .reference import EARLIER_CERTIFICATES


class TestReadInt:
    @pytest.mark.parametrize("text, value", [
        ("0", 0), ("-0", 0), ("+7", 7), ("-12", -12), ("007", 7),
        ("9" * MAX_DIGITS, 10**MAX_DIGITS - 1), ("-" + "9" * MAX_DIGITS, 1 - 10**MAX_DIGITS),
    ])
    def test_accepted(self, text, value):
        assert read_int(text) == value

    @pytest.mark.parametrize("text", [
        "", "+", "-", "1_0", "+-5", "--5", " 5", "5 ", "5\n", "1.0", "1e3", "0x10", "٣",
        "1" * (MAX_DIGITS + 1),
    ])
    def test_refused(self, text):
        with pytest.raises(ValueError):
            read_int(text)


def test_tuple_file(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("k=3\n0\n2\n6_0\n")
    assert main(["tuple", "verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 4: '6_0' is not a decimal integer of at most 4300 digits\n"


@pytest.mark.parametrize("old, new, field", [
    ("k 2\n", "k 0_2\n", "k='0_2'"),
    ("d 0\n", "d 0_0\n", "d='0_0'"),
    ("a[1] =", "a[0_1] =", "a[0_1]='0_1'"),
], ids=["k", "d", "a-index"])
def test_certificate_file(capsys, tmp_path, old, new, field):
    text = (EARLIER_CERTIFICATES / "krylov-2-12.cert").read_text()
    assert text.count(old) == 1
    path = tmp_path / "c.cert"
    path.write_text(text.replace(old, new))
    assert main(["verify-cert", str(path)]) == 2
    assert capsys.readouterr().err == f"error: certificate field {field} is not parsable\n"


@pytest.mark.parametrize("row", [0, 1], ids=["header", "entry"])
def test_residue_sieve_file(tmp_path, row):
    run = shifted_greedy_run(101, SieveConfig(method="shifted-greedy", shift=0))
    path = tmp_path / "s.txt"
    write_residue_sieve(path, run)
    lines = path.read_text().splitlines()
    assert apply_residue_sieve(path).offsets == run.tuple.offsets
    lines[row] = "0_" + lines[row]  # int() reads 0_101 as 101
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^residue sieve file holds a non-integer field$"):
        apply_residue_sieve(path)


@pytest.mark.parametrize("old, new, message", [
    ("report claims=1", "report claims=0_1", "report header: field claims='0_1' is not parsable"),
    (" m=1 bound=246 k=50 ", " m=1 bound=246 k=5_0 ", "line 2: field k='5_0' is not parsable"),
    ("chain index=0 ", "chain index=0_0 ", "line 3: field index='0_0' is not parsable"),
], ids=["header", "claim-k", "chain-index"])
def test_report_file(old, new, message):
    from .test_cli import GOLDEN_REPORT

    assert audit_report(GOLDEN_REPORT)
    text = GOLDEN_REPORT.replace(old, new)
    assert text != GOLDEN_REPORT
    with pytest.raises(ValueError, match=f"^{message}$"):
        audit_report(text)


@pytest.mark.parametrize("argv, option, text", [
    (["tuple", "hsmall", "--k", "0_3", "--dmax", "10"], "--k", "0_3"),
    (["tuple", "hsmall", "--k", "3", "--dmax", "1_0"], "--dmax", "1_0"),
    (["tuple", "hsmall", "--k", " 3", "--dmax", "10"], "--k", " 3"),
    (["tuple", "find", "--k", "7", "--batch-size", "0_1"], "--batch-size", "0_1"),
    (["mk", "krylov", "--k", "2", "--n", "٣"], "--n", "٣"),
    (["mkeps", "basis", "--k", "2", "--d", "4_", "--eps", "1/4"], "--d", "4_"),
    (["bessel", "--k", "0_6"], "--k", "0_6"),
    (["chain", "hm", "--dhl-rule", "mk", "--k", "5", "--m", "1_0", "--cert-value", "4.5",
      "--tuple", "t.txt"], "--m", "1_0"),
], ids=["k", "dmax", "space", "batch-size", "n", "d", "bessel-k", "m"])
def test_cli_option(capsys, argv, option, text):
    # one error line that names the option, as for --shift: no usage text
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: {option} takes an integer, not {text!r}\n"


@pytest.mark.parametrize("shift", ["0_0", " 0", "٠"])
def test_cli_shift(capsys, shift):
    code = main(["tuple", "find", "--k", "7", "--method", "shifted-greedy", "--shift", shift])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: --shift takes an integer or 'search', not {shift!r}\n"
