"""Tests of the benchmark's own checkers (they must catch what they claim to).

    python3 -m pytest perfbench/test_checks.py

These import nothing from ``primegaps``.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import inputs
import run


def test_covered_prime_finds_the_full_residue_system():
    assert checks.covered_prime([0, 2, 4]) == 3
    assert checks.covered_prime([0, 2, 6]) is None
    assert checks.covered_prime(list(range(10))) == 2
    assert checks.covered_prime(checks.read_tuple(inputs.REFERENCE_TUPLE_50)) is None


def test_tuple_problems_and_reader():
    assert checks.tuple_problems("t", [0, 2, 6], 3) == []
    assert len(checks.tuple_problems("t", [0, 2, 4], 3)) == 1
    assert len(checks.tuple_problems("t", [0, 6, 2], 3)) == 1
    assert len(checks.tuple_problems("t", [0, 2, 6], 4)) == 1


def test_read_tuple_rejects_a_wrong_declared_k(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# comment\nk=4\n0\n2\n6\n")
    with pytest.raises(ValueError):
        checks.read_tuple(path)


def test_read_certificate_rejects_noncontiguous_indices(tmp_path):
    good = "variant plain\nk 2\nd 0\nbasis krylov\nC = 1/2\na[0] = 1\na[1] = -3/7\n"
    path = tmp_path / "c.cert"
    path.write_text(good)
    cert = checks.read_certificate(path)
    assert cert["a"] == [1, Fraction(-3, 7)] and cert["C"] == Fraction(1, 2) and cert["k"] == 2
    path.write_text(good.replace("a[1]", "a[2]"))
    with pytest.raises(ValueError):
        checks.read_certificate(path)


def test_margin_is_exact_and_strict():
    M1 = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    M2 = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
    a = [Fraction(1), Fraction(0)]
    assert checks.margin_problems("m", M1, M2, a, Fraction(199, 100)) == []
    assert checks.margin_problems("m", M1, M2, a, Fraction(2))  # equality is not a bound
    assert checks.margin_problems("m", M1, M2, [Fraction(0), Fraction(0)], Fraction(1))
    asym = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(1)]]
    assert checks.margin_problems("m", M1, asym, a, Fraction(1))


def test_first_gram_entries_match_direct_integrals():
    # k = 2, plain: M1 = area of the unit triangle, M2 = 2 int_0^1 (1-s)^2 ds
    assert checks.gram_first_entries("plain", 2, None) == (Fraction(1, 2), Fraction(2, 3))
    # k = 3, eps: midpoint rule on the density s/1! of the sum of two coordinates
    eps = Fraction(1, 4)
    w, c = 1 + float(eps), 1 - float(eps)
    n = 20000
    h = c / n
    direct = 3 * sum((w - s) ** 2 * s * h for s in ((i + 0.5) * h for i in range(n)))
    m1, m2 = checks.gram_first_entries("eps", 3, eps)
    assert m1 == Fraction(5, 4) ** 3 / 6
    assert math.isclose(float(m2), direct, rel_tol=1e-6)


def test_krylov_moments_closed_forms_at_k2():
    # L1 = 2(1 - s) on the triangle; its integral is 2/3
    assert checks.krylov_first_moments(2)[:2] == [Fraction(1, 2), Fraction(2, 3)]


def test_certificate_bounds_are_enforced():
    cert = {"k": 2, "C": Fraction(138591, 100000), "a": [Fraction(1)], "variant": "plain", "basis": "krylov"}
    mom = checks.krylov_first_moments(2)
    problems = checks.certificate_problems("k2", cert, [[mom[0]]], [[mom[1]]])
    assert any("published" in p for p in problems)
    assert any("moments" in p for p in problems)  # a 1x1 pair cannot hold four moments


def test_chain_thresholds_come_from_the_rule_inputs():
    assert checks.chain_threshold("eps", "BV", 1, 50, Fraction(1, 25)) == 4
    assert checks.chain_threshold("mk", "EH(1/2)", 1, 5, None) == 4
    assert checks.chain_threshold("marginal", "GEH(9/10)", 1, 3, Fraction(1, 4)) == Fraction(20, 9)
    assert checks.chain_threshold("trunc", "MPZ(1/200,1/100)", 2, 35410, None) == Fraction(400, 51)
    with pytest.raises(ValueError):
        checks.chain_threshold("trunc", "MPZ(1/100,1/30)", 2, 35410, None)  # 6 + 6 >= 7
    with pytest.raises(ValueError):
        checks.chain_threshold("marginal", "EH(9/10)", 1, 3, Fraction(1, 4))
    with pytest.raises(ValueError):
        checks.chain_threshold("eps", "EH(49/50)", 1, 5, Fraction(1, 10))  # 1 + eps >= 1/theta


def _write_claims(workdir: Path):
    """A correct three-claim report plus the files the checker reads."""
    primes = checks.primes_upto(600000)
    first = next(i for i, p in enumerate(primes) if p > 35410)
    tuples = {"tuple-3.txt": [0, 2, 6], "tuple-35410.txt": primes[first : first + 35410]}
    for name, offs in tuples.items():
        (workdir / name).write_text(f"k={len(offs)}\n" + "".join(f"{h}\n" for h in offs))
    t50 = checks.read_tuple(inputs.REFERENCE_TUPLE_50)
    I, J = Fraction(1, 3), Fraction(7, 10)
    theta = Fraction(999999999, 1000000000)
    lower = "7.8298492593"
    C = Fraction(lower) - Fraction(1, 10**12)
    varpi = 2 / C - Fraction(1, 4) + Fraction(1, 10**12)
    delta = Fraction(1, 1000)
    rows = [
        (tuples["tuple-3.txt"], 1, "marginal", f"GEH({theta.numerator}/{theta.denominator})", J / I, 2 / theta, " eps=1/4"),
        (t50, 1, "eps", "BV", Fraction(40043, 10000), Fraction(4), " eps=1/25"),
        (tuples["tuple-35410.txt"], 2, "trunc", f"MPZ({varpi.numerator}/{varpi.denominator},1/1000)", C,
         2 / (Fraction(1, 4) + varpi), ""),
    ]

    def q(x):
        return f"{x.numerator}/{x.denominator}"

    lines = ["report claims=3"]
    for i, (offs, m, rule, hyp, bound, threshold, extra) in enumerate(rows):
        lines.append(f"claim index={i} kind=hm m={m} bound={offs[-1] - offs[0]} k={len(offs)} "
                     f"tuple_sha256={checks.tuple_sha256(offs)}")
        lines.append(f"chain index={i} rule={rule} k={len(offs)} m={m} hypothesis={hyp} bound={q(bound)} "
                     f"threshold={q(threshold)} margin={q(bound - threshold)}{extra}")
    (workdir / "report.txt").write_text("\n".join(lines) + "\n")
    assert 600 * varpi + 180 * delta < 7
    return {"I": q(I), "J": q(J), "asymptotic": {"35410": lower}}


def test_report_audit_recomputes_thresholds(tmp_path):
    b = _write_claims(tmp_path)
    assert checks.check_report(tmp_path, b, set(), inputs.REFERENCE_TUPLE_50) == []
    text = (tmp_path / "report.txt").read_text()
    lines = text.splitlines()
    # the tampering the program's own audit lets through
    lines[4] = " ".join(
        {"bound": "bound=5/2", "threshold": "threshold=0", "margin": "margin=5/2"}.get(c.partition("=")[0], c)
        for c in lines[4].split(" ")
    )
    (tmp_path / "report.txt").write_text("\n".join(lines) + "\n")
    problems = checks.check_report(tmp_path, b, set(), inputs.REFERENCE_TUPLE_50)
    assert any("threshold 0" in p for p in problems)
    assert any("4.0043" in p for p in problems)


def test_report_audit_checks_digests_and_diameters(tmp_path):
    b = _write_claims(tmp_path)
    (tmp_path / "tuple-3.txt").write_text("k=3\n0\n4\n6\n")
    problems = checks.check_report(tmp_path, b, set(), inputs.REFERENCE_TUPLE_50)
    assert any("digest" in p for p in problems)


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
