"""Independent checks of the program's outputs.

Nothing here imports ``primegaps``.  Tuples are re-checked by counting
distinct residues modulo every prime up to k; certificates are re-parsed and
the inequality a^T M2 a > C a^T M1 a is recomputed with stdlib ``Fraction``;
reports are re-audited by deriving every threshold and gate from the rule's
inputs.  The reference values are the published constants of the source
paper (arXiv:1407.4897); see the README for where each one appears.

Every ``check_*`` function returns a list of problems (empty when the
outputs are correct).  Outputs of an operation that failed are not checked:
the failure is already counted.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

# k primes past k: the diameters are exact
KPPK_DIAMETERS = {5511: 56538, 35410: 433992}
# the k = 5511 ladder, with the acceptance suite's slack (0.5%; 1% for greedy)
LADDER_5511 = {
    "eratosthenes-5511": int(55160 * 1.005),
    "hensley-richards-5511": int(54480 * 1.005),
    "shifted-schinzel-5511": int(53774 * 1.005),
    "shifted-greedy-5511": int(52296 * 1.01),
}
# lower bounds for M_k from the Krylov method, k = 2..5
KRYLOV_BOUNDS = {2: "1.38592", 3: "1.64643", 4: "1.84539", 5: "2.00713"}
# the explicit truncated-variant lower bounds: k -> published value
ASYMPTOTIC_BOUNDS = {
    5511: 6.000048609,
    35410: 7.829849259,
    41588: 8.000001401,
    309661: 10.00000032,
    1649821: 11.65752556,
    75845707: 15.48125090,
    3473955908: 19.30374872,
}
M2_VALUE = 1.38593  # M_2 = 1/(1 - W(1/e)) to five decimals
M4EPS_I, M4EPS_J = 0.00728001347, 0.003650160667  # eps = 21/125, alpha = 98/125
BESSEL_J0_FIRST_ZERO = 2.404825557695773  # first positive zero of J_0
H1_EPS_BOUND = Fraction(40043, 10000)  # M_{50, 1/25} > 4.0043


def primes_upto(n: int) -> list:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if sieve[i]]


def read_tuple(path) -> list:
    """Offsets of a tuple file (one per line, '#' comments, optional k=)."""
    offsets, declared = [], None
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("k="):
            declared = int(line[2:])
        else:
            offsets.append(int(line))
    if declared is not None and declared != len(offsets):
        raise ValueError(f"{path}: declares k={declared} but holds {len(offsets)} offsets")
    return offsets


def covered_prime(offsets) -> int | None:
    """The first prime p <= k whose residue classes the offsets all occupy."""
    arr = np.asarray(offsets, dtype=np.int64)
    for p in primes_upto(len(offsets)):
        if np.count_nonzero(np.bincount(arr % p, minlength=p)) == p:
            return p
    return None


def tuple_problems(name: str, offsets, k: int) -> list:
    out = []
    if len(offsets) != k:
        out.append(f"{name}: {len(offsets)} offsets, expected k={k}")
    if any(a >= b for a, b in zip(offsets, offsets[1:])):
        out.append(f"{name}: offsets not strictly increasing")
    p = covered_prime(offsets)
    if p is not None:
        out.append(f"{name}: not admissible, every class mod {p} is occupied")
    return out


def tuple_sha256(offsets) -> str:
    payload = f"k={len(offsets)}\n" + "\n".join(str(h) for h in offsets) + "\n"
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def read_certificate(path) -> dict:
    """Fields of a certificate file; a[i] must be numbered 0..n-1."""
    fields, coeffs = {}, {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("a["):
            idx, _, value = line[2:].partition("] =")
            coeffs[int(idx)] = Fraction(value.strip())
        elif line.startswith("C ="):
            fields["C"] = Fraction(line[3:].strip())
        else:
            key, _, value = line.partition(" ")
            fields[key] = value.strip()
    if sorted(coeffs) != list(range(len(coeffs))):
        raise ValueError(f"{path}: coefficient indices are not 0..{len(coeffs) - 1}")
    fields["k"] = int(fields["k"])
    fields["d"] = int(fields["d"])
    if "eps" in fields:
        fields["eps"] = Fraction(fields["eps"])
    fields["a"] = [coeffs[i] for i in range(len(coeffs))]
    return fields


def quadratic_form(M, a) -> Fraction:
    return sum((a[i] * M[i][j] * a[j] for i in range(len(a)) for j in range(len(a))), Fraction(0))


def margin_problems(name: str, M1, M2, a, C) -> list:
    """Exact a^T M2 a > C a^T M1 a with a^T M1 a > 0."""
    n = len(a)
    if any(len(M) != n or any(len(row) != n for row in M) for M in (M1, M2)):
        return [f"{name}: matrix size does not match {n} coefficients"]
    for label, M in (("M1", M1), ("M2", M2)):
        if any(M[i][j] != M[j][i] for i in range(n) for j in range(i)):
            return [f"{name}: {label} is not symmetric"]
    t1, t2 = quadratic_form(M1, a), quadratic_form(M2, a)
    if not t1 > 0:
        return [f"{name}: a^T M1 a = {float(t1)} is not positive"]
    if not t2 > C * t1:
        return [f"{name}: a^T M2 a <= C a^T M1 a, C = {float(C)} is not certified"]
    return []


def simplex_volume(k: int, scale: Fraction) -> Fraction:
    """Volume of scale * {t_i >= 0, t_1 + ... + t_k <= 1}."""
    return scale**k / math.factorial(k)


def slot_square_integral(k: int, offset: Fraction, scale: Fraction) -> Fraction:
    """k * int over scale*R_{k-1} of (offset - s)^2, s the coordinate sum.

    The sum s of k-1 coordinates has density s^(k-2)/(k-2)! on [0, scale].
    """
    n = k - 1
    total = Fraction(0)
    for j, c in enumerate((1, -2, 1)):
        total += c * offset ** (2 - j) * scale ** (n + j) / (n + j)
    return k * total / math.factorial(n - 1)


def gram_first_entries(kind: str, k: int, eps) -> tuple:
    """(M1[0][0], M2[0][0]) for basis element 0, the constant 1."""
    if kind == "plain":
        return simplex_volume(k, Fraction(1)), slot_square_integral(k, Fraction(1), Fraction(1))
    return simplex_volume(k, 1 + eps), slot_square_integral(k, 1 + eps, 1 - eps)


def krylov_first_moments(k: int) -> list:
    """int over R_k of L^j 1, j = 0..3, in closed form."""
    f = math.factorial
    return [
        Fraction(1, f(k)),
        Fraction(2 * k, f(k + 1)),
        Fraction(k * (5 * k + 1), f(k + 2)),
        Fraction(2 * k * k * (7 * k + 5), f(k + 3)),
    ]


def certificate_problems(name: str, cert: dict, M1, M2) -> list:
    k, C = cert["k"], cert["C"]
    out = margin_problems(name, M1, M2, cert["a"], C)
    upper = k / (k - 1) * math.log(k)
    if cert["basis"] == "krylov":
        if cert["variant"] != "plain":
            out.append(f"{name}: Krylov certificate for a {cert['variant']} variant")
        if not C > Fraction(KRYLOV_BOUNDS[k]):
            out.append(f"{name}: C = {float(C)} is not above the published {KRYLOV_BOUNDS[k]}")
        if M1[0][:4] != krylov_first_moments(k):
            out.append(f"{name}: moments 0..3 differ from their closed forms")
    else:
        m1, m2 = gram_first_entries(cert["variant"], k, cert.get("eps"))
        if (M1[0][0], M2[0][0]) != (m1, m2):
            out.append(f"{name}: Gram entries of the constant differ from the simplex integrals")
        if cert["variant"] == "eps":
            upper = k / (k - 1) * math.log(2 * k - 1)
        elif not C > 2:
            out.append(f"{name}: C = {float(C)} does not exceed 2")
    if not 0 < C < upper:
        out.append(f"{name}: C = {float(C)} is outside (0, {upper:.6f})")
    return out


def _fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _failed(*phases) -> set:
    return {op["name"] for ph in phases for op in ph["ops"] if not op["ok"]}


def check_tuples(workdir: Path, build: dict, verify: dict, jobs) -> list:
    failed = _failed(build, verify)
    out = []
    primes = primes_upto(600000)
    for stem, _, k, _ in jobs:
        if f"build {stem}" in failed or f"tuple verify {stem}" in failed:
            continue
        offs = read_tuple(workdir / f"{stem}.txt")
        out += tuple_problems(stem, offs, k)
        diameter = offs[-1] - offs[0]
        if stem.startswith("k-primes-past-k"):
            if diameter != KPPK_DIAMETERS[k]:
                out.append(f"{stem}: diameter {diameter}, published {KPPK_DIAMETERS[k]}")
            first = next(i for i, p in enumerate(primes) if p > k)
            if offs != primes[first : first + k]:
                out.append(f"{stem}: not the {k} consecutive primes following {k}")
        if stem in LADDER_5511 and diameter > LADDER_5511[stem]:
            out.append(f"{stem}: diameter {diameter} above the published row with slack ({LADDER_5511[stem]})")
        if not stem.startswith("k-primes-past-k") and diameter >= KPPK_DIAMETERS[k]:
            out.append(f"{stem}: diameter {diameter} does not improve on k primes past k")
        if "admissible=yes" not in verify["out"][f"tuple verify {stem}"]:
            out.append(f"{stem}: tuple verify did not report admissible=yes")
    return out


def check_certify(workdir: Path, build: dict, verify: dict, stems) -> list:
    failed = _failed(build, verify)
    out = []
    for stem in stems:
        if f"verify-cert {stem}" in failed or not (workdir / f"{stem}.cert").exists():
            continue
        cert = read_certificate(workdir / f"{stem}.cert")
        if cert["basis"] == "krylov":
            mom = [Fraction(m) for m in json.loads((workdir / f"{stem}.moments.json").read_text())]
            n = len(cert["a"])
            if len(mom) < 2 * n:
                out.append(f"{stem}: {len(mom)} moments for order {n}")
                continue
            M1 = [[mom[i + j] for j in range(n)] for i in range(n)]
            M2 = [[mom[i + j + 1] for j in range(n)] for i in range(n)]
        else:
            pair = json.loads((workdir / f"{stem}.pair.json").read_text())
            M1, M2 = _fractions(pair["M1"]), _fractions(pair["M2"])
        out += certificate_problems(stem, cert, M1, M2)
        if " verified" not in verify["out"][f"verify-cert {stem}"]:
            out.append(f"{stem}: verify-cert did not report verified")
    return out


def _hypothesis(text: str):
    tag, _, rest = text.partition("(")
    args = [Fraction(x) for x in rest.rstrip(")").split(",")] if rest else []
    return tag, args


def chain_threshold(rule: str, hypothesis: str, m: int, k: int, eps) -> Fraction:
    """The threshold a chain's bound must exceed, derived from its inputs.

    Raises ValueError when a gate of the rule does not hold.
    """
    tag, args = _hypothesis(hypothesis)
    if rule == "trunc":
        varpi, delta = args
        if not (0 < varpi < Fraction(1, 4) and 0 < delta < Fraction(1, 2)):
            raise ValueError("MPZ parameters out of range")
        if not 600 * varpi + 180 * delta < 7:
            raise ValueError("gate 600 varpi + 180 delta < 7 fails")
        return Fraction(m) / (Fraction(1, 4) + varpi)
    if tag == "BV":
        threshold = Fraction(4 * m)
    elif tag in ("EH", "GEH"):
        threshold = 2 * m / args[0]
    else:
        raise ValueError(f"hypothesis {hypothesis} does not fit rule {rule}")
    if rule in ("marginal", "eps") and eps is None:
        raise ValueError(f"the {rule} rule's eps is missing")
    if rule == "marginal" and not (tag == "GEH" and eps < Fraction(1, k - 1)):
        raise ValueError("marginal rule needs GEH and eps < 1/(k-1)")
    if rule == "eps":
        if tag == "EH" and not 1 + eps < 1 / args[0]:
            raise ValueError("side condition 1 + eps < 1/theta fails")
        if tag == "GEH" and not eps < Fraction(1, k - 1):
            raise ValueError("side condition eps < 1/(k-1) fails")
    return threshold


def parse_report(text: str) -> list:
    """[(claim fields, chain fields)] from a report."""
    claims, chains = {}, {}
    for line in text.splitlines():
        if not line.strip():
            continue
        kind, *chunks = line.split()
        kv = dict(chunk.partition("=")[::2] for chunk in chunks)
        if kind == "claim":
            claims[int(kv["index"])] = kv
        elif kind == "chain":
            chains[int(kv["index"])] = kv
    return [(claims[i], chains.get(i, {})) for i in sorted(claims)]


def check_claims(workdir: Path, build: dict, verify: dict, reference_tuple_50: Path) -> list:
    failed = _failed(build, verify)
    b, v = build["out"], verify["out"]
    out = []
    if "cutoff3d I, J and marginals" not in failed:
        I, J = Fraction(b["I"]), Fraction(b["J"])
        if not (I > 0 and J > 2 * I):
            out.append("cutoff3d: J > 2I > 0 does not hold")
        for label, terms in b["marginals"].items():
            if any(Fraction(c) != 0 for c in terms.values()):
                out.append(f"cutoff3d: marginal {label} does not vanish")
        if not b["marginals"]:
            out.append("cutoff3d: no marginal identities were checked")
        if "recompute I through the polytope route" not in failed and Fraction(v["I_polytope"]) != I:
            out.append("cutoff3d: block route and polytope route of I disagree")
    for k, published in ASYMPTOTIC_BOUNDS.items():
        if f"asymptotic row k={k}" in failed:
            continue
        got = float(b["asymptotic"][str(k)])
        if abs(got - published) >= 1e-6:
            out.append(f"asymptotic row k={k}: {got} is not within 1e-6 of {published}")
    if "bessel_lower k=2..200" not in failed:
        bes = {int(k): float(x) for k, x in b["bessel"].items()}
        if not all(x < 4 for x in bes.values()):
            out.append("bessel_lower: a value is not below 4")
        if abs(bes[2] - 8 / BESSEL_J0_FIRST_ZERO**2) > 1e-12 or not bes[6] > 2:
            out.append("bessel_lower: k=2 differs from 8/j_0^2 or k=6 does not exceed 2")
    if "m2_exact, m2_eps, m4eps_check" not in failed:
        w = 0.28  # Lambert W(1/e) by Newton's method
        for _ in range(50):
            w -= (w * math.exp(w) - math.exp(-1)) / (math.exp(w) * (1 + w))
        m2 = float(b["m2_exact"])
        if abs(m2 - 1 / (1 - w)) > 1e-12 or abs(m2 - M2_VALUE) >= 5e-6:
            out.append(f"m2_exact: {m2} is not 1/(1 - W(1/e)) = {M2_VALUE}...")
        third = (math.e * 4 / 3 - 2 / 3) / (math.e - 1)
        if abs(float(b["m2_eps_third"]) - third) > 1e-12:
            out.append("m2_eps(1/3): differs from (e(1+eps) - 2 eps)/(e - 1)")
        if abs(float(b["m2_eps_left"]) - float(b["m2_eps_third"])) >= 1e-9:
            out.append("m2_eps: the two branches disagree at eps = 1/3")
        I4, J4 = (Fraction(x) for x in b["m4eps"])
        if abs(float(I4) - M4EPS_I) >= 1e-9 or abs(float(J4) - M4EPS_J) >= 1e-9 or not 4 * J4 > 2 * I4:
            out.append(f"m4eps_check: I = {float(I4)}, J = {float(J4)} differ from the published values")
    out += check_report(workdir, b, failed, reference_tuple_50)
    return out


def check_report(workdir: Path, b: dict, failed: set, reference_tuple_50: Path) -> list:
    if "emit report" in failed or "report" in failed:
        return []
    out = []
    tuple_files = (workdir / "tuple-3.txt", reference_tuple_50, workdir / "tuple-35410.txt")
    expected = ((1, 6, "marginal"), (1, 246, "eps"), (2, KPPK_DIAMETERS[35410], "trunc"))
    claims = parse_report((workdir / "report.txt").read_text())
    if len(claims) != len(expected):
        return [f"report: {len(claims)} claims, expected {len(expected)}"]
    for (claim, chain), path, (m, h, rule) in zip(claims, tuple_files, expected):
        name = f"report claim {claim['index']}"
        if not chain:
            out.append(f"{name}: no chain line")
            continue
        offs = read_tuple(path)
        out += tuple_problems(path.name, offs, len(offs))
        if (int(claim["m"]), int(claim["bound"]), chain.get("rule")) != (m, h, rule):
            out.append(f"{name}: expected H_{m} <= {h} by the {rule} rule")
        if int(claim["bound"]) != offs[-1] - offs[0] or claim["tuple_sha256"] != tuple_sha256(offs):
            out.append(f"{name}: bound or digest does not match {path.name}")
        k = int(chain["k"])
        eps = Fraction(chain["eps"]) if "eps" in chain else None
        try:
            threshold = chain_threshold(rule, chain["hypothesis"], int(chain["m"]), k, eps)
        except ValueError as exc:
            out.append(f"{name}: {exc}")
            continue
        bound = Fraction(chain["bound"])
        if Fraction(chain["threshold"]) != threshold or not bound > threshold:
            out.append(f"{name}: threshold {chain['threshold']} is not the rule's {threshold}")
        if Fraction(chain["margin"]) != bound - threshold:
            out.append(f"{name}: margin is not bound - threshold")
        if k != len(offs) or int(chain["m"]) != m:
            out.append(f"{name}: chain k or m does not match the claim")
        if rule == "marginal" and "I" in b and bound != Fraction(b["J"]) / Fraction(b["I"]):
            out.append(f"{name}: bound is not J/I")
        if rule == "eps" and (bound != H1_EPS_BOUND or eps != Fraction(1, 25)):
            out.append(f"{name}: not the published M_(50,1/25) > 4.0043 at eps = 1/25")
        if rule == "trunc" and "35410" in b.get("asymptotic", {}):
            lower = Fraction(b["asymptotic"]["35410"])
            if not 0 <= lower - bound < Fraction(1, 10**11):
                out.append(f"{name}: C = {float(bound)} is not the evaluator's bound rounded down")
    return out
