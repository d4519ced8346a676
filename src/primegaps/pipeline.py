"""Chaining certified bounds and tuples into prime-gap claims.

RULES is the one table of the implication rules, consumed as axioms: the
hypothesis tags each takes, the certificate variant it consumes, and whether
it reads eps and nonstrict.

  * mk, plain: a bound C for M_k (a plain certificate or an external value)
    with EH(theta) or BV gives DHL[k, m+1] when C > 2m/theta;
  * trunc, truncated: a bound for M_k truncated to t_i <= delta/(1/4 + varpi)
    with MPZ(varpi, delta), gated by 600 varpi + 180 delta < 7, gives
    DHL[k, m+1] when C > m/(1/4 + varpi).  It consumes no certificate: a
    plain one bounds M_k, which can exceed the truncated quantity;
  * eps, enlarged: a bound for M_{k,eps} (an eps certificate at that eps, or
    an external value) with EH, BV or GEH and the matching side condition;
  * marginal: GEH and an exactly verified piecewise cutoff with vanishing
    marginals, the evidence MarginalEvidence.from_cutoff takes from
    cutoff3d.verify_cutoff.

derive is the one derivation for all four; a report audit rebuilds each chain
through the same checks and re-renders the line byte for byte.  Every
comparison is exact.  DHL[k, m+1] plus an admissible k-tuple bounds the m-th
gap quantity by the tuple diameter.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .admissible import Tuple, is_admissible
from .cutoff3d import PiecewiseCutoff, verify_cutoff
from .varprob import BoundCertificate, read_field, read_rational

__all__ = [
    "THETA_NEAR_ONE",
    "Hypothesis",
    "ExternalBound",
    "MarginalEvidence",
    "DHLClaim",
    "HmClaim",
    "Rule",
    "RULES",
    "rule_threshold",
    "check_variant",
    "derive",
    "dhl_from_mk",
    "dhl_from_trunc",
    "dhl_from_eps",
    "dhl_from_marginal",
    "hm_from_dhl",
    "emit_report",
    "audit_report",
    "tuple_digest",
]

#: stand-in for "theta sufficiently close to 1" under the full EH/GEH
#: hypothesis; documented constant, exact rational
THETA_NEAR_ONE = Fraction(10**9 - 1, 10**9)


@dataclass(frozen=True)
class Rule:
    """What an implication rule takes, as derive, the audit and the CLI read it."""

    title: str  # its name in messages
    tags: tuple  # the hypothesis tags it takes
    variant: str | None  # the certificate variant it consumes, None if none
    eps: bool  # whether it reads eps
    nonstrict: bool  # whether it reads nonstrict


#: the implication rules, by the name a report line gives them
RULES = {
    "mk": Rule("plain", ("EH", "BV"), "plain", eps=False, nonstrict=False),
    "trunc": Rule("truncated", ("MPZ",), None, eps=False, nonstrict=False),
    "eps": Rule("enlarged", ("EH", "BV", "GEH"), "eps", eps=True, nonstrict=True),
    "marginal": Rule("marginal", ("GEH",), None, eps=True, nonstrict=False),
}


@dataclass(frozen=True)
class Hypothesis:
    """Named distribution hypothesis gating an implication rule."""

    tag: str  # EH | GEH | BV | MPZ
    theta: object = None
    varpi: object = None
    delta: object = None

    def __post_init__(self):
        tag = self.tag
        if tag in ("EH", "GEH"):
            th = Fraction(self.theta)
            if not 0 < th < 1:
                raise ValueError("theta must lie in (0, 1)")
            object.__setattr__(self, "theta", th)
        elif tag == "BV":
            # shorthand for EH(theta) for every theta < 1/2
            if self.theta is not None:
                raise ValueError("BV takes no theta")
        elif tag == "MPZ":
            vp, dl = Fraction(self.varpi), Fraction(self.delta)
            if vp < 0 or dl < 0:
                raise ValueError("varpi and delta must be non-negative")
            object.__setattr__(self, "varpi", vp)
            object.__setattr__(self, "delta", dl)
        else:
            raise ValueError(f"unknown hypothesis tag {tag!r}")

    @classmethod
    def eh(cls, theta) -> "Hypothesis":
        return cls("EH", theta=theta)

    @classmethod
    def geh(cls, theta) -> "Hypothesis":
        return cls("GEH", theta=theta)

    @classmethod
    def eh_full(cls) -> "Hypothesis":
        return cls("EH", theta=THETA_NEAR_ONE)

    @classmethod
    def geh_full(cls) -> "Hypothesis":
        return cls("GEH", theta=THETA_NEAR_ONE)

    @classmethod
    def bv(cls) -> "Hypothesis":
        return cls("BV")

    @classmethod
    def mpz(cls, varpi, delta) -> "Hypothesis":
        return cls("MPZ", varpi=varpi, delta=delta)

    @classmethod
    def parse(cls, text: str) -> "Hypothesis":
        """The hypothesis that describe() writes as text."""
        if text == "BV":
            return cls.bv()
        tag, _, rest = text.partition("(")
        args = rest[:-1].split(",") if rest.endswith(")") else []
        if tag in ("EH", "GEH") and len(args) == 1:
            return cls(tag, theta=read_rational(args[0], "theta"))
        if tag == "MPZ" and len(args) == 2:
            return cls.mpz(read_rational(args[0], "varpi"), read_rational(args[1], "delta"))
        raise ValueError(f"unknown hypothesis {text!r}")

    def ratio_threshold(self, m: int):
        """Exact threshold that the variational bound must strictly exceed.

        For BV the requirement "C > 2m/theta for some theta < 1/2" is
        equivalent to the strict inequality C > 4m; MPZ(varpi, delta) needs
        C > m/(1/4 + varpi).
        """
        if self.tag == "BV":
            return Fraction(4 * m)
        if self.tag in ("EH", "GEH"):
            return Fraction(2 * m) / self.theta
        return Fraction(m) / (Fraction(1, 4) + self.varpi)

    def describe(self) -> str:
        if self.tag == "BV":
            return "BV"
        if self.tag in ("EH", "GEH"):
            return f"{self.tag}({self.theta})"
        return f"MPZ({self.varpi},{self.delta})"


@dataclass(frozen=True)
class ExternalBound:
    """A published bound value consumed as an exact input constant."""

    C: object
    source: str

    def __post_init__(self):
        object.__setattr__(self, "C", Fraction(self.C))


@dataclass(frozen=True)
class MarginalEvidence:
    """Exactly verified piecewise-cutoff data for the marginal rule.

    from_cutoff is how evidence is made; the field constructor is kept for
    the rule's negative tests and the benchmark."""

    k: int
    eps: object
    ratio: object
    marginals_vanish: bool
    support_ok: bool

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        object.__setattr__(self, "ratio", Fraction(self.ratio))

    @classmethod
    def from_cutoff(cls, f: PiecewiseCutoff) -> "MarginalEvidence":
        """The evidence of cutoff3d.verify_cutoff(f), failed checks included,
        so the rule refuses what the verifier did not verify.  The ratio is
        J/I, or 0 for the zero cutoff (I = 0)."""
        v = verify_cutoff(f)
        return cls(3, v.eps, v.J / v.I if v.I else 0, v.marginals_vanish, v.support_ok)


#: the fields of every report chain line, in order; provenance keys are the others
_CHAIN_FIELDS = ("index", "rule", "k", "m", "hypothesis", "bound", "threshold", "margin")


@dataclass(frozen=True)
class DHLClaim:
    """DHL[k, m+1] with its full derivation data (all rationals exact)."""

    k: int
    m: int
    rule: str
    hypothesis: Hypothesis
    bound: object
    threshold: object
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.k >= self.m + 1 >= 2:
            raise ValueError("need k >= m+1 >= 2")
        object.__setattr__(self, "bound", Fraction(self.bound))
        object.__setattr__(self, "threshold", Fraction(self.threshold))
        if not self.bound > self.threshold:
            raise ValueError("bound does not exceed the threshold")
        # provenance must read back from a report line (see _parse_kv)
        provenance = {str(key): str(value) for key, value in self.provenance.items()}
        for key, value in provenance.items():
            if not re.fullmatch("[a-z0-9_]+", key) or key in _CHAIN_FIELDS or value.split() != [value]:
                raise ValueError(f"provenance {key}={value!r} would not read back from a report")
        # the keys derive writes must match the rule
        rule, spec = self.rule, _rule(self.rule)
        source = provenance.get("bound_source")
        if ("eps" in provenance) != spec.eps:
            raise ValueError(f"provenance eps= does not match rule {rule}")
        if (source == "cutoff-verification") != (rule == "marginal") or (
            source == "certificate" and spec.variant is None
        ):
            raise ValueError(f"provenance bound_source= does not match rule {rule}")
        if "nonstrict_side_conditions" in provenance and not spec.nonstrict:
            raise ValueError(f"provenance nonstrict_side_conditions= does not match rule {rule}")
        object.__setattr__(self, "provenance", provenance)

    @property
    def margin(self):
        return self.bound - self.threshold


@dataclass(frozen=True)
class HmClaim:
    """Upper bound for the m-th gap quantity, with the witnessing tuple."""

    m: int
    bound: int
    tuple: Tuple
    dhl: DHLClaim
    tuple_sha256: str = ""


def rule_threshold(rule: str, hyp: Hypothesis, k: int, m: int, eps=None,
                   nonstrict: bool = False):
    """Check the gates of an implication rule; return its exact threshold.

    derive and audit_report both call this, so an audit re-derives each
    chain's threshold and gates.  Raises ValueError naming the first gate
    that fails.  nonstrict relaxes the EH and GEH side conditions to <= for
    a rule that reads it.
    """
    if not k >= m + 1 >= 2:
        raise ValueError("need k >= m+1 >= 2")
    spec = _rule(rule)
    if spec.eps and eps is None:
        raise ValueError(f"the {rule} rule needs eps")
    tag = hyp.tag
    if tag not in spec.tags:
        *rest, last = spec.tags
        raise ValueError(f"the {spec.title} rule needs {', '.join(rest) + ' or ' if rest else ''}{last}")
    if tag == "MPZ":
        if not 0 < hyp.varpi < Fraction(1, 4):
            raise ValueError("gate violated: 0 < varpi < 1/4")
        if not 0 < hyp.delta < Fraction(1, 2):
            raise ValueError("gate violated: 0 < delta < 1/2")
        if not 600 * hyp.varpi + 180 * hyp.delta < 7:
            raise ValueError("gate violated: 600*varpi + 180*delta < 7")
    elif spec.eps:
        if tag == "BV":  # 1 + eps < 2 <= 1/theta for every theta < 1/2
            lhs, rhs, side = 1 + eps, Fraction(2), "1 + eps < 1/theta"
        elif tag == "EH":
            lhs, rhs, side = 1 + eps, 1 / hyp.theta, "1 + eps < 1/theta"
        else:
            lhs, rhs, side = eps, Fraction(1, k - 1), "eps < 1/(k-1)"
        if not (lhs < rhs or (nonstrict and spec.nonstrict and tag != "BV" and lhs == rhs)):
            raise ValueError(f"side condition failed: {side}")
    return hyp.ratio_threshold(m)


def _rule(name: str) -> Rule:
    if name not in RULES:
        raise ValueError(f"unknown rule {name!r}")
    return RULES[name]


def check_variant(rule: str, k: int, eps, variant) -> None:
    """Raise ValueError unless a certificate for `variant` is what the rule
    consumes at this k (and eps, for a rule that reads eps).  It needs only
    the variant a certificate file names, so a mismatch is refused before
    the file is re-checked."""
    spec = RULES[rule]
    if variant.kind != spec.variant or variant.k != k:
        raise ValueError(f"certificate variant {variant} does not match the rule for k={k}")
    if spec.eps and variant.eps != eps:
        raise ValueError(f"certificate variant {variant} does not match the rule at eps = {eps}")


def _bound_value(evidence, rule: str, k: int, eps):
    """Exact bound value the evidence supports for the rule, and its source."""
    if rule == "marginal":
        if not (isinstance(evidence, MarginalEvidence)
                and evidence.marginals_vanish and evidence.support_ok):
            raise ValueError("marginal verification missing")
        if evidence.k != k or evidence.eps != eps:
            raise ValueError("marginal evidence does not match (k, eps)")
        return evidence.ratio, "cutoff-verification"
    if isinstance(evidence, BoundCertificate):
        spec = RULES[rule]
        if spec.variant is None:
            raise ValueError(f"the {spec.title} rule takes no certificate")
        if not evidence.verified:
            raise ValueError("certificate is not verified")
        check_variant(rule, k, eps, evidence.variant)
        return Fraction(evidence.C), "certificate"
    if isinstance(evidence, ExternalBound):
        return evidence.C, f"external:{evidence.source}"
    raise TypeError("C must be a BoundCertificate or ExternalBound")


def derive(rule: str, k: int, m: int, hyp: Hypothesis, evidence, eps=None,
           nonstrict: bool = False, provenance=None) -> DHLClaim:
    """The one derivation of a DHLClaim for every rule in RULES: its gates and
    threshold, the bound its evidence supports, and the strict comparison."""
    eps = None if eps is None else Fraction(eps)
    threshold = rule_threshold(rule, hyp, k, m, eps, nonstrict)
    value, source = _bound_value(evidence, rule, k, eps)
    if not value > threshold:
        raise ValueError(f"inequality not satisfied: C = {value} <= threshold {threshold}")
    prov = dict(provenance or {}, bound_source=source)
    if eps is not None:
        prov["eps"] = str(eps)
    if nonstrict:
        prov["nonstrict_side_conditions"] = "true"
    return DHLClaim(k, m, rule, hyp, value, threshold, prov)


def dhl_from_mk(k: int, C, hyp: Hypothesis, m: int, provenance=None) -> DHLClaim:
    """Plain rule: needs EH (or BV) and C > 2m/theta, exactly."""
    return derive("mk", k, m, hyp, C, provenance=provenance)


def dhl_from_trunc(k: int, C, varpi, delta, m: int, provenance=None) -> DHLClaim:
    """Truncated rule under MPZ(varpi, delta): the gates 0 < varpi < 1/4,
    0 < delta < 1/2 and 600 varpi + 180 delta < 7, then C > m/(1/4 + varpi)."""
    return derive("trunc", k, m, Hypothesis.mpz(varpi, delta), C, provenance=provenance)


def dhl_from_eps(k: int, eps, C, hyp: Hypothesis, m: int, nonstrict: bool = False,
                 provenance=None) -> DHLClaim:
    """Enlarged rule: EH needs 1+eps < 1/theta, GEH needs eps < 1/(k-1), and a
    certificate must be for the eps variant at this k and eps.  nonstrict
    relaxes the side conditions (only) to <=, by continuity in eps."""
    return derive("eps", k, m, hyp, C, eps, nonstrict, provenance)


def dhl_from_marginal(k: int, eps, evidence: MarginalEvidence, hyp: Hypothesis, m: int,
                      provenance=None) -> DHLClaim:
    """Marginal rule: GEH plus an exactly verified vanishing-marginal cutoff."""
    return derive("marginal", k, m, hyp, evidence, eps, provenance=provenance)


def trunc_params_from_bound(m: int, lower_bound, T):
    """Conservative exact (C, varpi, delta) for the truncated rule.

    Given a high-precision lower bound for the truncated quantity at
    truncation T, rounds the bound down to the 1e-12 grid, picks varpi just
    above m/C - 1/4 (so C > m/(1/4+varpi) strictly) and delta just above
    T*(1/4+varpi) (so the certified truncation is contained in the rule's).
    """
    import mpmath as mp

    grid = 10**12
    with mp.workdps(40):
        lb = lower_bound if isinstance(lower_bound, mp.mpf) else mp.mpf(str(lower_bound))
        C = Fraction(int(mp.floor(lb * grid)), grid)
        varpi = Fraction(m) / C - Fraction(1, 4) + Fraction(1, grid)
        vp = mp.mpf(int(varpi.numerator)) / mp.mpf(int(varpi.denominator))
        Tm = T if isinstance(T, mp.mpf) else mp.mpf(str(T))
        delta = Fraction(int(mp.floor(Tm * (mp.mpf(1) / 4 + vp) * grid)) + 1, grid)
    return C, varpi, delta


def tuple_digest(t: Tuple) -> str:
    payload = (f"k={t.k}\n" + "\n".join(str(h) for h in t.offsets) + "\n").encode()
    return hashlib.sha256(payload).hexdigest()


def hm_from_dhl(dhl: DHLClaim, t: Tuple) -> HmClaim:
    """DHL[k, m+1] plus an admissible k-tuple bounds the m-th gap quantity
    by the tuple diameter.  Admissibility is re-verified here."""
    if t.k != dhl.k:
        raise ValueError(f"size mismatch: tuple has {t.k} elements, claim needs {dhl.k}")
    if not is_admissible(t):
        raise ValueError("tuple not admissible")
    return HmClaim(dhl.m, t.diameter, t, dhl, tuple_digest(t))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def emit_report(claims) -> str:
    """Deterministic line-oriented report; every line is key=value pairs.

    The report is self-contained: re-parsing it re-derives every claim's
    chain in exact arithmetic (see audit_report).
    """
    lines = [f"report claims={len(claims)}"]
    for i, claim in enumerate(claims):
        if isinstance(claim, HmClaim):
            hm = (claim.bound, claim.tuple_sha256)
            lines += [_claim_line(i, claim.m, claim.dhl.k, hm), _dhl_line(i, claim.dhl)]
        elif isinstance(claim, DHLClaim):
            lines += [_claim_line(i, claim.m, claim.k), _dhl_line(i, claim)]
        else:
            raise TypeError("claims must be HmClaim or DHLClaim")
    return "\n".join(lines) + "\n"


def _claim_line(i: int, m: int, k: int, hm=None) -> str:
    """The claim line; hm is (bound, tuple_sha256) of a gap claim, None for DHL."""
    if hm is None:
        return f"claim index={i} kind=dhl m={m} k={k}"
    return f"claim index={i} kind=hm m={m} bound={hm[0]} k={k} tuple_sha256={hm[1]}"


def _dhl_line(i: int, d: DHLClaim) -> str:
    extra = "".join(
        f" {key}={value}" for key, value in sorted(d.provenance.items())
    )
    return (
        f"chain index={i} rule={d.rule} k={d.k} m={d.m} "
        f"hypothesis={d.hypothesis.describe()} bound={d.bound} "
        f"threshold={d.threshold} margin={d.margin}"
        f"{extra}"
    )


def _parse_kv(line: str) -> dict:
    out = {}
    for chunk in line.split()[1:]:
        key, _, value = chunk.partition("=")
        out[key] = value
    return out


def audit_report(text: str) -> bool:
    """Re-derive every chain line of a report in exact arithmetic.

    The layout must be that of emit_report (a `report claims=N` line, then
    `claim index=i` lines as emit_report writes them and `chain index=i`
    lines); any other, or a missing or unparsable chain field, raises
    ValueError.  Each chain is rebuilt as a DHLClaim through rule_threshold,
    with every key outside the chain fields as provenance.  It is invalid if
    the rebuild fails or does not render to the line byte for byte, or if its
    claim's m or k differs.
    """
    lines = text.splitlines()
    if not lines or lines[0].split()[:1] != ["report"]:
        raise ValueError("report does not start with a 'report claims=N' line")
    n = _field(_parse_kv(lines[0]), "claims", int, "report header")
    if n < 0 or len(lines) != 1 + 2 * n:
        raise ValueError(
            f"report claims={n} needs {2 * n} claim and chain lines, found {len(lines) - 1}"
        )
    ok = True
    for i in range(n):
        for row, kind in ((2 + 2 * i, "claim"), (3 + 2 * i, "chain")):
            line = lines[row - 1]
            index = _field(_parse_kv(line), "index", int, f"line {row}")
            if line.split()[:1] != [kind] or index != i:
                raise ValueError(f"line {row}: expected a '{kind} index={i}' line")
        line = lines[2 + 2 * i]
        kv, where = _parse_kv(line), f"line {3 + 2 * i}"
        bound, *_ = (_field(kv, key, Fraction, where) for key in ("bound", "threshold", "margin"))
        k, m = (_field(kv, key, int, where) for key in ("k", "m"))
        rule = _field(kv, "rule", str, where)
        hyp = _field(kv, "hypothesis", Hypothesis.parse, where)
        eps = _field(kv, "eps", Fraction, where) if rule in RULES and RULES[rule].eps else None
        nonstrict = kv.get("nonstrict_side_conditions") == "true"
        provenance = {key: value for key, value in kv.items() if key not in _CHAIN_FIELDS}
        try:
            claim = DHLClaim(k, m, rule, hyp, bound, rule_threshold(rule, hyp, k, m, eps, nonstrict),
                             provenance)
            ok &= _dhl_line(i, claim) == line
        except ValueError:
            ok = False
        line = lines[1 + 2 * i]
        kv, where = _parse_kv(line), f"line {2 + 2 * i}"
        hm = None
        if kv.get("kind") == "hm":
            hm = (_field(kv, "bound", int, where), kv.get("tuple_sha256", ""))
        claim_k, claim_m = _field(kv, "k", int, where), _field(kv, "m", int, where)
        if _claim_line(i, claim_m, claim_k, hm) != line or hm and not (
            hm[0] >= 0 and re.fullmatch("[0-9a-f]{64}", hm[1])
        ):
            raise ValueError(f"{where}: not a claim line as emit_report writes it")
        ok &= (claim_k, claim_m) == (k, m)
    return ok


def _field(kv: dict, key: str, parse, where: str):
    if key not in kv:
        raise ValueError(f"{where}: missing field {key}=")
    return read_field(kv[key], f"{where}: field {key}", parse)
