"""Chaining certified bounds and tuples into prime-gap claims.

Implication rules (consumed as axioms, tagged by the distribution
hypothesis they require):

  * plain rule: a verified lower bound C for the plain variational
    quantity with EH(theta) gives DHL[k, m+1] when C > 2m/theta;
  * truncated rule: a bound for the truncated quantity with the
    MPZ(varpi, delta) estimate, gated by 600 varpi + 180 delta < 7,
    gives DHL[k, m+1] when C > m/(1/4 + varpi);
  * enlarged rule: a bound for the enlarged variant with EH or GEH and
    the matching side condition;
  * marginal rule: an exactly verified piecewise cutoff with vanishing
    marginals under GEH.

Every comparison is exact rational arithmetic; claims built from
unverified certificates are rejected outright.  DHL[k, m+1] plus an
admissible k-tuple yields an upper bound for the m-th gap quantity equal
to the tuple diameter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .admissible import Tuple, is_admissible
from .rational import Q, parse_rational, rational_str
from .varprob import BoundCertificate

__all__ = [
    "THETA_NEAR_ONE",
    "Hypothesis",
    "ExternalBound",
    "MarginalEvidence",
    "DHLClaim",
    "HmClaim",
    "rule_threshold",
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
THETA_NEAR_ONE = Q(10**9 - 1, 10**9)


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
            th = Q(self.theta)
            if not 0 < th < 1:
                raise ValueError("theta must lie in (0, 1)")
            object.__setattr__(self, "theta", th)
        elif tag == "BV":
            # shorthand for EH(theta) for every theta < 1/2
            if self.theta is not None:
                raise ValueError("BV takes no theta")
        elif tag == "MPZ":
            vp, dl = Q(self.varpi), Q(self.delta)
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
            return cls(tag, theta=parse_rational(args[0]))
        if tag == "MPZ" and len(args) == 2:
            return cls.mpz(*map(parse_rational, args))
        raise ValueError(f"unknown hypothesis {text!r}")

    def ratio_threshold(self, m: int):
        """Exact threshold that the variational bound must strictly exceed.

        For BV the requirement "C > 2m/theta for some theta < 1/2" is
        equivalent to the strict inequality C > 4m; MPZ(varpi, delta) needs
        C > m/(1/4 + varpi).
        """
        if self.tag == "BV":
            return Q(4 * m)
        if self.tag in ("EH", "GEH"):
            return Q(2 * m) / self.theta
        return Q(m) / (Q(1, 4) + self.varpi)

    def describe(self) -> str:
        if self.tag == "BV":
            return "BV"
        if self.tag in ("EH", "GEH"):
            return f"{self.tag}({rational_str(self.theta)})"
        return f"MPZ({rational_str(self.varpi)},{rational_str(self.delta)})"


@dataclass(frozen=True)
class ExternalBound:
    """A published bound value consumed as an exact input constant."""

    C: object
    source: str

    def __post_init__(self):
        object.__setattr__(self, "C", Q(self.C))


@dataclass(frozen=True)
class MarginalEvidence:
    """Exactly verified piecewise-cutoff data for the marginal rule."""

    k: int
    eps: object
    ratio: object
    marginals_vanish: bool
    support_ok: bool

    def __post_init__(self):
        object.__setattr__(self, "eps", Q(self.eps))
        object.__setattr__(self, "ratio", Q(self.ratio))


def _bound_value(C, k: int, kinds=("plain",)):
    """Exact bound value from a certificate or external constant."""
    if isinstance(C, BoundCertificate):
        if not C.verified:
            raise ValueError("certificate is not verified")
        if C.variant.kind not in kinds or C.variant.k != k:
            raise ValueError(
                f"certificate variant {C.variant} does not match the rule for k={k}"
            )
        return Q(C.C), "certificate"
    if isinstance(C, ExternalBound):
        return Q(C.C), f"external:{C.source}"
    raise TypeError("C must be a BoundCertificate or ExternalBound")


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
        object.__setattr__(self, "bound", Q(self.bound))
        object.__setattr__(self, "threshold", Q(self.threshold))
        if not self.bound > self.threshold:
            raise ValueError("bound does not exceed the threshold")

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


def _merged(base: dict, extra) -> dict:
    if extra:
        base.update({str(key): str(value) for key, value in extra.items()})
    return base


def rule_threshold(rule: str, hyp: Hypothesis, k: int, m: int, eps=None,
                   nonstrict: bool = False):
    """Check the gates of an implication rule; return its exact threshold.

    The dhl_from_* constructors and audit_report both call this, so an audit
    re-derives each chain's threshold and gates from the rule's inputs.
    Raises ValueError naming the first gate that fails.  nonstrict relaxes
    the EH and GEH side conditions of the enlarged rule to <=.
    """
    if not k >= m + 1 >= 2:
        raise ValueError("need k >= m+1 >= 2")
    tag = hyp.tag
    if rule == "mk":
        if tag not in ("EH", "BV"):
            raise ValueError("the plain rule needs EH or BV")
    elif rule == "trunc":
        if tag != "MPZ":
            raise ValueError("the truncated rule needs MPZ")
        if not 0 < hyp.varpi < Q(1, 4):
            raise ValueError("gate violated: 0 < varpi < 1/4")
        if not 0 < hyp.delta < Q(1, 2):
            raise ValueError("gate violated: 0 < delta < 1/2")
        if not 600 * hyp.varpi + 180 * hyp.delta < 7:
            raise ValueError("gate violated: 600*varpi + 180*delta < 7")
    elif rule in ("eps", "marginal"):
        if eps is None:
            raise ValueError(f"the {rule} rule needs eps")
        if rule == "marginal" and tag != "GEH":
            raise ValueError("the marginal rule needs GEH")
        if tag == "BV":  # 1 + eps < 2 <= 1/theta for every theta < 1/2
            lhs, rhs, side = 1 + eps, Q(2), "1 + eps < 1/theta"
        elif tag == "EH":
            lhs, rhs, side = 1 + eps, 1 / hyp.theta, "1 + eps < 1/theta"
        elif tag == "GEH":
            lhs, rhs, side = eps, Q(1, k - 1), "eps < 1/(k-1)"
        else:
            raise ValueError("the enlarged rule needs EH, BV or GEH")
        if not (lhs < rhs or (nonstrict and rule == "eps" and tag != "BV" and lhs == rhs)):
            raise ValueError(f"side condition failed: {side}")
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return hyp.ratio_threshold(m)


def dhl_from_mk(k: int, C, hyp: Hypothesis, m: int, provenance=None) -> DHLClaim:
    """Plain rule: needs EH (or BV) and C > 2m/theta, exactly."""
    threshold = rule_threshold("mk", hyp, k, m)
    value, source = _bound_value(C, k)
    if not value > threshold:
        raise ValueError(
            f"inequality not satisfied: C = {rational_str(value)} "
            f"<= threshold {rational_str(threshold)} "
            f"(margin {rational_str(value - threshold)})"
        )
    prov = _merged({"bound_source": source}, provenance)
    return DHLClaim(k, m, "mk", hyp, value, threshold, prov)


def dhl_from_trunc(k: int, C, varpi, delta, m: int, provenance=None) -> DHLClaim:
    """Truncated rule under the MPZ estimate.

    Gates (exact): 0 < varpi < 1/4, 0 < delta < 1/2, 600 varpi + 180 delta < 7;
    then C > m/(1/4 + varpi).
    """
    hyp = Hypothesis.mpz(varpi, delta)
    threshold = rule_threshold("trunc", hyp, k, m)
    value, source = _bound_value(C, k)
    if not value > threshold:
        raise ValueError(
            f"inequality not satisfied: C = {rational_str(value)} "
            f"<= threshold {rational_str(threshold)}"
        )
    prov = _merged({"bound_source": source}, provenance)
    return DHLClaim(k, m, "trunc", hyp, value, threshold, prov)


def dhl_from_eps(k: int, eps, C, hyp: Hypothesis, m: int, nonstrict: bool = False,
                 provenance=None) -> DHLClaim:
    """Enlarged rule: EH needs 1+eps < 1/theta, GEH needs eps < 1/(k-1).

    A certificate must be for the eps variant at this k and this eps.

    nonstrict relaxes the side conditions (only) to non-strict comparisons,
    justified by continuity in eps; default off.
    """
    eps = Q(eps)
    threshold = rule_threshold("eps", hyp, k, m, eps, nonstrict)
    value, source = _bound_value(C, k, kinds=("eps",))
    if isinstance(C, BoundCertificate) and C.variant.eps != eps:
        raise ValueError(
            f"certificate variant {C.variant} does not match the rule at eps = {rational_str(eps)}"
        )
    if not value > threshold:
        raise ValueError(
            f"inequality not satisfied: C = {rational_str(value)} "
            f"<= threshold {rational_str(threshold)}"
        )
    prov = _merged({"bound_source": source, "eps": rational_str(eps)}, provenance)
    if nonstrict:
        prov["nonstrict_side_conditions"] = "true"
    return DHLClaim(k, m, "eps", hyp, value, threshold, prov)


def dhl_from_marginal(k: int, eps, evidence: MarginalEvidence, hyp: Hypothesis, m: int,
                      provenance=None) -> DHLClaim:
    """Marginal rule: GEH plus an exactly verified vanishing-marginal cutoff."""
    eps = Q(eps)
    threshold = rule_threshold("marginal", hyp, k, m, eps)
    if not isinstance(evidence, MarginalEvidence):
        raise ValueError("marginal verification missing")
    if not (evidence.marginals_vanish and evidence.support_ok):
        raise ValueError("marginal verification missing")
    if evidence.k != k or evidence.eps != eps:
        raise ValueError("marginal evidence does not match (k, eps)")
    if not evidence.ratio > threshold:
        raise ValueError(
            f"inequality not satisfied: ratio = {rational_str(evidence.ratio)} "
            f"<= threshold {rational_str(threshold)}"
        )
    prov = _merged({"bound_source": "cutoff-verification", "eps": rational_str(eps)}, provenance)
    return DHLClaim(k, m, "marginal", hyp, evidence.ratio, threshold, prov)


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
        C = Q(int(mp.floor(lb * grid)), grid)
        varpi = Q(m) / C - Q(1, 4) + Q(1, grid)
        vp = mp.mpf(int(varpi.numerator)) / mp.mpf(int(varpi.denominator))
        Tm = T if isinstance(T, mp.mpf) else mp.mpf(str(T))
        delta = Q(int(mp.floor(Tm * (mp.mpf(1) / 4 + vp) * grid)) + 1, grid)
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

    The report is self-contained: re-parsing it re-validates every claim's
    inequality in exact arithmetic (see audit_report).
    """
    lines = [f"report claims={len(claims)}"]
    for i, claim in enumerate(claims):
        if isinstance(claim, HmClaim):
            d = claim.dhl
            lines.append(
                f"claim index={i} kind=hm m={claim.m} bound={claim.bound} "
                f"k={d.k} tuple_sha256={claim.tuple_sha256}"
            )
            lines.append(_dhl_line(i, d))
        elif isinstance(claim, DHLClaim):
            lines.append(f"claim index={i} kind=dhl m={claim.m} k={claim.k}")
            lines.append(_dhl_line(i, claim))
        else:
            raise TypeError("claims must be HmClaim or DHLClaim")
    return "\n".join(lines) + "\n"


def _dhl_line(i: int, d: DHLClaim) -> str:
    extra = "".join(
        f" {key}={value}" for key, value in sorted(d.provenance.items())
    )
    return (
        f"chain index={i} rule={d.rule} k={d.k} m={d.m} "
        f"hypothesis={d.hypothesis.describe()} bound={rational_str(d.bound)} "
        f"threshold={rational_str(d.threshold)} margin={rational_str(d.margin)}"
        f"{extra}"
    )


def _parse_kv(line: str) -> dict:
    out = {}
    for chunk in line.split()[1:]:
        key, _, value = chunk.partition("=")
        out[key] = value
    return out


def audit_report(text: str) -> bool:
    """Re-validate every chain line of a report in exact arithmetic.

    The layout must be that of emit_report: a `report claims=N` line, then
    `claim index=i` and `chain index=i` for i = 0 .. N-1.  A different
    layout, or a missing or unparsable chain field or claim m or k, raises
    ValueError.  A claim whose m or k differs from its chain's is invalid, and
    so is a chain whose threshold is not the one rule_threshold derives from
    its rule, hypothesis, k, m and eps, or whose rule's gates fail.
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
        kv, where = _parse_kv(lines[2 + 2 * i]), f"line {3 + 2 * i}"
        bound, threshold, margin = (
            _field(kv, key, parse_rational, where) for key in ("bound", "threshold", "margin")
        )
        k, m = (_field(kv, key, int, where) for key in ("k", "m"))
        rule = _field(kv, "rule", str, where)
        hyp = _field(kv, "hypothesis", Hypothesis.parse, where)
        eps = _field(kv, "eps", parse_rational, where) if rule in ("eps", "marginal") else None
        nonstrict = kv.get("nonstrict_side_conditions") == "true"
        try:
            ok &= rule_threshold(rule, hyp, k, m, eps, nonstrict) == threshold
        except ValueError:
            ok = False
        claim, where = _parse_kv(lines[1 + 2 * i]), f"line {2 + 2 * i}"
        ok &= (_field(claim, "k", int, where), _field(claim, "m", int, where)) == (k, m)
        ok &= bound > threshold
        ok &= bound - threshold == margin
    return ok


def _field(kv: dict, key: str, parse, where: str):
    if key not in kv:
        raise ValueError(f"{where}: missing field {key}=")
    try:
        return parse(kv[key])
    except (ValueError, ArithmeticError):
        raise ValueError(f"{where}: field {key}={kv[key]!r} is not parsable") from None
