"""End-to-end claim chains.

Each chain combines a distribution hypothesis tag, an exactly checked
bound, and an admissible tuple into an auditable gap claim.
"""

from fractions import Fraction
from importlib import resources

from primegaps.admissible import Tuple, read_tuple_file
from primegaps.bounds import AsymptoticParams, asymptotic_lower
from primegaps.cutoff3d import builtin_cutoff
from primegaps.pipeline import (
    ExternalBound,
    Hypothesis,
    MarginalEvidence,
    audit_report,
    dhl_from_eps,
    dhl_from_marginal,
    dhl_from_trunc,
    emit_report,
    hm_from_dhl,
    trunc_params_from_bound,
)
from primegaps.sieves import SieveConfig, sieve_shifted_greedy

with resources.as_file(resources.files("primegaps").joinpath("data", "tuple_50_246.txt")) as p:
    t50 = read_tuple_file(p)

# chain 1: enlarged rule + unconditional hypothesis tag + published bound value
d50 = dhl_from_eps(50, Fraction(1, 25), ExternalBound(Fraction(40043, 10**4), "published-value"),
                   Hypothesis.bv(), 1)
h246 = hm_from_dhl(d50, t50)

# chain 2: exactly verified cutoff + GEH
evidence = MarginalEvidence.from_cutoff(builtin_cutoff())
d3 = dhl_from_marginal(3, evidence.eps, evidence, Hypothesis.geh_full(), 1)
h6 = hm_from_dhl(d3, Tuple((0, 2, 6)))

# chain 3: truncated rule from the explicit evaluator + a constructed tuple
k = 35410
r = asymptotic_lower(AsymptoticParams.from_scaled(k, "0.99479", "0.85213"))
C, varpi, delta = trunc_params_from_bound(2, r.lower_bound, r.params.T)
d35410 = dhl_from_trunc(k, ExternalBound(C, "explicit-evaluator"), varpi, delta, 2)
print(f"building a {k}-tuple with the greedy sieve (half a minute)...")
t = sieve_shifted_greedy(k, SieveConfig(method="shifted-greedy", shift=0, batch_size=16))
h2 = hm_from_dhl(d35410, t)

report = emit_report([h246, h6, h2])
print()
print(report)
print("report re-audits exactly:", audit_report(report))
