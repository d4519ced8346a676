"""The fixed inputs of the three workloads.

Every input is a published parameter of the source paper (arXiv:1407.4897)
or of its acceptance rows; nothing is drawn at random, so every seed gives
the same inputs.  This module imports nothing from ``primegaps``, so the
runner and the checks can use it without loading the program.
"""

from fractions import Fraction
from pathlib import Path

WORKLOADS = ("tuples", "certify", "claims")

#: cold verify phases per job; the tuple re-checks are short (1.4 s for a
#: whole round), so each job's median is taken over three fresh interpreters
VERIFY_REPEATS = {"tuples": 3, "certify": 1, "claims": 1}

REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE_TUPLE_50 = REPO_ROOT / "src" / "primegaps" / "data" / "tuple_50_246.txt"

#: (file stem, sieve function, k, method for SieveConfig or None)
TUPLE_JOBS = (
    ("k-primes-past-k-5511", "sieve_k_primes_past_k", 5511, None),
    ("eratosthenes-5511", "sieve_eratosthenes", 5511, None),
    ("hensley-richards-5511", "sieve_hensley_richards", 5511, None),
    ("shifted-schinzel-5511", "sieve_shifted_schinzel", 5511, "shifted-schinzel"),
    ("shifted-greedy-5511", "sieve_shifted_greedy", 5511, "shifted-greedy"),
    ("eratosthenes-35410", "sieve_eratosthenes", 35410, None),
    ("hensley-richards-35410", "sieve_hensley_richards", 35410, None),
)

#: Gram-pair certificates: (file stem, kind, k, d, eps or None)
GRAM_JOBS = (
    ("eps-50-6", "eps", 50, 6, Fraction(1, 25)),
    ("plain-5-8", "plain", 5, 8, None),
)
KRYLOV_ORDER = 12
KRYLOV_KS = (2, 3, 4, 5)

#: the seven explicit truncated-variant rows: (k, theta, beta)
ASYMPTOTIC_ROWS = (
    (5511, "0.965", "0.973"),
    (35410, "0.99479", "0.85213"),
    (41588, "0.97878", "0.94319"),
    (309661, "0.98627", "0.92091"),
    (1649821, "1.00422", "0.80148"),
    (75845707, "1.00712", "0.77003"),
    (3473955908, "1.0079318", "0.7490925"),
)
H2_K = 35410
BESSEL_KS = range(2, 201)

#: the certificate the eps-mismatch rejection feeds to a rule at another eps
MISMATCH_CERT = ("eps-5-4-third", 5, 4, Fraction(1, 3))


def certify_stems():
    return [job[0] for job in GRAM_JOBS] + [f"krylov-{k}-{KRYLOV_ORDER}" for k in KRYLOV_KS]


#: The jobs of each workload, in the order a round runs them: each job is
#: a build phase and a cold verify phase, over the file stems it names.
#: Splitting a round into jobs of 1-13 s spreads the build and the verify
#: time of each workload over the whole run.  ``claims`` is one job: its
#: verify phase re-checks every chain of the one report.
JOBS = {
    "tuples": (
        ("shifted-schinzel-5511",),
        ("k-primes-past-k-5511", "eratosthenes-5511", "hensley-richards-5511"),
        ("shifted-greedy-5511",),
        ("eratosthenes-35410", "hensley-richards-35410"),
    ),
    "certify": (
        ("eps-50-6",),
        (f"krylov-4-{KRYLOV_ORDER}",),
        ("plain-5-8", f"krylov-2-{KRYLOV_ORDER}", f"krylov-3-{KRYLOV_ORDER}"),
        (f"krylov-5-{KRYLOV_ORDER}",),
    ),
    "claims": (("claims",),),
}
