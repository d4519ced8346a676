"""Narrow admissible prime tuples, certified variational sieve bounds, and
bounded-gap implication chains.

Module map:

  primes       prime generation (a numpy sieve) shared by the tuple sieves
  admissible   tuple type, the bitmap admissibility test, gap encoding,
               exact small-k minimal diameters, tuple files and the one
               integer grammar of every file
  sieves       the five tuple constructions and residue sieve files
  symmpoly     exact symmetric-polynomial algebra and simplex integration
  varprob      quadratic-form matrices, exact rational certificates,
               Krylov/Hankel lower bounds, certificate files
  bounds       closed-form values and upper/lower bound evaluators,
               including the explicit truncated-variant machinery
  cutoff3d     exact verification of the 60-piece three-variable cutoff
  pipeline     implication rules and auditable claim reports
  cli          the command-line interface ("primegaps ...")

Importing the package loads none of them: each submodule (and numpy or
mpmath, where it needs them) loads on first use, as `primegaps.varprob`,
`from primegaps import varprob` or `from primegaps import *`, so a
process pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "admissible",
    "bounds",
    "cutoff3d",
    "pipeline",
    "primes",
    "sieves",
    "symmpoly",
    "varprob",
    "__version__",
]


def __getattr__(name):
    # PEP 562: called only for a name not yet in the module's namespace; the
    # import binds the submodule there, so each loads once
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
