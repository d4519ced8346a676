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
"""

from . import admissible, bounds, cutoff3d, pipeline, primes, sieves, symmpoly, varprob

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
