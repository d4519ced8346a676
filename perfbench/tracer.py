"""Per-layer tracing from outside the program.

The layers are the modules of ``primegaps``.  ``Tracer.install`` replaces
each public function named in ``LAYER_FUNCTIONS`` by a wrapper, in its own
module and in every other ``primegaps`` module that imported the same
function object (``sieves`` calls ``is_admissible`` through its own
binding, ``varprob`` calls ``affine_multiply`` through its own, and so on).
The program itself is not edited.

Each wrapper counts calls and accumulates self time: the span's duration
minus the time covered by wrapped calls made inside it.  Spans are kept as
running totals in memory and read out once, when the phase ends.
"""

from __future__ import annotations

import sys
import time

#: module -> public functions traced in it
LAYER_FUNCTIONS = {
    "primes": ("primes_upto",),
    "admissible": ("is_admissible", "covers_all_classes", "read_tuple_file", "write_tuple_file"),
    "sieves": (
        "sieve_k_primes_past_k",
        "sieve_eratosthenes",
        "sieve_hensley_richards",
        "sieve_shifted_schinzel",
        "sieve_shifted_greedy",
    ),
    "symmpoly": ("affine_multiply", "affine_integral", "affine_slot_integral", "affine_apply_L"),
    "varprob": (
        "assemble_plain",
        "assemble_eps",
        "gram_lower_bound",
        "solve_generalized",
        "certify",
        "krylov_moments",
        "krylov_lower_bound",
        "write_certificate",
        "verify_certificate_file",
    ),
    "bounds": ("asymptotic_lower", "bessel_lower", "m2_exact", "m2_eps", "m4eps_check"),
    "cutoff3d": ("integrate_I", "integrate_J", "check_marginals", "integrate_piece_I"),
    "pipeline": (
        "dhl_from_eps",
        "dhl_from_marginal",
        "dhl_from_trunc",
        "trunc_params_from_bound",
        "hm_from_dhl",
        "emit_report",
        "audit_report",
    ),
    "cli": ("main",),
}

#: counts read from outside the wrapped calls: (name, unit)
EXTRA_METRICS = (
    ("admissible.is_admissible.accepted", "count"),
    ("symmpoly.struct_constants.hits", "count"),
    ("symmpoly.struct_constants.misses", "count"),
    ("varprob.basis_n", "count"),
    ("varprob.cert_bytes", "bytes"),
    ("varprob.cert_max_bits", "bits"),
)


def span_names():
    return [f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns]


class Tracer:
    """Call counts and self times of the wrapped layer functions."""

    def __init__(self):
        self.enabled = True
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_ns = dict.fromkeys(span_names(), 0)
        self.accepted = 0
        self.basis_n = 0
        self._stack = []  # per open span: nanoseconds covered by wrapped children

    def _wrap(self, name, fn):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - t0
                covered = stack.pop()
                tracer.calls[name] += 1
                tracer.self_ns[name] += elapsed - covered
                if stack:
                    stack[-1] += elapsed
            if name == "admissible.is_admissible" and result:
                tracer.accepted += 1
            elif name in ("varprob.assemble_plain", "varprob.assemble_eps"):
                tracer.basis_n += result.n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap every layer function wherever a primegaps module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("primegaps.")]
        for mod_name, fns in LAYER_FUNCTIONS.items():
            home = sys.modules[f"primegaps.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def report(self) -> dict:
        """Totals for this process, keyed by metric name."""
        from primegaps import symmpoly

        out = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        info = symmpoly._struct_constants.cache_info()
        out["admissible.is_admissible.accepted"] = self.accepted
        out["symmpoly.struct_constants.hits"] = info.hits
        out["symmpoly.struct_constants.misses"] = info.misses
        out["varprob.basis_n"] = self.basis_n
        return out
