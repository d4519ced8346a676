"""The three workloads, each split into jobs of a build phase and a verify phase.

Every phase of every job runs in its own fresh interpreter (see
``phase.py``), so the verify phase re-derives everything from the files the
build phase wrote,
with cold ``lru_cache``s in ``symmpoly`` and cold Krylov moment streams in
``varprob``, as it would for a reader who runs ``primegaps verify-cert``
later.

An operation is one user-visible action (build a tuple and write it,
certify a bound and write the certificate, run one CLI command).  Only the
calls into ``primegaps`` inside an operation are timed; what the benchmark
does for its own checks (exports, tampering with a copy of a file) is not.
Every library function is looked up on its module at call time, so the
tracer's wrappers see the calls.

Each phase function takes the file stems of one job (``inputs.JOBS``).  The
inputs are fixed published parameters; nothing depends on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from fractions import Fraction
from pathlib import Path

import mpmath

from primegaps import admissible, bounds, cli, cutoff3d, pipeline, sieves, varprob

from inputs import (
    ASYMPTOTIC_ROWS,
    BESSEL_KS,
    GRAM_JOBS,
    H2_K,
    KRYLOV_KS,
    KRYLOV_ORDER,
    MISMATCH_CERT,
    REFERENCE_TUPLE_50,
    TUPLE_JOBS,
)


class OpFailed(Exception):
    """An operation did not give the outcome a correct program gives."""


class Phase:
    """Timing, operation log and exported outputs of one phase."""

    def __init__(self, workdir: Path, tracer=None):
        self.dir = Path(workdir)
        self.tracer = tracer
        self.lib_s = 0.0
        self.ops = []
        self.out = {}

    def call(self, fn, *args, **kwargs):
        """One timed call into the library."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.lib_s += time.perf_counter() - t0

    def cli(self, argv):
        """Run ``cli.main`` in this process; returns (exit code, stdout, stderr).

        An exception escaping ``main`` is what a user sees as a traceback and
        exit code 1, so it is reported as such.
        """
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.call(cli.main, [str(a) for a in argv])
            except Exception as exc:  # noqa: BLE001 - the CLI boundary
                err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
                code = 1
        return code, out.getvalue(), err.getvalue()

    def cli_expect(self, argv, code: int) -> str:
        got, out, err = self.cli(argv)
        if got != code:
            raise OpFailed(f"exit {got}, expected {code}: {err.strip()[-300:]}")
        return out

    def op(self, name: str, fn) -> None:
        """Run one operation; any exception marks it failed."""
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - one failed operation must not end the phase
            self.ops.append({"name": name, "ok": False, "error": f"{type(exc).__name__}: {exc}"})
        else:
            self.ops.append({"name": name, "ok": True})

    @contextlib.contextmanager
    def untraced(self):
        """For the benchmark's own exports: not counted in the layer figures."""
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True

    def export(self, name: str, data) -> None:
        with open(self.dir / f"{name}.json", "w") as fh:
            json.dump(data, fh)


def _q(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _matrix(M):
    return [[_q(x) for x in row] for row in M]


# ---------------------------------------------------------------------------
# tuples
# ---------------------------------------------------------------------------


def tuples_build(ph: Phase, stems) -> None:
    for stem, fn_name, k, method in TUPLE_JOBS:
        if stem not in stems:
            continue

        def build(stem=stem, fn_name=fn_name, k=k, method=method):
            args = (k,) if method is None else (k, sieves.SieveConfig(method=method))
            t = ph.call(getattr(sieves, fn_name), *args)
            ph.call(admissible.write_tuple_file, ph.dir / f"{stem}.txt", t, header=stem)

        ph.op(f"build {stem}", build)


def tuples_verify(ph: Phase, stems) -> None:
    for stem in stems:

        def verify(stem=stem):
            ph.out[f"tuple verify {stem}"] = ph.cli_expect(["tuple", "verify", ph.dir / f"{stem}.txt"], 0)

        ph.op(f"tuple verify {stem}", verify)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _gram_certificate(ph: Phase, stem, kind, k, d, eps) -> None:
    if kind == "eps":
        pair = ph.call(varprob.assemble_eps, k, d, eps)
    else:
        pair = ph.call(varprob.assemble_plain, k, d)
    cert = ph.call(varprob.gram_lower_bound, pair)
    ph.call(varprob.write_certificate, ph.dir / f"{stem}.cert", cert, d=d)
    ph.export(f"{stem}.pair", {"M1": _matrix(pair.M1), "M2": _matrix(pair.M2)})


def certify_build(ph: Phase, stems) -> None:
    for job in GRAM_JOBS:
        if job[0] in stems:
            ph.op(f"certify {job[0]}", lambda job=job: _gram_certificate(ph, *job))
    for k in KRYLOV_KS:
        if f"krylov-{k}-{KRYLOV_ORDER}" not in stems:
            continue

        def krylov(k=k):
            stem = f"krylov-{k}-{KRYLOV_ORDER}"
            cert = ph.call(varprob.krylov_lower_bound, k, KRYLOV_ORDER)
            ph.call(varprob.write_certificate, ph.dir / f"{stem}.cert", cert, d=0, basis_kind="krylov")
            with ph.untraced():
                moments = varprob.krylov_moments(k, KRYLOV_ORDER).moments
            ph.export(f"{stem}.moments", [_q(m) for m in moments])

        ph.op(f"certify krylov-{k}", krylov)


def certify_verify(ph: Phase, stems) -> None:
    for stem in stems:

        def verify(stem=stem):
            ph.out[f"verify-cert {stem}"] = ph.cli_expect(["verify-cert", ph.dir / f"{stem}.cert"], 0)

        ph.op(f"verify-cert {stem}", verify)


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------


def claims_build(ph: Phase, stems) -> None:
    st = {}

    def cutoff():
        f = ph.call(cutoff3d.builtin_cutoff)
        I = ph.call(cutoff3d.integrate_I, f)
        J = ph.call(cutoff3d.integrate_J, f)
        residuals = ph.call(cutoff3d.check_marginals, f)
        st["cutoff"] = (f, I, J, residuals)
        ph.out["I"], ph.out["J"] = _q(I), _q(J)
        ph.out["marginals"] = {
            label: {",".join(map(str, key)): _q(c) for key, c in res.terms.items()}
            for label, res in residuals
        }

    ph.op("cutoff3d I, J and marginals", cutoff)

    ph.out["asymptotic"] = {}
    for k, theta, beta in ASYMPTOTIC_ROWS:

        def row(k=k, theta=theta, beta=beta):
            params = ph.call(bounds.AsymptoticParams.from_scaled, k, theta, beta)
            st[k] = ph.call(bounds.asymptotic_lower, params)
            ph.out["asymptotic"][str(k)] = mpmath.nstr(st[k].lower_bound, 30)

        ph.op(f"asymptotic row k={k}", row)

    def bessel():
        ph.out["bessel"] = {str(k): str(ph.call(bounds.bessel_lower, k)) for k in BESSEL_KS}

    ph.op("bessel_lower k=2..200", bessel)

    def closed_forms():
        ph.out["m2_exact"] = str(ph.call(bounds.m2_exact))
        ph.out["m2_eps_left"] = str(ph.call(bounds.m2_eps, Fraction(1, 3) - Fraction(1, 10**24)))
        ph.out["m2_eps_third"] = str(ph.call(bounds.m2_eps, Fraction(1, 3)))
        I4, J4, _ = ph.call(bounds.m4eps_check, Fraction(21, 125), Fraction(98, 125))
        ph.out["m4eps"] = [_q(I4), _q(J4)]

    ph.op("m2_exact, m2_eps, m4eps_check", closed_forms)

    def chain_h1_6():
        f, I, J, residuals = st["cutoff"]
        vanish = all(res.is_zero() for _, res in residuals)
        ev = ph.call(pipeline.MarginalEvidence, 3, f.eps, J / I, vanish, True)
        dhl = ph.call(pipeline.dhl_from_marginal, 3, f.eps, ev, pipeline.Hypothesis.geh_full(), 1)
        t = admissible.Tuple((0, 2, 6))
        st["h6"] = ph.call(pipeline.hm_from_dhl, dhl, t)
        ph.call(admissible.write_tuple_file, ph.dir / "tuple-3.txt", t)

    ph.op("chain H_1 <= 6 (marginal rule, GEH)", chain_h1_6)

    def chain_h1_246():
        t = ph.call(admissible.read_tuple_file, REFERENCE_TUPLE_50)
        bound = pipeline.ExternalBound(Fraction(40043, 10000), "published-value")
        dhl = ph.call(pipeline.dhl_from_eps, 50, Fraction(1, 25), bound, pipeline.Hypothesis.bv(), 1)
        st["h246"] = ph.call(pipeline.hm_from_dhl, dhl, t)

    ph.op("chain H_1 <= 246 (eps rule, BV)", chain_h1_246)

    def chain_h2():
        r = st[H2_K]
        C, varpi, delta = ph.call(pipeline.trunc_params_from_bound, 2, r.lower_bound, r.params.T)
        bound = pipeline.ExternalBound(C, "explicit-evaluator")
        dhl = ph.call(pipeline.dhl_from_trunc, H2_K, bound, varpi, delta, 2)
        t = ph.call(sieves.sieve_k_primes_past_k, H2_K)
        st["h2"] = ph.call(pipeline.hm_from_dhl, dhl, t)
        ph.call(admissible.write_tuple_file, ph.dir / f"tuple-{H2_K}.txt", t)

    ph.op("chain H_2 (truncated rule, MPZ)", chain_h2)

    def report():
        text = ph.call(pipeline.emit_report, [st["h6"], st["h246"], st["h2"]])
        (ph.dir / "report.txt").write_text(text)

    ph.op("emit report", report)

    def mismatch_cert():
        stem, k, d, eps = MISMATCH_CERT
        pair = ph.call(varprob.assemble_eps, k, d, eps)
        cert = ph.call(varprob.gram_lower_bound, pair)
        ph.call(varprob.write_certificate, ph.dir / f"{stem}.cert", cert, d=d)

    ph.op("certify eps(5, 1/3) at d=4", mismatch_cert)


def tamper_report(text: str) -> str:
    """The eps-rule chain rewritten to bound=5/2 threshold=0 margin=5/2."""
    out = []
    for line in text.splitlines():
        if line.startswith("chain ") and " rule=eps " in line:
            fields = []
            for chunk in line.split(" "):
                key = chunk.partition("=")[0]
                value = {"bound": "5/2", "threshold": "0", "margin": "5/2"}.get(key)
                fields.append(chunk if value is None else f"{key}={value}")
            line = " ".join(fields)
        out.append(line)
    return "\n".join(out) + "\n"


def drop_coefficient_line(text: str, index: int = 1) -> str:
    """The certificate with its a[index] line removed (non-contiguous indices)."""
    return "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith(f"a[{index}]"))


def claims_verify(ph: Phase, stems) -> None:
    stem = MISMATCH_CERT[0]
    (ph.dir / "report-tampered.txt").write_text(tamper_report((ph.dir / "report.txt").read_text()))
    bad_cert = drop_coefficient_line((ph.dir / f"{stem}.cert").read_text())
    (ph.dir / "noncontiguous.cert").write_text(bad_cert)

    ph.op("report", lambda: ph.cli_expect(["report", ph.dir / "report.txt"], 0))
    for label, path in (
        ("tuple-3", ph.dir / "tuple-3.txt"),
        ("tuple-50", REFERENCE_TUPLE_50),
        (f"tuple-{H2_K}", ph.dir / f"tuple-{H2_K}.txt"),
    ):

        def verify(label=label, path=path):
            ph.out[f"tuple verify {label}"] = ph.cli_expect(["tuple", "verify", path], 0)

        ph.op(f"tuple verify {label}", verify)

    def polytope_I():
        f = ph.call(cutoff3d.builtin_cutoff)
        pieces = [
            ph.call(cutoff3d.integrate_piece_I, f, name, via_polytope=True)
            for name in cutoff3d.CANONICAL_NAMES
        ]
        ph.out["I_polytope"] = _q(6 * sum(pieces))

    ph.op("recompute I through the polytope route", polytope_I)

    # reader-side rejections: a correct program refuses each of these
    def tampered_report():
        code, _, _ = ph.cli(["report", ph.dir / "report-tampered.txt"])
        if code != 1:
            raise OpFailed(f"exit {code}: report accepted a chain rewritten to bound=5/2 threshold=0")

    ph.op("reject tampered report", tampered_report)

    def eps_mismatch():
        cert, _ = ph.call(varprob.verify_certificate_file, ph.dir / f"{stem}.cert")
        try:
            claim = ph.call(
                pipeline.dhl_from_eps, 5, Fraction(1, 100), cert, pipeline.Hypothesis.eh(Fraction(49, 50)), 1
            )
        except ValueError:
            return
        raise OpFailed(
            f"dhl_from_eps at eps=1/100 accepted a certificate for {cert.variant} "
            f"(C={float(claim.bound):.4f} > threshold {float(claim.threshold):.4f})"
        )

    ph.op("reject eps-mismatched certificate", eps_mismatch)

    def noncontiguous():
        code, _, err = ph.cli(["verify-cert", ph.dir / "noncontiguous.cert"])
        lines = err.strip().splitlines()
        if code != 2 or len(lines) != 1 or not lines[0].startswith("error:"):
            raise OpFailed(f"exit {code} with {lines[-1] if lines else 'no message'}, expected a one-line error and exit 2")

    ph.op("reject certificate with non-contiguous a[i]", noncontiguous)


PHASES = {
    "tuples": (tuples_build, tuples_verify),
    "certify": (certify_build, certify_verify),
    "claims": (claims_build, claims_verify),
}
