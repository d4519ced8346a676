"""Command-line interface.

Subcommand groups:

  tuple find|verify|hsmall     admissible tuple construction and checking
  mk krylov|basis              certified plain-variant lower bounds
  mkeps basis                  certified enlarged-variant lower bounds
  verify-cert FILE             exact re-check of a certificate file
  asympt / m2exact / m2eps / m4eps / bessel
                               closed-form and asymptotic bound evaluators
  cutoff3d verify|eval         exact piecewise-cutoff verification
  chain hm                     build a gap claim from a rule + certificate + tuple
  report FILE...               re-audit emitted reports (exit 0 iff all valid)
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import mpmath as mp

from . import admissible, bounds, cutoff3d, pipeline, sieves, varprob
from .varprob import read_rational


# the constructions that return a SieveRun, for `tuple find --sieve-out`
_SIEVE_RUNS = {
    "shifted-schinzel": sieves.shifted_schinzel_run,
    "shifted-greedy": sieves.shifted_greedy_run,
}


def _cmd_tuple(args) -> int:
    if args.tuple_cmd == "find":
        if args.sieve_out and args.method not in _SIEVE_RUNS:
            raise ValueError(f"--sieve-out needs a shifted method, not {args.method}")
        shift = args.shift
        if shift != "search":
            try:
                shift = int(shift)
            except ValueError:
                raise ValueError(f"--shift takes an integer or 'search', not {shift!r}") from None
        cfg = sieves.SieveConfig(method=args.method, shift=shift, batch_size=args.batch_size)
        if args.sieve_out:
            run = _SIEVE_RUNS[args.method](args.k, cfg)
            t = run.tuple
        else:
            t = sieves.find_tuple(args.k, cfg)
        print(f"method={args.method} k={t.k} diameter={t.diameter}")
        if args.out:
            admissible.write_tuple_file(args.out, t, header=f"method={args.method}")
            print(f"wrote {args.out}")
        else:
            print(" ".join(str(h) for h in t.offsets))
        if args.sieve_out:
            sieves.write_residue_sieve(args.sieve_out, run)
            print(f"wrote {args.sieve_out}")
        return 0
    if args.tuple_cmd == "verify":
        t = admissible.read_tuple_file(args.file)
        ok = admissible.is_admissible(t)
        print(f"k={t.k} diameter={t.diameter} admissible={'yes' if ok else 'no'}")
        return 0 if ok else 1
    if args.tuple_cmd == "hsmall":
        d = admissible.h_exact_small(args.k, args.dmax)
        print(f"minimal diameter for k={args.k}: {d}")
        return 0
    raise AssertionError


def _cmd_bound(args) -> int:
    """mk krylov|basis and mkeps basis: certify the Gram pair that the
    certificate file will name, print the bound, and write the file."""
    if args.cmd == "mkeps":
        variant = varprob.Variant("eps", args.k, read_rational(args.eps, "--eps"))
    else:
        variant = varprob.Variant("plain", args.k)
    if args.cmd == "mk" and args.mk_cmd == "krylov":
        d, basis_kind, n = 0, "krylov", args.n
    else:
        d, basis_kind, n = args.d, "full" if args.full_signatures else "even", None
    cert = varprob.gram_lower_bound(varprob.certificate_pair(variant, d, basis_kind, n))
    status = "verified" if cert.verified else "NOT VERIFIED"
    print(f"variant={cert.variant} n={len(cert.a)} C={cert.C} ({float(cert.C):.8f}) {status}")
    if args.out:
        varprob.write_certificate(args.out, cert, d=d, basis_kind=basis_kind)
        print(f"wrote {args.out}")
    return 0 if cert.verified else 1


def _cmd_verify_cert(args) -> int:
    cert, margin = varprob.verify_certificate_file(args.file)
    print(
        f"variant={cert.variant} C={cert.C} margin={margin} "
        f"{'verified' if cert.verified else 'NOT VERIFIED'}"
    )
    return 0 if cert.verified else 1


def _cmd_asympt(args) -> int:
    theta, beta = read_rational(args.theta, "--theta"), read_rational(args.beta, "--beta")
    tau = read_rational(args.tau, "--tau") if args.tau is not None else None
    p = bounds.AsymptoticParams.from_scaled(args.k, theta, beta, tau=tau)
    r = bounds.asymptotic_lower(p)
    for name in ("m2", "mu", "sigma2", "Z", "Z3", "W", "X", "V", "U"):
        print(f"{name} = {mp.nstr(getattr(r, name), 15)}")
    print(f"error_budget = {mp.nstr(r.error_budget, 5)}")
    print(f"lower_bound = {mp.nstr(r.lower_bound, 15)}")
    return 0


def _cmd_cutoff3d(args) -> int:
    if args.cutoff_cmd == "verify":
        v = cutoff3d.verify_cutoff(cutoff3d.builtin_cutoff())
        print(f"I = {v.I}")
        print(f"J = {v.J}")
        print(f"J/I = 2 + {v.J / v.I - 2}")
        for label, residual in v.residuals:
            print(f"marginal {label}: {'vanishes' if residual.is_zero() else f'NONZERO {residual}'}")
        print(f"ratio exceeds 2: {'yes' if v.J > 2 * v.I else 'no'}")
        return 0 if v.ok else 1
    # eval
    name, _, word = args.piece.partition("_")
    word = word or "xyz"
    if name not in cutoff3d.CANONICAL_NAMES or word not in cutoff3d.WORDS:
        raise ValueError(f"unknown piece {args.piece!r}, not NAME_WORD as in A_xyz or G_yzx")
    f = cutoff3d.builtin_cutoff()
    poly = cutoff3d.piece_polynomial(f, name, word)
    coords = args.at.split(",")
    if len(coords) != 3:
        raise ValueError(f"--at takes three rationals x,y,z, not {args.at!r}")
    x, y, z = (read_rational(c, "--at") for c in coords)
    value = poly.eval(x, y, z)
    print(f"{args.piece}({x},{y},{z}) = {value}")
    return 0


def _cmd_chain(args) -> int:
    rule, spec = args.dhl_rule, pipeline.RULES[args.dhl_rule]
    # a flag the rule does not read is refused rather than dropped; MPZ is
    # built from --varpi and --delta, every other hypothesis from --hyp and --theta
    mpz = "MPZ" in spec.tags
    reads = {"hyp": not mpz, "theta": not mpz, "eps": spec.eps, "varpi": mpz, "delta": mpz,
             "nonstrict": spec.nonstrict}
    for name, read in reads.items():
        if not read and getattr(args, name) not in (None, False):
            raise ValueError(f"--dhl-rule {rule} takes no --{name}")
    for name in ("varpi", "delta", "eps"):
        if reads[name] and getattr(args, name) is None and rule != "marginal":
            raise ValueError(f"--dhl-rule {rule} needs --{name}")
    if args.hyp == "BV" and args.theta is not None:
        raise ValueError("--hyp BV takes no --theta")
    eps = read_rational(args.eps, "--eps") if args.eps is not None else None
    if rule == "marginal":
        # the rule's evidence is the built-in cutoff's exact verification:
        # evidence handed in would be dropped from the report, and a k,
        # hypothesis or eps that the cutoff does not have would be ignored,
        # so refuse them
        if args.cert or args.cert_value:
            raise ValueError("--dhl-rule marginal takes no --cert or --cert-value")
        if args.k != 3:
            raise ValueError(f"--dhl-rule marginal needs --k 3 (the built-in cutoff), not {args.k}")
        if args.hyp not in (None, "GEH"):
            raise ValueError(f"--dhl-rule marginal needs --hyp GEH, not {args.hyp}")
        evidence = pipeline.MarginalEvidence.from_cutoff(cutoff3d.builtin_cutoff())
        if eps not in (None, evidence.eps):
            raise ValueError(f"--dhl-rule marginal needs the built-in cutoff's --eps {evidence.eps}, not {args.eps}")
        eps = evidence.eps
    elif args.cert and spec.variant is None:
        raise ValueError(f"--dhl-rule {rule} takes no --cert")
    elif not (args.cert or args.cert_value):
        raise ValueError(f"--dhl-rule {rule} needs --cert or --cert-value")
    if mpz:
        hyp = pipeline.Hypothesis.mpz(read_rational(args.varpi, "--varpi"), read_rational(args.delta, "--delta"))
    elif args.hyp == "BV":
        hyp = pipeline.Hypothesis.bv()
    else:
        theta = read_rational(args.theta, "--theta") if args.theta is not None else pipeline.THETA_NEAR_ONE
        hyp = pipeline.Hypothesis(args.hyp or spec.tags[0], theta=theta)
    t = admissible.read_tuple_file(args.tuple)
    provenance = {}
    if args.cert:
        evidence, _ = varprob.verify_certificate_file(args.cert)
        if not evidence.verified:
            print("certificate failed exact verification", file=sys.stderr)
            return 1
        with open(args.cert, "rb") as fh:
            provenance["cert_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    elif args.cert_value:
        evidence = pipeline.ExternalBound(read_rational(args.cert_value, "--cert-value"), args.cert_source)
    dhl = pipeline.derive(rule, args.k, args.m, hyp, evidence, eps, args.nonstrict, provenance)
    report = pipeline.emit_report([pipeline.hm_from_dhl(dhl, t)])
    print(report, end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    return 0 if pipeline.audit_report(report) else 1


def _cmd_report(args) -> int:
    all_ok = True
    for path in args.files:
        with open(path) as fh:
            text = fh.read()
        try:
            ok = pipeline.audit_report(text)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        all_ok &= ok
        print(f"{path}: {'valid' if ok else 'INVALID'}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="primegaps", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    t = sub.add_parser("tuple", help="admissible tuple operations")
    tsub = t.add_subparsers(dest="tuple_cmd", required=True)
    tf = tsub.add_parser("find")
    tf.add_argument("--k", type=int, required=True)
    tf.add_argument("--method", default="shifted-schinzel", choices=sieves.METHODS)
    tf.add_argument("--shift", default="search")
    tf.add_argument("--batch-size", type=int, default=1)
    tf.add_argument("--out")
    tf.add_argument("--sieve-out", help="residue-sieve file (shifted methods only)")
    tv = tsub.add_parser("verify")
    tv.add_argument("file")
    th = tsub.add_parser("hsmall")
    th.add_argument("--k", type=int, required=True)
    th.add_argument("--dmax", type=int, required=True)

    mk = sub.add_parser("mk", help="plain-variant lower bounds")
    mksub = mk.add_subparsers(dest="mk_cmd", required=True)
    mkk = mksub.add_parser("krylov")
    mkk.add_argument("--k", type=int, required=True)
    mkk.add_argument("--n", type=int, required=True)
    mkk.add_argument("--out")
    mkb = mksub.add_parser("basis")
    mkb.add_argument("--k", type=int, required=True)
    mkb.add_argument("--d", type=int, required=True)
    mkb.add_argument("--full-signatures", action="store_true")
    mkb.add_argument("--out")

    mke = sub.add_parser("mkeps", help="enlarged-variant lower bounds")
    mkesub = mke.add_subparsers(dest="mkeps_cmd", required=True)
    mkeb = mkesub.add_parser("basis")
    mkeb.add_argument("--k", type=int, required=True)
    mkeb.add_argument("--d", type=int, required=True)
    mkeb.add_argument("--eps", required=True)
    mkeb.add_argument("--full-signatures", action="store_true")
    mkeb.add_argument("--out")

    vc = sub.add_parser("verify-cert", help="exactly re-check a certificate file")
    vc.add_argument("file")

    asy = sub.add_parser("asympt", help="explicit truncated-variant lower bound")
    asy.add_argument("--k", type=int, required=True)
    asy.add_argument("--theta", required=True)
    asy.add_argument("--beta", required=True)
    asy.add_argument("--tau", default=None)

    sub.add_parser("m2exact", help="exact two-variable optimum")
    m2e = sub.add_parser("m2eps", help="enlarged two-variable optimum")
    m2e.add_argument("--eps", required=True)
    m4 = sub.add_parser("m4eps", help="exact four-variable cross-check")
    m4.add_argument("--eps", required=True)
    m4.add_argument("--alpha", required=True)
    be = sub.add_parser("bessel", help="Bessel-zero lower bound")
    be.add_argument("--k", type=int, required=True)

    c3 = sub.add_parser("cutoff3d", help="piecewise-cutoff verification")
    c3sub = c3.add_subparsers(dest="cutoff_cmd", required=True)
    c3sub.add_parser("verify")
    c3e = c3sub.add_parser("eval")
    c3e.add_argument("--piece", required=True, help="for instance A_xyz or G_yzx")
    c3e.add_argument("--at", required=True, help="x,y,z with rational entries")

    ch = sub.add_parser("chain", help="derive gap claims")
    chsub = ch.add_subparsers(dest="chain_cmd", required=True)
    chm = chsub.add_parser("hm")
    chm.add_argument("--dhl-rule", required=True, choices=tuple(pipeline.RULES))
    chm.add_argument("--k", type=int, required=True)
    chm.add_argument("--m", type=int, required=True)
    chm.add_argument("--eps")
    chm.add_argument("--theta")
    chm.add_argument("--varpi")
    chm.add_argument("--delta")
    chm.add_argument("--hyp", choices=("EH", "GEH", "BV"), help="default EH, GEH for --dhl-rule marginal")
    chm.add_argument("--cert")
    chm.add_argument("--cert-value")
    chm.add_argument("--cert-source", default="published-value")
    chm.add_argument("--nonstrict", action="store_true")
    chm.add_argument("--tuple", required=True)
    chm.add_argument("--out")

    rp = sub.add_parser("report", help="re-audit report files")
    rp.add_argument("files", nargs="+")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "tuple":
            return _cmd_tuple(args)
        if args.cmd in ("mk", "mkeps"):
            return _cmd_bound(args)
        if args.cmd == "verify-cert":
            return _cmd_verify_cert(args)
        if args.cmd == "asympt":
            return _cmd_asympt(args)
        if args.cmd == "m2exact":
            print(mp.nstr(bounds.m2_exact(), 15))
            return 0
        if args.cmd == "m2eps":
            print(mp.nstr(bounds.m2_eps(read_rational(args.eps, "--eps")), 15))
            return 0
        if args.cmd == "m4eps":
            eps, alpha = read_rational(args.eps, "--eps"), read_rational(args.alpha, "--alpha")
            I, J, ok = bounds.m4eps_check(eps, alpha)
            print(f"I = {I} ({float(I):.12g})")
            print(f"J = {J} ({float(J):.12g})")
            print(f"4J/I = {4 * J / I} ({float(4 * J / I):.12g})")
            print(f"exceeds 2.00558: {'yes' if ok else 'no'}")
            return 0
        if args.cmd == "bessel":
            print(mp.nstr(bounds.bessel_lower(args.k), 15))
            return 0
        if args.cmd == "cutoff3d":
            return _cmd_cutoff3d(args)
        if args.cmd == "chain":
            return _cmd_chain(args)
        if args.cmd == "report":
            return _cmd_report(args)
        raise AssertionError
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        # one line, whatever the message's own line breaks
        print("error: " + " ".join(str(exc).split()), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
