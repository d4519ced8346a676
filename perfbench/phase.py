"""Run one phase of one job of a workload in this (fresh) interpreter.

    python3 perfbench/phase.py WORKLOAD JOB build|verify WORKDIR [--trace]

JOB is an index into ``inputs.JOBS[WORKLOAD]``.

Writes WORKDIR/<phase>.json: the wall time spent in calls into the library
(``lib_s``), the operation log, the outputs exported for the checks, this
process's peak RSS, and with ``--trace`` the per-layer totals.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workload")
    ap.add_argument("job", type=int)
    ap.add_argument("phase", choices=("build", "verify"))
    ap.add_argument("workdir")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import inputs
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    build, verify = workloads.PHASES[args.workload]
    ph = workloads.Phase(Path(args.workdir), tracer)
    (build if args.phase == "build" else verify)(ph, inputs.JOBS[args.workload][args.job])

    result = {
        "lib_s": ph.lib_s,
        "ops": ph.ops,
        "out": ph.out,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.report()
    with open(Path(args.workdir) / f"{args.phase}.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
