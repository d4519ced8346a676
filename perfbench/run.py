"""Benchmark of the primegaps proof pipeline.

    python3 perfbench/run.py --workload tuples|certify|claims \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs to be installed, the
children import ``primegaps`` from ``src/``.  One run:

1. one untimed import of ``primegaps`` in a fresh interpreter (bytecode
   compilation is not timed);
2. the workload's jobs (``inputs.JOBS``), one after another and over again
   from the first: every job once, then each next job only if its last run
   says it will end within half its length of S seconds.  A job is a build
   phase in a fresh interpreter, then a verify phase in another that reads
   only what the build wrote (repeated as ``inputs.VERIFY_REPEATS`` says),
   then the checks of ``checks.py`` on what they wrote.  With ``--trace 1``
   every job is run untraced and then traced, and the traced runs give the
   per-layer figures and the tracing overhead;
3. ``setup_s``: the median of cold starts of a fresh interpreter that
   imports ``primegaps``, three before the jobs, one after each job and
   more at the end up to SETUP_IMPORTS, so that they sample the machine
   over the whole run.

A time metric is the sum, over the jobs, of the median of each job's runs.
Children run strictly one at a time, each with one BLAS/OpenMP thread and a
fixed hash seed.  The inputs are fixed published parameters, so every
``--seed`` gives the same inputs.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import checks
import inputs
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_IMPORTS = 7
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("build_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for name in tracer.span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    return out + list(tracer.EXTRA_METRICS) + [("trace.wall_s", "s"), ("trace.overhead_s", "s")]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(argv, env) -> float:
    """Run one child to completion; returns its wall time in seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"child {' '.join(argv[:3])} exited with {proc.returncode}")
    return wall


def cert_sizes(workdir: Path) -> tuple:
    """Total bytes of the certificate files and the largest numerator or
    denominator, in bits, in any of them."""
    total, bits = 0, 0
    for path in sorted(workdir.glob("*.cert")):
        total += path.stat().st_size
        for line in path.read_text().splitlines():
            if line.startswith(("C =", "a[")):
                q = Fraction(line.split("=", 1)[1].strip())
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return total, bits


def run_job(workload: str, job: int, env: dict, trace: bool) -> dict:
    """One build phase and the cold verify phases of one job, then its checks."""
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{job}-", dir=RUNS_DIR))
    flag = ["--trace"] if trace else []
    phase = str(BENCH_DIR / "phase.py")
    build_wall = run_child([phase, workload, str(job), "build", str(workdir), *flag], env)
    build = json.loads((workdir / "build.json").read_text())
    verifies, verify_walls = [], []
    for _ in range(inputs.VERIFY_REPEATS[workload]):
        verify_walls.append(run_child([phase, workload, str(job), "verify", str(workdir), *flag], env))
        verifies.append(json.loads((workdir / "verify.json").read_text()))
    # the outputs of the first verify phase are checked; a repeat that
    # disagreed with it would show as a failed operation
    verify = verifies[0]
    stems = inputs.JOBS[workload][job]
    if workload == "tuples":
        tuple_jobs = [t for t in inputs.TUPLE_JOBS if t[0] in stems]
        problems = checks.check_tuples(workdir, build, verify, tuple_jobs)
    elif workload == "certify":
        problems = checks.check_certify(workdir, build, verify, stems)
    else:
        problems = checks.check_claims(workdir, build, verify, inputs.REFERENCE_TUPLE_50)
    ops = build["ops"] + [op for v in verifies for op in v["ops"]]
    result = {
        "job": job,
        "wall_s": build_wall + statistics.median(verify_walls),
        "build_s": build["lib_s"],
        "verify_s": statistics.median(v["lib_s"] for v in verifies),
        "peak_rss_mb": max(ph["maxrss_kb"] for ph in [build, *verifies]) / 1024,
        "attempted": len(ops),
        "failed": [op for op in ops if not op["ok"]],
        "problems": problems,
    }
    if trace:
        # per-layer totals of the build and one cold verify
        layers = {name: build["layers"][name] + verify["layers"][name] for name in build["layers"]}
        layers["varprob.cert_bytes"], layers["varprob.cert_max_bits"] = cert_sizes(workdir)
        result["layers"] = layers
    if not problems:
        shutil.rmtree(workdir)
    else:
        result["problems"].append(f"outputs kept in {workdir.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "primegaps" / "__init__.py").is_file():
        print(f"error: no primegaps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    jobs = inputs.JOBS[args.workload]

    def cold_import():
        return run_child(["-c", "import primegaps"], env)

    cold_import()
    imports = [cold_import() for _ in range(3)]
    runs, traced, took = [], [], {}
    t0 = time.perf_counter()
    while True:
        job = len(runs) % len(jobs)
        # after the first round, start a job only if it should end within
        # half its own length of the run's time
        if job in took and time.perf_counter() - t0 + took[job] / 2 > args.seconds:
            break
        t_job = time.perf_counter()
        runs.append(run_job(args.workload, job, env, trace=False))
        if args.trace:
            traced.append(run_job(args.workload, job, env, trace=True))
        imports.append(cold_import())
        took[job] = time.perf_counter() - t_job
    imports += [cold_import() for _ in range(SETUP_IMPORTS - len(imports))]

    for r in runs:
        print(f"job {r['job']}: " + " ".join(f"{k}={r[k]:.4f}" for k in ("wall_s", "build_s", "verify_s")))
    every = runs + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(len(r["failed"]) for r in every)
    problems = [p for r in every for p in r["problems"]]
    for name in dict.fromkeys(op["name"] + ": " + op["error"] for r in every for op in r["failed"]):
        print(f"failed operation: {name}")
    for p in problems:
        print(f"check failed: {p}")

    def per_job(rs, get):
        """The median of each job's runs, one value per job."""
        return [statistics.median(get(r) for r in rs if r["job"] == j) for j in range(len(jobs))]

    def total(key, rs=runs):
        return sum(per_job(rs, lambda r: r[key]))

    if args.trace:
        values = {
            name: (max if name == "varprob.cert_max_bits" else sum)(per_job(traced, lambda r: r["layers"][name]))
            for name, _ in per_layer_metrics()[:-2]
        }
        values["trace.wall_s"] = total("wall_s", traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - total("wall_s")
        units = per_layer_metrics()
    else:
        values = {
            "setup_s": statistics.median(imports),
            "wall_s": total("wall_s"),
            "build_s": total("build_s"),
            "verify_s": total("verify_s"),
            "peak_rss_mb": max(per_job(runs, lambda r: r["peak_rss_mb"])),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print(f"workload={args.workload} seed={args.seed} job runs={len(runs)} "
          f"attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
