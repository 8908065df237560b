"""Benchmark for padicann: point search, curve families and the local pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload points --seed 1 --seconds 30 --trace 0

One single-threaded process runs whole rounds of the workload's fixed batch
of jobs, made from --seed, until --seconds have passed, and checks every
round's outputs (see checks.py).  The last line of stdout is one JSON
object: ``correct``, ``attempted`` and ``failed`` jobs, and ``metrics`` --
the end-to-end metrics with --trace 0, the per-layer ones (spans.py) with
--trace 1.  A run record with the scan kernel, the Python and NumPy
versions, nproc and the seed goes to perfbench/runs/ and to stdout.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The padicann modules each workload uses; set-up time covers importing them.
MODULES = {
    "points": ("padicann.oracle",),
    "family": ("padicann.oracle",),
    "local": ("padicann.oracle", "padicann.curves", "padicann.series",
              "padicann.integration"),
}


def _since_process_start() -> float:
    """Seconds since this process started, by the kernel's start stamp."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def workload_plan(name, seed):
    """(jobs, round function, checker) for one workload; checker(result) -> problems."""
    import checks
    import inputs
    import workloads

    if name == "points":
        def check(r):
            problems = checks.point_problems(r.job, r.output.affine, r.output.infinity_points)
            if r.job.name == "septic":
                problems += checks.septic_problems(r.output.count)
            return problems
        return inputs.points_jobs(seed), workloads.point_round, check

    if name == "family":
        jobs = inputs.family_jobs(seed)
        expected = {job.name: checks.brute_force_points(job.coeffs, job.height)
                    for job in jobs}

        def check(r):
            return checks.family_problems(r.job, r.output.affine, r.output.infinity_points,
                                          expected[r.job.name])
        return jobs, workloads.point_round, check

    def check(r):
        if isinstance(r.job, inputs.CurveJob):
            return checks.curve_problems(r.job, r.output)
        return checks.zero_problems(r.job, r.output)
    return inputs.local_jobs(seed), workloads.local_round, check


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "padicann", "__init__.py")):
        print(f"perfbench: no padicann sources at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for module in MODULES[args.workload]:
        importlib.import_module(module)
    setup_s = _since_process_start()

    import numpy
    import spans
    from padicann.scanner import active_kernel

    jobs, run_round, check = workload_plan(args.workload, args.seed)
    micro = spans.padic_micro() if args.trace else {}
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()

    round_seconds, attempted, failed = [], 0, 0
    errors, problems = [], []
    start = time.perf_counter()
    while not round_seconds or time.perf_counter() - start < args.seconds:
        rnd = run_round(jobs)
        round_seconds.append(rnd.seconds)
        for r in rnd.results:
            attempted += 1
            if r.error is not None:
                failed += 1
                errors.append(r.error)
            else:
                problems += check(r)
    tracer.uninstall()

    wall_s = statistics.median(round_seconds)
    if args.trace:
        metrics = tracer.layer_metrics(len(round_seconds), micro)
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    out_dir = os.path.join(HERE, "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kernel": active_kernel(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "rounds": len(round_seconds),
        "round_seconds": round_seconds, "wall_s": wall_s,
        "errors": errors[:20], "problems": problems[:20], "metrics": metrics,
    }
    if args.trace:
        tracer.dump(stem + "-spans.json")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in problems[:20] + errors[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "kernel", "python",
                                             "numpy", "nproc", "rounds", "wall_s")}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
