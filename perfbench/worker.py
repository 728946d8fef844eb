"""One workload process: repeated passes over the workload's jobs.

Started by run.py with ``ctqw`` on PYTHONPATH and BLAS/OpenMP pinned to one
thread. A single closed-loop client: each job starts when the previous one
has finished and been checked. Prints one JSON line with the per-pass
samples; run.py turns them into metrics.

Untraced runs time passes after one warm-up pass. Traced runs alternate an
untraced and a traced pass, so the difference of their medians is the
tracing overhead.
"""

import argparse
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import ctqw.cli
import numpy
import layers
import workloads

MIN_PASSES = 3


def run_job(main, job):
    """Run one job; returns (wall s, cpu s, failure reason or None)."""
    for path in job.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with redirect_stdout(out), redirect_stderr(err):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = main(job.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising job is a failed job, not a failed run
            where = traceback.extract_tb(exc.__traceback__)[-1]
            code, failure = None, f"raised {exc!r} at {where.filename}:{where.lineno}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if failure is None:
        failure = job.check(code, out.getvalue())
    if failure is not None:
        failure = f"{' '.join(job.argv)}: {failure}; stderr {err.getvalue().strip()!r}"
    return wall, cpu, failure


def cli_main(argv):
    # looked up at each call, so a traced pass goes through the installed wrapper
    return ctqw.cli.main(argv)


def run_pass(jobs, main=cli_main):
    """One pass; failed jobs count as failures and their time is left out."""
    wall = cpu = 0.0
    failures = []
    for job in jobs:
        job_wall, job_cpu, failure = run_job(main, job)
        if failure is None:
            wall += job_wall
            cpu += job_cpu
        else:
            failures.append(failure)
    return wall, cpu, failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True,
                        help="where a traced run writes its spans")
    args = parser.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(ctqw.cli.__file__).resolve().parents:
        sys.exit(f"ctqw imported from {ctqw.cli.__file__}, not from {src}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.jobs_for(args.workload, args.seed, args.out_dir)
    tracer = layers.Tracer() if args.trace else None
    attempted, failures = 0, []
    walls, cpus, traced_walls, layer_samples = [], [], [], []

    def one_pass():
        nonlocal attempted
        wall, cpu, failed = run_pass(jobs)
        attempted += len(jobs)
        failures.extend(failed)
        return wall, cpu

    one_pass()  # warm-up: checked, not timed
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds or len(walls) < MIN_PASSES:
        wall, cpu = one_pass()
        walls.append(wall)
        cpus.append(cpu)
        if tracer is not None:
            first = len(tracer.spans)
            tracer.install(len(traced_walls))
            try:
                wall, _ = one_pass()
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layer_samples.append(layers.pass_metrics(tracer.spans[first:], wall))

    if tracer is not None:
        args.spans.write_text(json.dumps(tracer.spans_as_rows()))
    print(json.dumps({
        "attempted": attempted,
        "failures": failures,
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced_wall_s": traced_walls,
        "layers": layer_samples,
        "missing": tracer.missing if tracer else [],
        "counter_errors": tracer.counter_errors if tracer else {},
        "numpy": numpy.__version__,
    }))


if __name__ == "__main__":
    main()
