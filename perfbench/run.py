"""ctqw benchmark: one workload, timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload {validate,figures,series} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is taken from ``src/`` next to this
directory. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics (see README.md). The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A
result file with the run record goes to ``.perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (after the path insert)
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
DEADLINE_S = 170.0
# The benchmark's own environment: the in-tree package, one BLAS/OpenMP thread.
THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
# The bounded end-to-end metrics. wall_s and error_rate are printed and
# recorded too, but have no bound (README.md says why).
END_TO_END = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def bench_env():
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PINS)


def setup_samples(env):
    """Seconds from starting a fresh interpreter until ``ctqw.cli`` is imported."""
    argv = [sys.executable, "-c", "import os, ctqw.cli; os._exit(0)"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)  # fills __pycache__
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


def high_percentile(values):
    """(p, value) for the highest of p90/p75 with at least ten samples beyond it."""
    for p in (90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def src_digest():
    """sha256 over the package sources; names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ctqw").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not (SRC / "ctqw" / "cli.py").is_file():
        sys.exit(f"perfbench: no ctqw package at {SRC}; run from a full checkout")

    env = bench_env()
    setup = setup_samples(env) if args.trace == 0 else []
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".perfbench" / f"out-{os.getpid()}"
    worker = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out-dir", str(out_dir),
        "--spans", str(results / f"{stem}-spans.json"),
    ]
    try:
        done = subprocess.run(worker, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=DEADLINE_S - (time.perf_counter() - started))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"perfbench: worker exited with {done.returncode}")
    raw = json.loads(done.stdout.strip().splitlines()[-1])

    failed = len(raw["failures"])
    if args.trace == 0:
        values = {
            "cpu_s": statistics.median(raw["cpu_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = END_TO_END
        samples = {"cpu_s": len(raw["cpu_s"]), "setup_s": len(setup), "peak_rss_mb": 1}
    else:
        values = {
            name: statistics.median(sample[name] for sample in raw["layers"])
            for name in raw["layers"][0]
        }
        values["trace.overhead_s"] = (statistics.median(raw["traced_wall_s"])
                                      - statistics.median(raw["wall_s"]))
        units = layers.PER_LAYER
        samples = {name: len(raw["layers"]) for name in units}
        samples["trace.overhead_s"] = len(raw["wall_s"])
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    wall_s = statistics.median(raw["wall_s"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": raw["numpy"],
        "thread_pins": THREAD_PINS,
        "passes": {"warm_up": 1, "untraced": len(raw["wall_s"]),
                   "traced": len(raw["traced_wall_s"])},
        "samples_per_median": samples,
        "high_percentiles": {
            name: high_percentile(raw[name]) for name in ("wall_s", "cpu_s")
        },
        "attempted": raw["attempted"],
        "failed": failed,
        "error_rate": failed / raw["attempted"],
        "failures": raw["failures"][:20],
        "missing_functions": raw["missing"],
        "counter_errors": raw["counter_errors"],
        "metrics": metrics,
        "wall_s": wall_s,
        "samples": {"wall_s": raw["wall_s"], "cpu_s": raw["cpu_s"], "setup_s": setup,
                    "traced_wall_s": raw["traced_wall_s"]},
    }
    result_file = results / f"{stem}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(raw['wall_s'])} untraced, {len(raw['traced_wall_s'])} traced "
          f"(+1 warm-up)")
    for name, m in metrics.items():
        basis = "one process" if name == "peak_rss_mb" else f"median of {samples[name]}"
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}  ({basis})")
    print(f"  {'wall_s':34s} {wall_s:.6g} s  (median of {len(raw['wall_s'])}; not bounded)")
    print(f"  {'error_rate':34s} {record['error_rate']:.6g}  "
          f"({failed} failed of {raw['attempted']} jobs)")
    for failure in raw["failures"][:5]:
        print(f"  FAILED {failure}")
    for name in raw["missing"]:
        print(f"  missing traced function {name}")
    print(f"  run record: {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
