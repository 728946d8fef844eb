"""The benchmark's workloads: CLI jobs built from the seed, and their output checks.

A job is one ``ctqw.cli.main(argv)`` call. Its check returns None when the
output is right and a one-line reason otherwise.
"""

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

WORKLOADS = ("validate", "figures", "series")
HERE = Path(__file__).resolve().parent
FIGURE_DIGESTS = HERE / "figures.sha256"
FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5")

# Closed-form laws hold to ~6e-12 (drift) and ~1.2e-13 relative (MSD) on
# all three sources; the tolerances leave room for rounding, not for defects.
DRIFT_TOL = 1e-9
MSD_RTOL = 1e-11


@dataclass
class Job:
    argv: List[str]
    # files the job writes; removed before each run so a stale file cannot pass
    outputs: List[Path]
    check: Callable[[int, str], Optional[str]]  # (exit code, stdout) -> failure


def _expect_exit_zero(code):
    return None if code == 0 else f"exit code {code}"


# validate --quick: 16 (D, alpha) points x 2 times x 2 oracles (spectral, RK4)
VALIDATE_CHECKS = 64


def check_validate(code, stdout):
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if code != 0 or last != f"{VALIDATE_CHECKS}/{VALIDATE_CHECKS} checks passed":
        return f"exit code {code}, last line {last!r}"
    return None


def figure_digests():
    """File name -> sha256 of the figure tables at the seed commit."""
    digests = {}
    for line in FIGURE_DIGESTS.read_text().splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests


def check_figure_files(paths, digests):
    for path in paths:
        if not path.is_file():
            return f"{path.name} missing"
        if hashlib.sha256(path.read_bytes()).hexdigest() != digests[path.name]:
            return f"{path.name} differs from its recorded digest"
    return None


def _figure_job(figure_id, out_dir, digests):
    names = sorted(n for n in digests if n.split(".")[0].split("_")[0] == figure_id)
    outputs = [out_dir / n for n in names]

    def check(code, stdout):
        return _expect_exit_zero(code) or check_figure_files(outputs, digests)

    return Job(["figure", figure_id, "--out", str(out_dir / f"{figure_id}.csv")], outputs, check)


def series_params(seed):
    """(D, alpha) of the series workload, drawn from the seed."""
    rng = random.Random(seed)
    return rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi)


def read_table(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])


def check_series_table(path, d, alpha, tmax, npoints, gamma=1.0):
    """Check an ``observables`` table against the closed-form drift and MSD.

    The laws are written out here, not taken from ``ctqw``, so a defect in
    the package's own closed forms cannot hide itself.
    """
    if not Path(path).is_file():
        return f"{Path(path).name} missing"
    header, rows = read_table(path)
    if header != ["t", "mean_x", "msd", "survival"] or rows.shape != (npoints, 4):
        return f"{Path(path).name}: header {header}, shape {rows.shape}"
    t, mean_x, msd, survival = rows.T
    if not np.array_equal(t, np.linspace(0.0, tmax, npoints)):
        return f"{Path(path).name}: time column is not the requested grid"
    velocity = -2.0 * gamma * math.sin(alpha) * math.sqrt(2.0 * d * (1.0 - d))
    drift_dev = float(np.max(np.abs(mean_x - velocity * t)))
    if not drift_dev <= DRIFT_TOL:
        return f"{Path(path).name}: drift deviates by {drift_dev:.3e}"
    msd_law = d + 2.0 * gamma**2 * t**2 * (1.0 - d / 2.0 + d * math.sin(alpha) ** 2)
    msd_dev = float(np.max(np.abs(msd - msd_law) / np.maximum(1.0, msd_law)))
    if not msd_dev <= MSD_RTOL:
        return f"{Path(path).name}: MSD deviates by {msd_dev:.3e} relative"
    if not np.all((survival >= 0.0) & (survival <= 1.0 + 1e-12)):
        return f"{Path(path).name}: survival outside [0, 1]"
    return None


def _series_job(source, tmax, npoints, d, alpha, out_dir):
    out = out_dir / f"series_{source}.csv"
    argv = [
        "observables", "--dparam", repr(d), "--alpha", repr(alpha), "--source", source,
        "--tmax", repr(tmax), "--npoints", str(npoints), "--out", str(out),
    ]

    def check(code, stdout):
        return _expect_exit_zero(code) or check_series_table(out, d, alpha, tmax, npoints)

    return Job(argv, [out], check)


def jobs_for(workload, seed, out_dir):
    """The jobs of one pass of ``workload``; only ``series`` depends on the seed."""
    out_dir = Path(out_dir)
    if workload == "validate":
        return [Job(["validate", "--quick"], [], check_validate)]
    if workload == "figures":
        digests = figure_digests()
        return [_figure_job(f, out_dir, digests) for f in FIGURE_IDS]
    if workload == "series":
        d, alpha = series_params(seed)
        return [
            _series_job("analytic", 500.0, 201, d, alpha, out_dir),
            _series_job("spectral", 500.0, 201, d, alpha, out_dir),
            _series_job("ode", 10.0, 21, d, alpha, out_dir),
        ]
    raise ValueError(f"unknown workload {workload!r}")

