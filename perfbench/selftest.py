"""Tests of the benchmark itself: tracing, output checks and work counts.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the package's test run (the file name does not match
``test_*.py``), as the benchmark is.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from ctqw import analytic, bessel, cli, propagators, tables, validate  # noqa: E402
from ctqw.model import LatticeWindow, WalkParams  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tracer():
    t = layers.Tracer()
    t.install(0)
    yield t
    t.uninstall()


def test_fig5_bessel_rows_traced_through_analytic_binding(tracer, tmp_path):
    assert cli.main(["figure", "fig5", "--out", str(tmp_path / "fig5.csv")]) == 0
    rows = [s for s in tracer.spans if s.function == "bessel_rows"]
    # survival_exact reaches bessel_rows through the name analytic imported
    assert len(rows) == 3
    assert all(s.parent.function == "survival_exact" for s in rows)
    assert all(s.counts["orders"] > 0 for s in rows)


def test_uninstall_restores_every_binding():
    originals = {(m.__name__, n): getattr(m, n) for m, n in (
        (analytic, "bessel_row"), (bessel, "bessel_row"), (cli, "propagate_ode"),
        (validate, "propagate_ode"), (propagators, "propagate_ode"), (cli, "main"))}
    t = layers.Tracer()
    t.install(0)
    assert analytic.bessel_row is not originals[("ctqw.analytic", "bessel_row")]
    assert validate.propagate_ode is not originals[("ctqw.validate", "propagate_ode")]
    t.uninstall()
    for (module, name), fn in originals.items():
        assert getattr(sys.modules[module], name) is fn


def test_missing_function_is_recorded_not_fatal(monkeypatch):
    monkeypatch.setattr(layers, "TRACED", layers.TRACED + (
        ("ctqw.bessel", "bessel_gone", "bessel", None),
        ("ctqw.gone", "anything", "gone", None),
    ))
    t = layers.Tracer()
    t.install(0)
    t.uninstall()
    assert t.missing == ["ctqw.bessel.bessel_gone", "ctqw.gone.anything"]


def _change_one_digit(path, line_no, column, last):
    lines = path.read_text().split("\n")
    cells = lines[line_no].split(",")
    cell = cells[column]
    digits = [k for k, c in enumerate(cell) if c.isdigit()]
    i = digits[-1] if last else digits[0]
    cells[column] = cell[:i] + str((int(cell[i]) + 1) % 10) + cell[i + 1:]
    lines[line_no] = ",".join(cells)
    path.write_text("\n".join(lines))


def test_figure_table_with_one_digit_changed_counts_as_failure(tmp_path):
    jobs = [j for j in workloads.jobs_for("figures", 0, tmp_path) if j.argv[1] == "fig4"]
    wall, _, failures = worker.run_pass(jobs)
    assert failures == [] and wall > 0

    def main_then_corrupt(argv):
        code = cli.main(argv)
        _change_one_digit(tmp_path / "fig4.csv", line_no=5, column=1, last=True)
        return code

    wall, cpu, failures = worker.run_pass(jobs, main_then_corrupt)
    assert len(failures) == 1 and "fig4.csv differs" in failures[0]
    assert wall == 0.0 and cpu == 0.0  # a failed job's time is left out


def test_series_table_with_one_digit_changed_counts_as_failure(tmp_path):
    job = workloads.jobs_for("series", 7, tmp_path)[2]
    assert job.argv[job.argv.index("--source") + 1] == "ode"
    out = job.outputs[0]
    assert worker.run_job(cli.main, job)[2] is None
    _change_one_digit(out, line_no=10, column=2, last=False)
    assert "MSD deviates" in job.check(0, "")


def test_validate_check_needs_every_check_passed():
    n = workloads.VALIDATE_CHECKS
    assert workloads.check_validate(0, f"ok  x\n{n}/{n} checks passed\n") is None
    assert workloads.check_validate(0, f"FAIL x\n{n - 1}/{n} checks passed\n") is not None
    assert workloads.check_validate(3, f"{n}/{n} checks passed\n") is not None


def _top_span(tracer, function):
    return next(s for s in tracer.spans if s.function == function and s.parent is None)


def test_work_counts_match_hand_counts(tracer, tmp_path):
    params = WalkParams(alpha=0.3, delocalization=0.5)
    bessel.bessel_row(2.0, 3)
    bessel.bessel_rows([0.5, 2.0, 1.0], 2)
    analytic.analytic_wavefunction(params, LatticeWindow(10), 0.5)
    propagators.propagate_ode(params, LatticeWindow(41), propagators.OdeSpec(1e-3), 0.0035)
    propagators.propagate_spectral(params, propagators.RingSpec(128), 1.0, LatticeWindow(41))
    tables.emit_table(tmp_path / "t.csv", "csv", ["a", "b"], [(1, 2), (3, 4)])
    results = validate.oracle_triangle(times=(1.0,), d_values=(0.5,), alphas=(0.0,))

    # start order: max(n_max, ceil z) + 15 + ceil(10 (z + 1)^(1/3))
    assert _top_span(tracer, "bessel_row").counts == {"orders": 3 + 15 + 15}
    assert _top_span(tracer, "bessel_rows").counts == {"orders": (2 + 15 + 15) * 3}
    assert _top_span(tracer, "analytic_wavefunction").counts == {"sites": 21}
    # 3 full steps of 1e-3 and one shortened step, on 83 sites
    assert _top_span(tracer, "propagate_ode").counts == {"site_steps": 4 * 83}
    assert _top_span(tracer, "propagate_spectral").counts == {"fft_points": 2 * 128}
    # "a,b\n1,2\n3,4\n"
    assert _top_span(tracer, "emit_table").counts == {"rows": 2, "bytes": 12}
    counts = _top_span(tracer, "oracle_triangle").counts
    assert counts["checks"] == 2
    assert counts["margin"] == max(r.max_deviation / r.tolerance for r in results)
    assert tracer.counter_errors == {}


def test_self_and_busy_time_from_hand_built_spans():
    S = layers.Span
    cli_span = S(0, "cli", "main", None, 0, start=0.0, end=20.0, tare=1.0)
    outer = S(1, "analytic", "analytic_probability", cli_span, 0, start=1.0, end=11.0)
    inner = S(2, "analytic", "analytic_wavefunction", outer, 0, start=2.0, end=10.0,
              counts={"sites": 5}, tare=0.5)
    row = S(3, "bessel", "bessel_row", inner, 0, start=3.0, end=6.0, counts={"orders": 7})
    m = layers.pass_metrics([cli_span, outer, inner, row], pass_wall=20.0)
    assert m["cli.self_s"] == 20.0 - 10.0 - 1.0
    assert m["analytic.calls"] == 1 and m["analytic.busy_s"] == 10.0
    assert m["analytic.self_s"] == (10.0 - 8.0) + (8.0 - 3.0 - 0.5)
    assert m["bessel.busy_s"] == 3.0 and m["bessel.orders"] == 7
    assert m["bessel.ns_per_order"] == 3.0 / 7 * 1e9
    assert m["analytic.sites"] == 5 and m["propagators.ode.calls"] == 0
    assert m["trace.coverage"] == (9.0 + 6.5 + 3.0) / 20.0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
