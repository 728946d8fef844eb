import json
import math

import pytest

from ctqw.cli import main
from ctqw.tables import read_csv

PI = math.pi


def run(*argv):
    return main(list(argv))


class TestWavefunction:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "wf.csv"
        assert run("wavefunction", "--dparam", "0", "--tmax", "1", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header == ["x", "prob", "re_psi", "im_psi"]
        probs = {int(r[0]): r[1] for r in rows}
        assert probs[0] == pytest.approx(0.050127080984469566, abs=1e-13)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_stdout_fallback(self, capsys):
        assert run("wavefunction", "--tmax", "0.5") == 0
        out = capsys.readouterr().out
        assert out.startswith("x,prob,re_psi,im_psi\n")

    def test_sources_agree(self, tmp_path):
        paths = {}
        for source in ("analytic", "spectral", "ode"):
            p = tmp_path / f"{source}.csv"
            assert run(
                "wavefunction", "--dparam", "0.5", "--alpha", str(PI / 4),
                "--tmax", "3", "--source", source, "--out", str(p),
            ) == 0
            paths[source] = dict((int(r[0]), r[1]) for r in read_csv(p)[1])
        for x, p in paths["analytic"].items():
            assert paths["spectral"][x] == pytest.approx(p, abs=1e-10)
            assert paths["ode"][x] == pytest.approx(p, abs=1e-8)


class TestObservables:
    def test_header_and_initial_row(self, tmp_path):
        out = tmp_path / "obs.csv"
        assert run(
            "observables", "--dparam", "0.5", "--alpha", "1.0",
            "--tmax", "2", "--npoints", "5", "--out", str(out),
        ) == 0
        header, rows = read_csv(out)
        assert header == ["t", "mean_x", "msd", "survival"]
        t0 = rows[0]
        assert t0[0] == 0.0
        assert t0[1] == pytest.approx(0.0, abs=1e-12)
        assert t0[2] == pytest.approx(0.5, abs=1e-12)
        assert t0[3] == pytest.approx(1.0, abs=1e-12)

    def test_ode_source(self, tmp_path):
        out = tmp_path / "obs_ode.csv"
        assert run(
            "observables", "--dparam", "0.5", "--alpha", str(PI / 4), "--source", "ode",
            "--tmin", "0", "--tmax", "2", "--npoints", "3", "--out", str(out),
        ) == 0
        _, rows = read_csv(out)
        assert rows[-1][2] == pytest.approx(0.5 + 2 * 4 * 1.0, rel=1e-6)  # MSD closed form


class TestSurvival:
    def test_value_at_gt1(self, tmp_path):
        out = tmp_path / "surv.csv"
        assert run(
            "survival", "--dparam", "1", "--alpha", str(PI / 2),
            "--tmin", "0", "--tmax", "1", "--npoints", "2", "--out", str(out),
        ) == 0
        header, rows = read_csv(out)
        assert header == ["t", "P_surv"]
        assert rows[0][1] == 1.0
        assert rows[1][1] == pytest.approx(0.33261150388220256, abs=1e-13)

    def test_log_grid_requires_positive_tmin(self):
        assert run("survival", "--spacing", "log", "--tmin", "0", "--tmax", "10") == 2


class TestSweep:
    def test_dparam_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(
            "sweep", "--sweep-param", "dparam", "--alpha", str(PI / 2),
            "--steps", "3", "--tmax", "1", "--out", str(out),
        ) == 0
        header, rows = read_csv(out)
        assert header == ["dparam", "mean_velocity", "crossing_time", "msd_tmax"]
        assert rows[0][1] == 0.0 and rows[2][1] == 0.0
        assert rows[1][1] == pytest.approx(-math.sqrt(2), abs=1e-12)
        assert all(math.isinf(r[2]) for r in rows)  # alpha = pi/2: no crossing


class TestFigures:
    def test_fig4_values_and_sentinel(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert run("figure", "fig4", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header == ["alpha", "t_cross"]
        assert len(rows) == 201
        assert rows[0] == [0.0, 1.0]
        assert math.isinf(rows[50][1])  # alpha = pi/4
        assert "inf" in out.read_text()

    def test_fig1_panels(self, tmp_path):
        assert run("figure", "fig1", "--out", str(tmp_path / "fig1.csv")) == 0
        for tag in ("d0", "d05", "d1"):
            header, rows = read_csv(tmp_path / f"fig1_{tag}.csv")
            assert header == ["x", "prob", "re_psi", "im_psi"]
            assert sum(r[1] for r in rows) == pytest.approx(1.0, abs=1e-11)

    def test_fig5_panels(self, tmp_path):
        assert run("figure", "fig5", "--out", str(tmp_path / "fig5.csv")) == 0
        header, rows = read_csv(tmp_path / "fig5_d1.csv")
        assert header == ["t", "P_surv_exact", "P_asymptotic"]
        assert rows[0][0] == pytest.approx(0.1)
        assert rows[-1][0] == pytest.approx(500.0)

    def test_fig2_and_fig3(self, tmp_path):
        assert run("figure", "fig2", "--out", str(tmp_path / "fig2.csv")) == 0
        _, rows = read_csv(tmp_path / "fig2.csv")
        by_d = {r[0]: r for r in rows}
        assert by_d[0.0][1:] == [0.0, 0.0, 0.0, 0.0]
        assert by_d[0.5][4] == pytest.approx(math.sqrt(2), abs=1e-12)
        assert run("figure", "fig3", "--out", str(tmp_path / "fig3.csv")) == 0
        header, rows = read_csv(tmp_path / "fig3.csv")
        assert len(header) == 7

    def test_figure_requires_out(self):
        assert run("figure", "fig4") == 2

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("figure", "fig4", "--out", str(a)) == 0
        assert run("figure", "fig4", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFormats:
    def test_csv_round_trip_exact(self, tmp_path):
        out = tmp_path / "surv.csv"
        run("survival", "--dparam", "0.3", "--alpha", "0.77",
            "--tmin", "0.1", "--tmax", "333", "--npoints", "40",
            "--spacing", "log", "--out", str(out))
        import numpy as np

        from ctqw import WalkParams, survival_exact

        _, rows = read_csv(out)
        ts = np.geomspace(0.1, 333, 40)
        curve = survival_exact(WalkParams(alpha=0.77, delocalization=0.3), ts)
        for row, t, v in zip(rows, ts, curve.values):
            assert row[0] == t  # bitwise round trip
            assert row[1] == v

    def test_json_on_stdout(self, capsys):
        assert run("survival", "--format", "json", "--tmax", "1", "--npoints", "2") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"] == ["t", "P_surv"]
        assert doc["rows"][0] == [0.0, 1.0]

    def test_json_output(self, tmp_path):
        out = tmp_path / "fig4.json"
        assert run("figure", "fig4", "--format", "json", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["alpha", "t_cross"]
        assert doc["rows"][0] == [0.0, 1.0]
        assert doc["rows"][50][1] == "inf"


class TestConfigAndExitCodes:
    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dparam = 1\nalpha = 1.5707963267948966\n# comment\ntmax = 1\nnpoints = 2\n")
        out = tmp_path / "surv.csv"
        assert run("survival", "--config", str(cfg), "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert rows[1][1] == pytest.approx(0.33261150388220256, abs=1e-13)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dparam = 1\ntmax = 1\nnpoints = 2\n")
        out = tmp_path / "surv.csv"
        assert run("survival", "--config", str(cfg), "--dparam", "0", "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert rows[1][1] == pytest.approx(0.7153500887488747, abs=1e-13)

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 3\n")
        assert run("survival", "--config", str(cfg)) == 2

    def test_config_error_exit(self):
        assert run("observables", "--npoints", "1") == 2
        assert run("observables", "--dparam", "1.5") == 2

    def test_non_finite_inputs_exit_2(self, capsys):
        assert run("survival", "--tmax", "nan") == 2
        assert run("wavefunction", "--alpha", "inf") == 2
        assert run("wavefunction", "--tmax", "inf") == 2
        assert run("sweep", "--start", "nan") == 2
        assert run("validate", "--gamma", "inf") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err

    def test_numerical_failure_exit(self, tmp_path):
        code = run("wavefunction", "--source", "ode", "--half-width", "10",
                   "--tmax", "20", "--out", str(tmp_path / "x.csv"))
        assert code == 3

    def test_io_failure_exit(self, tmp_path):
        code = run("figure", "fig4", "--out", str(tmp_path / "no" / "such" / "dir" / "f.csv"))
        assert code == 1


def test_validate_quick():
    assert run("validate", "--quick") == 0
