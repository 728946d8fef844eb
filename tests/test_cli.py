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
        # an abbreviated flag wins as well: the table is the --dparam 0.2 one, bit for bit
        cfg.write_text("dparam = 0.9\ntmax = 1\nnpoints = 2\n")
        abbrev, full, filed = (tmp_path / f"{n}.csv" for n in ("abbrev", "full", "filed"))
        assert run("survival", "--config", str(cfg), "--dpar", "0.2", "--out", str(abbrev)) == 0
        assert run("survival", "--dparam", "0.2", "--tmax", "1", "--npoints", "2",
                   "--out", str(full)) == 0
        assert run("survival", "--config", str(cfg), "--out", str(filed)) == 0
        assert abbrev.read_bytes() == full.read_bytes()
        assert filed.read_bytes() != full.read_bytes()

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

    def test_negative_number_in_exponent_notation(self, tmp_path, capsys):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert run("survival", "--alpha", "-1e-3", *GRID, "--out", str(spaced)) == 0
        assert run("survival", "--alpha=-1e-3", *GRID, "--out", str(joined)) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        assert run("wavefunction", "--alpha", "-2.5E+0", "--tmax", "1") == 0
        assert run("wavefunction", "--alpha", "-inf") == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_argparse_status_is_returned(self, capsys):
        assert run("--version") == 0
        assert run("survival", "--no-such-flag") == 2
        assert run() == 2
        assert capsys.readouterr().out.startswith("ctqw ")

    def test_numerical_failure_exit(self, tmp_path):
        code = run("wavefunction", "--source", "ode", "--half-width", "10",
                   "--tmax", "20", "--out", str(tmp_path / "x.csv"))
        assert code == 3

    def test_io_failure_exit(self, tmp_path):
        code = run("figure", "fig4", "--out", str(tmp_path / "no" / "such" / "dir" / "f.csv"))
        assert code == 1


SOURCES = ("analytic", "spectral", "ode")
GRID = ["--tmax", "1", "--npoints", "2"]

# (config file text or None, argv, expected piece of the error message)
BAD_INPUTS = [
    # config values go through the same types and choices as flags
    ("source = bogus", ["observables", *GRID], "invalid choice: 'bogus'"),
    ("spacing = cubic", ["survival", "--tmin", "1", "--tmax", "2"], "invalid choice: 'cubic'"),
    ("sweep_param = gamma", ["sweep", "--steps", "2"], "invalid choice: 'gamma'"),
    ("figure_id = fig9", ["figure", "fig4"], "unknown key 'figure_id'"),
    ("format = xml", ["survival", *GRID], "invalid choice: 'xml'"),
    ("quick = maybe", ["validate"], "quick must be true or false"),
    ("dparam = nan", ["survival", *GRID], "expected a finite number"),
    # grid and step specs
    (None, ["wavefunction", "--source", "ode", "--tmax", "1", "--step", "0"], "step must be"),
    ("step = 0", ["observables", "--source", "ode", *GRID], "step must be"),
    (None, ["wavefunction", "--tmax", "1", "--half-width", "0"], "half_width must be"),
    ("half_width = 0", ["observables", *GRID], "half_width must be"),
    (None, ["wavefunction", "--source", "spectral", "--tmax", "1", "--ring-size", "2"],
     "ring size must be"),
    ("ring_size = 2", ["observables", "--source", "spectral", *GRID], "ring size must be"),
    # negative times, for every source
    (None, ["survival", "--tmin", "-1", *GRID], "tmin must be >= 0"),
    ("tmin = -1", ["survival", *GRID], "tmin must be >= 0"),
    *[(None, ["observables", "--source", s, "--tmin", "-1", *GRID], "tmin must be >= 0")
      for s in SOURCES],
    *[(None, ["wavefunction", "--source", s, "--tmax", "-1"], "tmax must be >= 0")
      for s in SOURCES],
    ("tmax = -1", ["wavefunction", "--source", "spectral"], "tmax must be >= 0"),
    # sizes past MAX_SITES are refused before anything is allocated or looped over
    (None, ["survival", "--tmax", "1e308", "--npoints", "2"], "half width of 2E+308 sites"),
    (None, ["survival", "--tmax", "1e9", "--npoints", "2"], "half width of 2E+9 sites"),
    (None, ["wavefunction", "--tmax", "1e300"], "half width of 2E+300 sites"),
    (None, ["wavefunction", "--tmax", "1e7"], "half width of 2E+7 sites"),
    (None, ["wavefunction", "--gamma", "1e300", "--tmax", "1e300"], "2E+600 sites"),
    (None, ["wavefunction", "--tmax", "499800"], "half width of 1000200 sites"),
    *[(None, ["observables", "--source", s, "--tmax", "1e9"], "over the limit of 1000000")
      for s in SOURCES],
    ("tmax = 1e9", ["observables", "--source", "ode"], "over the limit of 1000000"),
    (None, ["validate", "--gamma", "1e5"], "t=50 at gamma=100000"),
    (None, ["observables", "--half-width", "1000001", *GRID], "--half-width asks for 1000001"),
    ("ring_size = 4194304", ["observables", "--source", "spectral", *GRID],
     "--ring-size asks for 4194304 sites, over the limit of 1000000"),
    # the (times x sites) matrix is sized before the grid or any matrix is allocated
    (None, ["observables", "--tmax", "400000", "--npoints", "2000"],
     "2000 times x 1601115 sites need 3202230000 amplitudes"),
    (None, ["observables", "--npoints", "10000000", "--tmax", "1"],
     "10000000 times x 85 sites need 850000000 amplitudes (12.7 GiB), over the limit of 33554432"),
    # sweep's MSD column must be a finite double
    (None, ["sweep", "--tmax", "1e200", "--steps", "2"], "MSD at tmax=1e+200 overflows a double"),
    (None, ["sweep", "--gamma", "1e200", "--steps", "2"], "overflows a double, gamma=1e+200"),
    (None, ["sweep", "--gamma", "1.3e154", "--tmax", "1", "--steps", "2"], "overflows a double"),
    (None, ["sweep", "--gamma", "1.3e154", "--tmax", "0", "--steps", "2"], "overflows a double"),
]


@pytest.mark.parametrize(
    "config, argv, message", BAD_INPUTS,
    ids=[f"{a[0]}-" + (c or " ".join(a[1:])).replace(" = ", "=").replace(" ", "_")
         for c, a, _ in BAD_INPUTS],
)
def test_bad_input_exits_2(tmp_path, capsys, config, argv, message):
    if argv[0] == "figure":
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        argv = argv + ["--config", str(tmp_path / "run.cfg")]
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert message in captured.err
    assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if config else [])


@pytest.mark.parametrize("argv", [
    ["observables", "--source", "spectral", "--half-width", "5", "--tmax", "20", "--npoints", "3"],
    ["wavefunction", "--source", "spectral", "--half-width", "5", "--tmax", "20"],
])
def test_spectral_window_is_checked(capsys, argv):
    assert run(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "window half_width=5 leaks norm" in captured.err
    assert captured.err.rstrip().endswith("at t=20.0" if argv[0] == "wavefunction" else "at t=10.0")


def test_validate_quick():
    assert run("validate", "--quick") == 0


def test_validate_quick_from_config(tmp_path, capsys):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("quick = true\n")
    assert run("validate", "--config", str(cfg)) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "64/64 checks passed"
