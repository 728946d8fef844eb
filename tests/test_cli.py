import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from ctqw import (
    LatticeWindow,
    NumericalValidationError,
    OdeSpec,
    RingSpec,
    UndersizedGridError,
    WalkParams,
    bessel,
    cli,
    observables_from_amplitudes,
    tables,
    validate,
)
from ctqw.cli import build_parser, main, plan
from oracles import analytic_amplitudes, ode_amplitudes, spectral_amplitudes
from readback import read_csv

PI = math.pi


def run(*argv):
    return main(list(argv))


@pytest.fixture
def miller_calls(monkeypatch):
    """The argument count of each Miller recurrence run while the test runs."""
    calls = []
    miller = bessel._miller

    def counted(z, n_max, shared_start):
        calls.append(np.size(z))
        return miller(z, n_max, shared_start)

    monkeypatch.setattr(bessel, "_miller", counted)
    return calls


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

    @pytest.mark.parametrize("config, argv, param", [
        (None, ["--sweep-param", "alpha", "--alpha", "0.3"], "alpha"),
        (None, ["--dparam", "0.7"], "dparam"),  # a dparam sweep by default
        (None, ["--sweep-param", "dparam", "--dparam", "0"], "dparam"),  # 0 is not the default
        ("alpha = 0", ["--sweep-param", "alpha"], "alpha"),
        ("sweep_param = alpha", ["--alpha", "1"], "alpha"),
    ])
    def test_swept_parameter_flag_is_refused(self, tmp_path, capsys, config, argv, param):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config + "\n")
            argv = argv + ["--config", str(tmp_path / "run.cfg")]
        assert run("sweep", "--steps", "3", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"ctqw: config error: --{param} would be ignored: "
                                f"--sweep-param {param} sweeps it from --start to --stop\n")

    def test_unswept_parameter_flag_is_read(self, capsys):
        assert run("sweep", "--steps", "3") == 0
        default = capsys.readouterr().out
        assert run("sweep", "--steps", "3", "--alpha", "0") == 0
        assert capsys.readouterr().out == default
        assert run("sweep", "--steps", "3", "--alpha", "1") == 0
        assert capsys.readouterr().out != default


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

    @pytest.mark.parametrize("figure_id, columns", [("fig1", 1), ("fig5", 200)])
    def test_one_miller_pass_per_run(self, tmp_path, miller_calls, figure_id, columns):
        # every D panel shares gamma and the time grid, so one Bessel matrix
        # serves all three; a second main call computes it again
        for _ in range(2):
            assert run("figure", figure_id, "--out", str(tmp_path / "f.csv")) == 0
        assert miller_calls == [columns, columns]

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
        for row, t, v in zip(rows, ts, curve):
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
    # each figure fixes its own walks, so it takes no walk flag or key
    *[(None, ["figure", "fig4", flag, "2"], f"unrecognized arguments: {flag} 2")
      for flag in ("--gamma", "--alpha", "--dparam")],
    ("gamma = 2", ["figure", "fig4"], "unknown key 'gamma'"),
    # an override sizes one source; another source would ignore it
    (None, ["wavefunction", "--step", "0.01", "--tmax", "1"],
     "--step sizes --source ode only, not analytic"),
    ("step = 0.01", ["observables", "--source", "spectral", *GRID],
     "--step sizes --source ode only, not spectral"),
    (None, ["observables", "--ring-size", "64", *GRID],
     "--ring-size sizes --source spectral only, not analytic"),
    ("ring_size = 64", ["wavefunction", "--source", "ode", "--tmax", "1"],
     "--ring-size sizes --source spectral only, not ode"),
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
     "10000000 times x 85 sites need 850000000 amplitudes, over the limit of 33554432"),
    (None, ["observables", "--source", "spectral", "--tmax", "100000", "--npoints", "100000"],
     "100000 times x 400703 sites need 40070300000 amplitudes"),
    # RK4 site-steps are counted in floats before the integrator starts
    (None, ["observables", "--source", "ode", "--step", "1e-300", *GRID],
     "needs 8.5e+301 site-steps, over the limit of 1e+09"),
    (None, ["wavefunction", "--source", "ode", "--step", "1e-9", "--tmax", "1"],
     "RK4 to t=1 at step 1e-09 on 85 sites needs 8.5e+10 site-steps"),
    (None, ["observables", "--source", "ode", "--tmax", "100000", "--npoints", "2"],
     "needs 4.01e+13 site-steps, over the limit of 1e+09"),
    (None, ["observables", "--source", "ode", "--step", "5e-324", *GRID], "needs inf site-steps"),
    # validate counts RK4 site-steps for every grid row on the outer window
    (None, ["validate", "--gamma", "1000"],
     "RK4 to t=50 at step 1e-06 on 200559 sites x 16 rows needs 1.6e+14 site-steps"),
    # survival's time grid is sized before it is allocated
    (None, ["survival", "--npoints", "100000000", "--tmax", "10"],
     "--npoints asks for 100000000 rows, over the limit of 1000000"),
    # sweep's MSD column must be a finite double
    (None, ["sweep", "--tmax", "1e200", "--steps", "2"], "MSD at tmax=1e+200 overflows a double"),
    (None, ["sweep", "--gamma", "1e200", "--steps", "2"], "overflows a double, gamma=1e+200"),
    (None, ["sweep", "--gamma", "1.3e154", "--tmax", "1", "--steps", "2"], "overflows a double"),
    (None, ["sweep", "--gamma", "1.3e154", "--tmax", "0", "--steps", "2"], "overflows a double"),
    (None, ["sweep", "--sweep-param", "alpha", "--start", "-1e308", "--stop", "1e308"],
     "sweep from -1e+308 to 1e+308 overflows a double"),
    # a dparam sweep's values are delocalizations, refused before any row is written
    (None, ["sweep", "--start", "-0.5", "--steps", "3"], "delocalization must be in [0, 1]"),
    # a phase whose products with the sites or with 2 overflow gave nan tables or tracebacks
    (None, ["observables", "--alpha", "1e308", *GRID], "alpha must be finite and within +-1e+300"),
    (None, ["survival", "--alpha", "-1e308", *GRID], "alpha must be finite and within +-1e+300"),
    # sweep rows are counted before the sweep grid is allocated
    (None, ["sweep", "--steps", "100000000"],
     "--steps asks for 100000000 rows, over the limit of 1000000"),
    # work no single size flag shows: the Bessel start order follows gamma*t,
    # not the window, and FFT work follows the ring times the times
    (None, ["survival", "--tmax", "400000", "--npoints", "100000"],
     "Bessel order 800944 over 100000 times needs 80094400000 order-columns, "
     "over the limit of 1000000000"),
    (None, ["observables", "--half-width", "1", "--tmax", "400000", "--npoints", "1000000"],
     "needs 800944000000 order-columns, over the limit of 1000000000"),
    (None, ["observables", "--source", "spectral", "--ring-size", "1000000", "--half-width", "50",
            "--tmax", "1", "--npoints", "300000"],
     "300000 times on a ring of 1000000 sites need 300001000000 FFT points, "
     "over the limit of 300000000"),
    (None, ["validate", "--gamma", "6"],
     "on 1303 sites x 16 rows needs 6.25e+09 site-steps, over the limit of 1e+09"),
    # on a small window the fixed cost of each RK4 step rules
    (None, ["observables", "--source", "ode", "--step", "1e-7", *GRID],
     "RK4 to t=1 at step 1e-07 needs 1e+07 steps, over the limit of 1e+06"),
    # emitting a table row costs microseconds, whatever the window
    (None, ["observables", "--half-width", "1", "--tmax", "1e-6", "--npoints", "2000000"],
     "--npoints asks for 2000000 rows, over the limit of 1000000"),
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


def test_figure_without_out_is_refused_before_any_figure_is_built(tmp_path, monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "FIGURES", {"fig1": lambda: built.append("fig1") or iter(())})
    monkeypatch.chdir(tmp_path)
    assert run("figure", "fig1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "figure requires --out" in captured.err
    assert built == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["figure", "fig1", "--out", "."],
    ["figure", "fig1", "--out", ""],
    ["figure", "fig5", "--out", "/"],
], ids=" ".join)
def test_figure_out_without_a_file_name_is_refused(tmp_path, monkeypatch, capsys, argv):
    # panel names derive from the file name of --out; these have none
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "figure requires --out naming a file" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["foo/", "foo/.", "..", "foo/.."])
@pytest.mark.parametrize("figure_id", ["fig1", "fig2", "fig5"])
def test_figure_out_naming_a_directory_is_an_io_error(tmp_path, monkeypatch, capsys,
                                                      figure_id, out):
    # pathlib reads "foo/" and "foo/." as "foo", so tagged panels went beside the
    # directory; they are refused as open refuses fig2's one untagged table
    work = tmp_path / "work"
    (work / "foo").mkdir(parents=True)
    monkeypatch.chdir(work)
    assert run("figure", figure_id, "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "i/o error" in captured.err and repr(out) in captured.err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_a_config_run_leaves_the_next_run_its_own_defaults(tmp_path, capsys):
    # one parser serves every main call in a process; a config file's values
    # must not stick to it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 2\nalpha = 1\ndparam = 0.5\n")
    plain = ["survival", "--tmax", "1", "--npoints", "3"]
    assert run(*plain) == 0
    before = capsys.readouterr().out
    assert run(*plain, "--config", str(cfg)) == 0
    assert capsys.readouterr().out != before
    assert run(*plain) == 0
    assert capsys.readouterr().out == before
    args = build_parser().parse_args(["survival"])
    assert (args.config, args.gamma, args.alpha, args.dparam) == (None, 1.0, 0.0, 0.0)
    assert build_parser() is build_parser()


# The benchmark's jobs, written out here: a limit tightened below one of them
# fails this test rather than the benchmark.
BENCHMARK_JOBS = [
    ["validate", "--quick"],
    ["validate"],
    *[["figure", f"fig{n}", "--out", "fig.csv"] for n in range(1, 6)],
    *[["observables", "--dparam", "0.3", "--alpha", "1.2", "--source", source,
       "--tmax", tmax, "--npoints", npoints, "--out", "series.csv"]
      for source, tmax, npoints in (("analytic", "500.0", "201"), ("spectral", "500.0", "201"),
                                    ("ode", "10.0", "21"))],
]


@pytest.mark.parametrize("argv", BENCHMARK_JOBS, ids=" ".join)
def test_benchmark_jobs_are_within_budget(argv):
    counts = plan(build_parser().parse_args(argv)).counts  # counts only; nothing runs
    if argv == ["validate"]:
        # 50000 steps of 1e-3 to t=50, on 281 sites, for 16 grid points
        assert counts["site-steps"] == 50000 * 281 * 16


def test_validate_runs_the_rk4_pass_its_plan_counted(monkeypatch):
    plans, triangles, passes = [], [], []
    real_plan, real_blocks = cli.plan, validate.propagate_ode_blocks
    real_triangle = validate.triangle_plan

    def spy_plan(args):
        plans.append(real_plan(args))
        return plans[-1]

    def spy_triangle(*args, **kwargs):
        triangles.append(args)
        return real_triangle(*args, **kwargs)

    def spy_blocks(points, window, ode, times, block):
        passes.append((len(points), window, ode))
        return real_blocks(points, window, ode, times, block)

    monkeypatch.setattr(cli, "plan", spy_plan)
    monkeypatch.setattr(cli, "triangle_plan", spy_triangle)
    monkeypatch.setattr(validate, "triangle_plan", spy_triangle)
    monkeypatch.setattr(validate, "propagate_ode_blocks", spy_blocks)
    assert run("validate", "--quick") == 0
    (counted,), ((rows, window, ode),) = plans, passes  # one plan, one RK4 pass
    assert triangles == [((1.0, 5.0),)]  # plan's; oracle_triangle runs it and makes none
    assert (rows, window, ode) == (len(counted.points), counted.window, counted.ode)
    assert (rows, window.n_sites, ode.step) == (16, 2 * 50 + 1, 1e-3)
    # 5000 steps of 1e-3 to gt=5, the latest quick time
    assert counted.counts == {"sites": 50, "site-steps": 5000 * window.n_sites * rows,
                              "steps": 5000}


def test_validate_makes_one_spectral_call_per_time(monkeypatch):
    calls, real_blocks = [], validate.spectral_blocks

    def spy_blocks(points, ring, window, times, block):
        calls.append((len(points), list(times)))
        return real_blocks(points, ring, window, times, block)

    monkeypatch.setattr(validate, "spectral_blocks", spy_blocks)
    assert run("validate", "--quick") == 0
    assert calls == [(16, [1.0]), (16, [5.0])]  # all 16 points at once, per quick time


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


def test_default_ring_holds_a_half_width_wider_than_the_light_cone(tmp_path):
    # t=5 needs a ring of 2*50+3 sites; the 201-site window needs the next power of two
    argv = ["wavefunction", "--tmax", "5", "--half-width", "100"]
    run_plan = plan(build_parser().parse_args([*argv, "--source", "spectral"]))
    assert run_plan.ring.size == 256
    assert run_plan.counts["FFT points"] == 256 * 2  # counted on that ring
    tables = {}
    for source in SOURCES:
        out = tmp_path / f"{source}.csv"
        assert run(*argv, "--source", source, "--out", str(out)) == 0
        tables[source] = np.array(read_csv(out)[1])
    for source in ("spectral", "ode"):
        assert np.array_equal(tables[source][:, 0], np.arange(-100, 101))
        assert np.abs(tables[source] - tables["analytic"]).max() < 1e-10, source


def test_spectral_table_at_a_large_phase_matches_the_closed_form(tmp_path):
    argv = ["observables", "--alpha", "1e17", "--dparam", "0.5", "--tmax", "2", "--npoints", "3"]
    tables = {}
    for source in ("analytic", "spectral"):
        out = tmp_path / f"{source}.csv"
        assert run(*argv, "--source", source, "--out", str(out)) == 0
        tables[source] = np.array(read_csv(out)[1])
    assert tables["analytic"][-1, 2] == pytest.approx(7.363, abs=1e-3)  # the MSD at t=2
    assert np.abs(tables["spectral"] - tables["analytic"]).max() < 1e-10


def test_validate_quick(miller_calls):
    assert run("validate", "--quick") == 0
    # one closed-form pass per time (gt = 1, 5) serves all 16 grid points
    assert len(miller_calls) == 2


def test_validate_quick_from_config(tmp_path, capsys):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("quick = true\n")
    assert run("validate", "--config", str(cfg)) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "64/64 checks passed"


# observables in blocks of BLOCK_ROWS times: the window admits ode at gamma*t = 2
BLOCK_ROWS = 3
BLOCK_PARAMS = WalkParams(alpha=0.7, delocalization=0.3)


def _whole_matrix(source, window, times, step=1e-3):
    """The route's whole (times x sites) matrix, in one block."""
    if source == "analytic":
        return analytic_amplitudes(BLOCK_PARAMS, window, times)
    if source == "spectral":
        return spectral_amplitudes(BLOCK_PARAMS, RingSpec.for_run(BLOCK_PARAMS, 2.0), window, times)
    return ode_amplitudes(BLOCK_PARAMS, window, OdeSpec(step), times)


def _observables_argv(source, half_width, npoints, *flags):
    return ["observables", "--source", source, "--alpha", "0.7", "--dparam", "0.3",
            "--tmax", "2", "--npoints", str(npoints), "--half-width", str(half_width), *flags]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("spacing", ["lin", "log"])
@pytest.mark.parametrize("npoints", [3 * BLOCK_ROWS - 1, 3 * BLOCK_ROWS, 3 * BLOCK_ROWS + 1])
@pytest.mark.parametrize("source", ["analytic", "spectral", "ode"])
def test_observables_in_blocks_equal_the_whole_matrix(tmp_path, monkeypatch, source, npoints,
                                                      spacing, fmt):
    window = LatticeWindow(45)
    monkeypatch.setattr(cli, "BLOCK_AMPLITUDES", BLOCK_ROWS * window.n_sites + 5)
    reduced, real = [], cli.observables_from_amplitudes
    monkeypatch.setattr(cli, "observables_from_amplitudes",
                        lambda w, amps: reduced.append(len(amps)) or real(w, amps))
    out = tmp_path / f"obs.{fmt}"
    tmin = 0.02 if spacing == "log" else 0.0
    argv = _observables_argv(source, 45, npoints, "--tmin", repr(tmin), "--spacing", spacing,
                             "--format", fmt, "--out", str(out))
    assert run(*argv) == 0
    # one reduction per block, in time order: full blocks, then the rest
    assert reduced == [BLOCK_ROWS] * (npoints // BLOCK_ROWS) + [npoints % BLOCK_ROWS] * (
        npoints % BLOCK_ROWS > 0)
    times = (np.geomspace if spacing == "log" else np.linspace)(tmin, 2.0, npoints)
    whole = observables_from_amplitudes(window, _whole_matrix(source, window, times))
    expected = io.StringIO()
    tables.WRITERS[fmt](expected, ["t", "mean_x", "msd", "survival"],
                        np.column_stack((times, *whole)))
    assert out.read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("source, half_width, flags, error", [
    ("analytic", 6, [], UndersizedGridError),
    ("spectral", 6, [], UndersizedGridError),
    ("ode", 45, ["--step", "0.02"], NumericalValidationError),  # RK4's norm drifts past 1e-9
])
def test_a_leak_in_a_later_block_names_the_first_leaking_time(tmp_path, monkeypatch, capsys,
                                                              source, half_width, flags, error):
    window, times = LatticeWindow(half_width), np.linspace(0.0, 2.0, 10)
    step = float(flags[1]) if flags else 1e-3
    monkeypatch.setattr(cli, "BLOCK_AMPLITUDES", BLOCK_ROWS * window.n_sites)
    with pytest.raises(error) as whole:
        _whole_matrix(source, window, times, step)

    def leaks(n):
        try:
            _whole_matrix(source, window, times[:n], step)
        except error:
            return True
        return False

    first = min(n for n in range(1, times.size + 1) if leaks(n)) - 1
    assert first >= BLOCK_ROWS  # past the first block
    monkeypatch.chdir(tmp_path)
    assert run(*_observables_argv(source, half_width, times.size, *flags, "--out", "o.csv")) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # the whole matrix's error, so the same first leaking time
    assert captured.err == f"ctqw: numerical validation failure: {whole.value}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source, flags, share", [
    ("analytic", [], 2),  # the Miller rows, (half width + 2) x times, remain
    ("spectral", ["--ring-size", "2048"], 8),
    ("ode", [], 8),
])
def test_observables_memory_is_bounded_by_its_blocks(tmp_path, source, flags, share):
    argv = ["observables", "--source", source, "--tmax", "0.5", "--npoints", "1100",
            "--half-width", "1000", *flags, "--out", str(tmp_path / "o.csv")]
    counted = plan(build_parser().parse_args(argv))
    matrix = 16 * counted.counts["amplitudes"]  # bytes of the whole complex matrix
    assert matrix >= 32 * 2**20
    assert _traced_peak(argv) < matrix / share


def _traced_peak(argv):
    """The peak of the memory traced while main runs argv; numpy reports its buffers."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv", [
    ["survival", "--tmax", "5", "--npoints", "200000"],
    ["observables", "--half-width", "1", "--tmax", "1e-6", "--npoints", "30000"],
], ids=["survival", "observables"])
def test_json_tables_peak_no_higher_than_csv(tmp_path, argv):
    # both writers stream the table's one float64 array; neither builds a document of it
    peaks = {fmt: _traced_peak(argv + ["--format", fmt, "--out", str(tmp_path / f"t.{fmt}")])
             for fmt in ("csv", "json")}
    assert peaks["json"] <= 1.25 * peaks["csv"]


def test_sweep_memory_is_about_100_bytes_a_row(tmp_path):
    steps = 30_000  # its float64 array takes 32 bytes a row
    peak = _traced_peak(["sweep", "--steps", str(steps), "--out", str(tmp_path / "s.csv")])
    assert peak <= 100 * steps
