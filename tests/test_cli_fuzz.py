"""Fuzz the CLI's exit-code contract: 0 ok, 1 I/O, 2 config, 3 numerical;
and the values of the tables it writes with exit code 0.

Hypothesis draws argv from the CLI grammar (valid, extreme, non-finite and
garbage values; whole, ``--flag=value`` and abbreviated flags; config-file
lines) and runs ``main`` in-process with every work limit set low, so each
example finishes in milliseconds. Two more tests draw valid ``observables``
and ``wavefunction`` argv for every source and check each table against the
closed-form laws, and two more do so for ``sweep`` and ``survival``.
Seeded, so tier-1 stays deterministic.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import mp

from ctqw import cli

# every quantity of cli.LIMITS, low enough that no example takes long
LOW_LIMITS = {
    "sites": 400,
    "amplitudes": 20_000,
    "order-columns": 200_000,
    "FFT points": 200_000,
    "site-steps": 300_000,
    "steps": 3_000.0,
    "rows": 300,
}


def _values(valid, extreme, bad):
    """Each valid value drawn three times as often as each extreme or bad one."""
    return st.sampled_from(valid * 3 + extreme + bad)


FLOATS = _values(["0", "0.25", "1", "2.5", "5", "-1e-3"],
                 ["-1", "1e-7", "5e-324", "50", "1e9", "1e300", "-1e308", "1.3e154"],
                 ["nan", "inf", "-inf", "x", ""])
INTS = _values(["2", "3", "7", "40"], ["0", "1", "201", "-5", "1000001", "9" * 40], ["2.5", "x"])
VALUES = {
    **dict.fromkeys(["--gamma", "--alpha", "--dparam", "--tmin", "--tmax", "--start", "--stop",
                     "--step"], FLOATS),
    **dict.fromkeys(["--npoints", "--half-width", "--steps"], INTS),
    "--source": st.sampled_from(["analytic", "spectral", "ode", "bogus"]),
    "--spacing": st.sampled_from(["lin", "log", "cubic"]),
    "--format": st.sampled_from(["csv", "json", "xml"]),
    "--sweep-param": st.sampled_from(["dparam", "alpha", "gamma"]),
    "--quick": st.sampled_from(["true", "no", "maybe"]),  # config lines only; a flag takes none
}
COMMON = ["--gamma", "--alpha", "--dparam", "--format"]
GRID = ["--tmin", "--tmax", "--npoints", "--spacing"]
NUMERICS = ["--source", "--half-width", "--step"]
FLAGS = {
    "wavefunction": COMMON + NUMERICS + ["--tmax"],
    "observables": COMMON + GRID + NUMERICS,
    "survival": COMMON + GRID,
    "sweep": COMMON + ["--sweep-param", "--start", "--stop", "--steps", "--tmax"],
    "figure": COMMON,
    "validate": ["--gamma", "--quick"],
}


@st.composite
def invocations(draw):
    """(argv without --out/--config, config lines, output name or None)."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command == "figure":
        argv.append(draw(st.sampled_from(["fig1", "fig2", "fig3", "fig4", "fig5", "fig9"])))
    lines = []
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), min_size=1, max_size=5)):
        value = draw(VALUES[flag])
        form = draw(st.sampled_from(["spaced", "joined", "abbreviated", "config"]))
        if form == "config":
            lines.append(f"{flag[2:].replace('-', draw(st.sampled_from('-_')))} = {value}")
        elif flag == "--quick":
            argv.append(flag)
        else:
            name = flag[: draw(st.integers(4, len(flag)))] if form == "abbreviated" else flag
            argv += [f"{name}={value}"] if form == "joined" else [name, value]
    if draw(st.integers(0, 3)) == 3:  # a line no config may hold
        lines.append(draw(st.sampled_from(["nonsense = 3", "no equals sign", "config = b.cfg"])))
    lines += draw(st.lists(st.sampled_from(["# a comment", ""]), max_size=1))
    out = draw(st.sampled_from([None, "out.csv", "out.json", "missing/out.csv", "."]))
    return argv, lines, out


@settings(max_examples=500, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_argv_keeps_the_exit_code_contract(invocation):
    argv, lines, out = invocation
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "LIMITS", LOW_LIMITS)
        mp.chdir(tmp)  # --out relative to tmp: tmp / "." is tmp, and panels went beside it
        tmp = Path(tmp)
        if lines:
            (tmp / "run.cfg").write_text("\n".join(lines) + "\n")
            argv = argv + ["--config", str(tmp / "run.cfg")]
        if out is not None:
            argv = argv + ["--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        written = sorted(p.name for p in tmp.rglob("*") if p.name != "run.cfg")
    assert code in (0, 1, 2, 3), (argv, lines, code)
    assert "Traceback" not in stderr.getvalue(), (argv, lines)
    if code != 0:
        assert written == [], (argv, lines, written)


@st.composite
def observables_argv(draw):
    """(argv, gamma, alpha, D, times) of a valid observables run to stdout in JSON."""
    source = draw(st.sampled_from(["analytic", "spectral", "ode"]))
    gamma = draw(st.sampled_from([1e-3, 0.3, 1.0, 2.5, 1e2]))
    alpha = draw(st.sampled_from([0.0, 0.7, math.pi / 2, -2.0, 4.0, 1e6, -1e12]))
    d = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    gt = draw(st.sampled_from([0.5, 2.0] if source == "ode" else [0.5, 5.0, 20.0]))
    npoints = draw(st.integers(2, 9))
    spacing = draw(st.sampled_from(["lin", "log"]))
    tmax = gt / gamma
    tmin = tmax / 1000 if spacing == "log" else 0.0
    argv = ["observables", "--source", source, "--gamma", repr(gamma), "--alpha", repr(alpha),
            "--dparam", repr(d), "--tmin", repr(tmin), "--tmax", repr(tmax),
            "--npoints", str(npoints), "--spacing", spacing, "--format", "json"]
    space = np.geomspace if spacing == "log" else np.linspace
    return argv, gamma, alpha, d, space(tmin, tmax, npoints)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(observables_argv())
def test_every_observables_table_obeys_the_closed_form_laws(drawn):
    argv, gamma, alpha, d, times = drawn
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0, argv
    doc = json.loads(stdout.getvalue())
    assert doc["columns"] == ["t", "mean_x", "msd", "survival"]
    t, mean_x, msd, survival = np.array(doc["rows"], dtype=float).T
    assert np.array_equal(t, times), argv
    # the laws are written out here, not taken from ctqw, as in perfbench/workloads.py
    drift = -2.0 * gamma * math.sin(alpha) * math.sqrt(2.0 * d * (1.0 - d)) * t
    assert np.all(np.abs(mean_x - drift) <= 1e-9 * np.maximum(1.0, np.abs(drift))), argv
    msd_law = d + 2.0 * gamma**2 * t**2 * (1.0 - d / 2.0 + d * math.sin(alpha) ** 2)
    assert np.all(np.abs(msd - msd_law) <= 1e-9 * np.maximum(1.0, msd_law)), argv
    assert np.all((survival >= 0.0) & (survival <= 1.0 + 1e-12)), argv


@st.composite
def wavefunction_argv(draw):
    """(argv, gamma, alpha, D, t, format) of a valid wavefunction run to stdout."""
    source = draw(st.sampled_from(["analytic", "spectral", "ode"]))
    gamma = draw(st.sampled_from([1e-3, 0.3, 1.0, 2.5, 1e2]))
    alpha = draw(st.sampled_from([0.0, 0.7, math.pi / 2, -2.0, 4.0, 1e6, -1e12]))
    d = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    gt = draw(st.sampled_from([0.0, 0.5, 2.0] if source == "ode" else [0.0, 0.5, 5.0, 20.0]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    t = gt / gamma
    argv = ["wavefunction", "--source", source, "--gamma", repr(gamma), "--alpha", repr(alpha),
            "--dparam", repr(d), "--tmax", repr(t), "--format", fmt]
    return argv, gamma, alpha, d, t, fmt


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wavefunction_argv())
def test_every_wavefunction_table_obeys_the_closed_form_laws(drawn):
    argv, gamma, alpha, d, t, fmt = drawn
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0, argv
    if fmt == "json":
        doc = json.loads(stdout.getvalue())
        header, rows = doc["columns"], doc["rows"]
    else:
        header, *lines = stdout.getvalue().splitlines()
        header, rows = header.split(","), [line.split(",") for line in lines]
    assert header == ["x", "prob", "re_psi", "im_psi"]
    x, prob, re, im = np.array(rows, dtype=float).T
    assert np.array_equal(x, np.arange(-(x.size // 2), x.size // 2 + 1)), argv
    # the laws are written out here, not taken from ctqw, as in perfbench/workloads.py
    assert abs(prob.sum() - 1.0) <= 1e-9, argv
    drift = -2.0 * gamma * math.sin(alpha) * math.sqrt(2.0 * d * (1.0 - d)) * t
    assert abs((x * prob).sum() - drift) <= 1e-9, argv
    msd_law = d + 2.0 * gamma**2 * t**2 * (1.0 - d / 2.0 + d * math.sin(alpha) ** 2)
    assert abs((x**2 * prob).sum() - msd_law) <= 1e-9 * msd_law, argv
    # prob is |psi|^2 of the amplitudes printed beside it
    assert np.all(np.abs(prob - (re**2 + im**2)) <= 1e-15 * prob), argv


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    gamma=st.sampled_from([1e-3, 0.3, 1.0, 2.5, 1e2]),
    alpha=st.sampled_from([4.0, 123456789.123, 3.3e11 + 0.7, 1.7e15 + 3.0]).flatmap(
        lambda a: st.sampled_from([a, -a])),
    d=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    gt=st.sampled_from([0.5, 2.0]),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_every_source_prints_the_same_amplitudes_past_pi(gamma, alpha, d, gt, fmt):
    tables = {}
    for source in ("analytic", "spectral", "ode"):
        argv = ["wavefunction", "--source", source, "--gamma", repr(gamma), "--alpha",
                repr(alpha), "--dparam", repr(d), "--tmax", repr(gt / gamma), "--format", fmt]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(argv) == 0, argv
        tables[source] = _table(stdout.getvalue(), fmt)[1]
    # one window, and re_psi and im_psi within the oracles' own agreement, at any |alpha|
    exact = tables["analytic"]
    for source in ("spectral", "ode"):
        assert np.array_equal(tables[source][:, 0], exact[:, 0]), (source, alpha)
        assert np.abs(tables[source][:, 2:] - exact[:, 2:]).max() <= 1e-9, (source, alpha)


def _table(text, fmt):
    """(header, float rows) of a CSV or JSON table written to stdout."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["columns"], np.array(doc["rows"], dtype=float)
    header, *lines = text.splitlines()
    return header.split(","), np.array([line.split(",") for line in lines], dtype=float)


@st.composite
def sweep_argv(draw):
    """(argv, gamma, alpha, D, tmax, swept values, format) of a valid sweep run to stdout.
    The swept parameter's flag is left out: sweep refuses it."""
    param = draw(st.sampled_from(["dparam", "alpha"]))
    gamma = draw(st.sampled_from([1e-3, 0.3, 1.0, 2.5, 1e2]))
    alpha = draw(st.sampled_from([0.0, 0.7, math.pi / 4, math.pi / 2, -2.0, 4.0, 1e6]))
    d = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    ends = [0.0, 0.25, 0.5, 1.0] if param == "dparam" else [-7.0, -math.pi, 0.0, 0.5,
                                                             math.pi / 4, 3.0, 10.0]
    start, stop = draw(st.sampled_from(ends)), draw(st.sampled_from(ends))
    steps = draw(st.integers(2, 40))
    tmax = draw(st.sampled_from([0.0, 0.5, 5.0, 500.0]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    fixed = ["--alpha", repr(alpha)] if param == "dparam" else ["--dparam", repr(d)]
    argv = ["sweep", "--sweep-param", param, "--gamma", repr(gamma), *fixed,
            "--start", repr(start), "--stop", repr(stop),
            "--steps", str(steps), "--tmax", repr(tmax), "--format", fmt]
    return argv, gamma, alpha, d, tmax, np.linspace(start, stop, steps), fmt


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sweep_argv())
def test_every_sweep_table_obeys_the_closed_form_laws(drawn):
    argv, gamma, alpha, d, tmax, swept, fmt = drawn
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0, argv
    header, rows = _table(stdout.getvalue(), fmt)
    assert header == [argv[2], "mean_velocity", "crossing_time", "msd_tmax"]
    assert np.array_equal(rows[:, 0], swept), argv
    # the laws are written out here, not taken from ctqw, as in perfbench/workloads.py
    for v, velocity, t_cross, msd in rows:
        dv, a = (v, alpha) if argv[2] == "dparam" else (d, v)
        sin2 = math.sin(a) ** 2
        law = -2.0 * gamma * math.sin(a) * math.sqrt(2.0 * dv * (1.0 - dv))
        assert abs(velocity - law) <= 1e-12 * gamma, argv
        # MSD(t) = D + 2 gamma^2 t^2 (1 - D/2 + D sin^2 alpha), whose D-slope
        # 1 - (gamma t)^2 (1 - 2 sin^2 alpha) vanishes at gamma t_cross
        if sin2 >= 0.5:
            assert t_cross == math.inf, argv
        elif sin2 < 0.5 - 1e-9:
            assert t_cross == pytest.approx(1.0 / math.sqrt(1.0 - 2.0 * sin2), rel=1e-9), argv
        else:  # within rounding of the boundary: no crossing, or a very late one
            assert t_cross > 1e4, argv
        msd_law = dv + 2.0 * gamma**2 * tmax**2 * (1.0 - dv / 2.0 + dv * sin2)
        assert abs(msd - msd_law) <= 1e-12 * max(1.0, msd_law), argv


@st.composite
def survival_argv(draw):
    """(argv, gamma, alpha, D, times, format, rows to check by mpmath) of a valid survival run."""
    gamma = draw(st.sampled_from([1e-3, 0.3, 1.0, 2.5, 1e2]))
    alpha = draw(st.sampled_from([0.0, 0.7, math.pi / 2, -2.0, 4.0, 1e6, -1e12]))
    d = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    gt = draw(st.sampled_from([0.5, 5.0, 50.0, 500.0]))
    npoints = draw(st.integers(2, 60))
    spacing = draw(st.sampled_from(["lin", "log"]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    tmax = gt / gamma
    tmin = tmax / 1000 if spacing == "log" or draw(st.booleans()) else 0.0
    argv = ["survival", "--gamma", repr(gamma), "--alpha", repr(alpha), "--dparam", repr(d),
            "--tmin", repr(tmin), "--tmax", repr(tmax), "--npoints", str(npoints),
            "--spacing", spacing, "--format", fmt]
    space = np.geomspace if spacing == "log" else np.linspace
    checked = draw(st.lists(st.integers(0, npoints - 1), min_size=1, max_size=5, unique=True))
    return argv, gamma, alpha, d, space(tmin, tmax, npoints), fmt, checked


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(survival_argv())
def test_every_survival_table_obeys_the_closed_form_law(drawn):
    argv, gamma, alpha, d, times, fmt, checked = drawn
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0, argv
    header, rows = _table(stdout.getvalue(), fmt)
    assert header == ["t", "P_surv"]
    t, survival = rows.T
    assert np.array_equal(t, times), argv
    assert np.all((survival >= 0.0) & (survival <= 1.0 + 1e-12)), argv
    if t[0] == 0.0:
        assert survival[0] == 1.0, argv
    # P = J0^2 + 2 (1 - D sin^2 alpha) J1^2 + D J2^2 - 2 D cos(2 alpha) J0 J2 at z = 2 gamma t,
    # with the Bessel functions from mpmath
    sin2, cos2a = math.sin(alpha) ** 2, math.cos(2.0 * alpha)
    with mp.workdps(30):
        for i in checked:
            j0, j1, j2 = (float(mp.besselj(n, 2 * mp.mpf(gamma) * mp.mpf(t[i]))) for n in range(3))
            law = j0**2 + 2.0 * (1.0 - d * sin2) * j1**2 + d * j2**2 - 2.0 * d * cos2a * j0 * j2
            assert abs(survival[i] - law) <= 1e-12, (argv, t[i])
