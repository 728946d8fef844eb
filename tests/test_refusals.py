"""The refusal family: each refusal type carries its exit code and stderr
label and keeps its builtin base; a bad field of each spec type is a
ConfigError that is still a ValueError; and main reports a refusal from
anywhere in a run on one stderr line, with the type's exit code."""

import math

import pytest

from ctqw import (
    ConfigError,
    LatticeWindow,
    NumericalValidationError,
    OdeSpec,
    Refusal,
    RingSpec,
    UndersizedGridError,
    WalkParams,
    cli,
)

# (type, builtin base, exit code, stderr label)
REFUSALS = [
    (ConfigError, ValueError, 2, "config error"),
    (UndersizedGridError, ValueError, 3, "numerical validation failure"),
    (NumericalValidationError, RuntimeError, 3, "numerical validation failure"),
]
IDS = [r[0].__name__ for r in REFUSALS]


@pytest.mark.parametrize("cls, builtin, code, label", REFUSALS, ids=IDS)
def test_each_refusal_carries_its_exit_code_and_label(cls, builtin, code, label):
    assert issubclass(cls, Refusal) and issubclass(cls, builtin)
    assert (cls.exit_code, cls.label) == (code, label)


def test_cli_config_error_is_the_model_one():
    assert cli.ConfigError is ConfigError


BAD_FIELDS = [
    (lambda: WalkParams(gamma=0.0), "gamma must be positive and finite"),
    (lambda: WalkParams(gamma=math.inf), "gamma must be positive and finite"),
    (lambda: WalkParams(alpha=math.nan), "alpha must be finite"),
    (lambda: WalkParams(delocalization=1.5), r"delocalization must be in \[0, 1\]"),
    (lambda: LatticeWindow(0), "half_width must be an integer >= 1"),
    (lambda: LatticeWindow(2.5), "half_width must be an integer >= 1"),
    (lambda: RingSpec(2), "ring size must be an integer >= 3"),
    (lambda: OdeSpec(step=0.0), "step must be positive"),
    (lambda: OdeSpec(step=math.nan), "step must be positive"),
]


@pytest.mark.parametrize("build, message", BAD_FIELDS)
def test_a_bad_spec_field_is_a_config_error_and_a_value_error(build, message):
    with pytest.raises(ConfigError, match=message) as info:
        build()
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("cls, builtin, code, label", REFUSALS, ids=IDS)
def test_main_reports_a_builder_refusal_on_one_line(tmp_path, monkeypatch, capsys,
                                                    cls, builtin, code, label):
    def refuse(args, run):
        raise cls("refused in the builder")

    monkeypatch.setitem(cli.TABLES, "survival", refuse)
    out = tmp_path / "s.csv"
    assert cli.main(["survival", "--tmax", "1", "--npoints", "2", "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ctqw: {label}: refused in the builder\n"
    assert not out.exists()


def test_main_reports_an_rk4_refusal_on_one_line(capsys):
    # RK4 at step 0.5 drifts its norm past 1e-9 inside the observables builder
    argv = ["observables", "--source", "ode", "--step", "0.5", "--tmax", "2", "--npoints", "3"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ctqw: numerical validation failure: norm drift ")
    assert captured.err.count("\n") == 1
