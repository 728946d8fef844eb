"""Values across numpy's SIMD dispatch levels.

The byte pins of test_outputs.py hold the bytes of one machine: where numpy
dispatches AVX-512 kernels. Lower dispatch changes some bytes (np.geomspace
without AVX-512; the complex kernels below AVX2) but must not change the
values. This test runs the README's pinned CLI examples in a subprocess with
numpy's default dispatch, then with AVX-512 and with AVX2 as well switched
off through NPY_DISABLE_CPU_FEATURES, and compares every table with the
default run's to a relative 1e-10. For a feature name that it does not
dispatch, numpy only issues an ImportWarning, hidden by default, so on such
a host (ARM, say) a lowered run repeats the default one and the test still
runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from readback import read_csv
from test_outputs import CASES

SRC = Path(__file__).resolve().parent.parent / "src"
README_ARGV = [argv for name, argv in CASES.items() if name.startswith("readme-")]
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"
LOWERED = {"no-avx512": NO_AVX512, "no-avx2": NO_AVX512 + " X86_V3"}
RTOL = 1e-10

# runs each argv of sys.argv[1:] in its own numbered directory, stdout to a file there
RUNNER = """
import contextlib, os, sys
from ctqw.cli import main
for i, argv in enumerate(sys.argv[1:]):
    os.mkdir(str(i))
    os.chdir(str(i))
    with open("stdout", "w") as out, contextlib.redirect_stdout(out):
        code = main(argv.split())
    if code:
        sys.exit(f"{argv}: exit {code}")
    os.chdir("..")
"""


def _run(workdir, disabled=None):
    """The tables of the README examples, one (header, rows array) or stdout per argv."""
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    workdir.mkdir()
    subprocess.run([sys.executable, "-c", RUNNER, *README_ARGV], cwd=workdir, env=env,
                   check=True, timeout=300)
    outputs = []
    for i, argv in enumerate(README_ARGV):
        words = argv.split()
        if "--out" in words:
            header, rows = read_csv(workdir / str(i) / words[words.index("--out") + 1])
            outputs.append((header, np.array(rows)))
        else:
            outputs.append((workdir / str(i) / "stdout").read_text())
    return outputs


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("isa") / "default")


@pytest.mark.parametrize("disabled", LOWERED.values(), ids=LOWERED.keys())
def test_readme_values_hold_under_lowered_dispatch(default_run, disabled, tmp_path):
    for argv, want, got in zip(README_ARGV, default_run, _run(tmp_path / "run", disabled)):
        if isinstance(want, str):  # validate --quick
            assert want.splitlines()[-1] == got.splitlines()[-1] == "64/64 checks passed", argv
            continue
        (header, rows), (got_header, got_rows) = want, got
        assert got_header == header and got_rows.shape == rows.shape, argv
        finite = np.isfinite(rows)
        assert np.array_equal(rows[~finite], got_rows[~finite], equal_nan=True), argv
        error = np.abs(got_rows[finite] - rows[finite])
        assert np.all(error <= RTOL * np.abs(rows[finite])), (argv, error.max())
