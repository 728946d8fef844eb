"""CLI output bytes pinned by sha256, and a run of the README's library sketch.

Each case runs ``ctqw.cli.main`` in an empty directory and hashes its exit
code, stdout and every file it wrote. The digests in ``outputs.sha256``
were recorded before the one-matrix evaluation path went in, so they hold
the tables to the bytes the per-state path wrote; the figure, survival and
short-step cases were recorded before RK4 lost its one-row state layout.

Regenerate the digests only for a deliberate change of output, from the
repository root:

    PYTHONPATH=src python tests/test_outputs.py > tests/outputs.sha256
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from ctqw.cli import main

DIGESTS = Path(__file__).with_name("outputs.sha256")
README = Path(__file__).resolve().parent.parent / "README.md"

# the CLI examples of README.md, as written there (test_readme_examples_are_the_cases)
CASES = {
    "readme-wavefunction": "wavefunction --dparam 0.5 --alpha 0.7854 --tmax 10 --out wf.csv",
    "readme-observables": "observables --dparam 0.5 --alpha 1.5708 --tmax 20 --npoints 41 "
    "--out obs.csv",
    "readme-survival": "survival --dparam 1 --alpha 1.5708 --tmin 0.1 --tmax 500 "
    "--npoints 200 --spacing log --out surv.csv",
    "readme-sweep": "sweep --sweep-param dparam --alpha 1.5708 --steps 101 --out sweep.csv",
    "readme-figure-fig4": "figure fig4 --out fig4.csv",
    "readme-validate-quick": "validate --quick",
}
# every source: CSV to a file, JSON to stdout; RK4 grids stay short
for _source in ("analytic", "spectral", "ode"):
    for _fmt, _out in (("csv", "--out t.csv"), ("json", "")):
        _common = f"--source {_source} --dparam 0.3 --alpha 0.9 --format {_fmt} {_out}"
        CASES[f"observables-{_source}-{_fmt}"] = f"observables {_common} --tmax 5 --npoints 11"
        CASES[f"wavefunction-{_source}-{_fmt}"] = f"wavefunction {_common} --tmax 4.5"
# every figure, CSV (fig4 is a README example above) and JSON
for _fig in ("fig1", "fig2", "fig3", "fig4", "fig5"):
    if _fig != "fig4":
        CASES[f"figure-{_fig}-csv"] = f"figure {_fig} --out {_fig}.csv"
    CASES[f"figure-{_fig}-json"] = f"figure {_fig} --format json --out {_fig}.json"
CASES["survival-json"] = "survival --dparam 0.3 --alpha 0.9 --format json --tmax 5 --npoints 11"
# a phase sweep with finite and infinite crossing times, CSV to a file and JSON to stdout
for _fmt, _out in (("csv", "--out sweep.csv"), ("json", "")):
    CASES[f"sweep-alpha-{_fmt}"] = (
        f"sweep --sweep-param alpha --dparam 0.5 --start 0 --stop 3.1416 --steps 41 "
        f"--format {_fmt} {_out}"
    )
# RK4 checkpoints that are not multiples of the step
CASES["observables-ode-short-step"] = (
    "observables --source ode --dparam 0.3 --alpha 0.9 --tmax 1 --npoints 4 --step 0.0007 "
    "--out t.csv"
)


def output_digest(argv):
    """sha256 over exit code, stdout and the files written, in the current directory."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv.split())
    blob = f"exit {code}\n{stdout.getvalue()}".encode()
    for path in sorted(Path.cwd().iterdir()):
        blob += f"\n{path.name}\n".encode() + path.read_bytes()
    return hashlib.sha256(blob).hexdigest()


def _recorded():
    pairs = (line.split() for line in DIGESTS.read_text().splitlines() if line.strip())
    return {name: digest for digest, name in pairs}


def test_readme_examples_are_the_cases():
    # the first sh block under "## CLI", one command a line once continuations are joined
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [line.split() for line in block.splitlines() if line.strip()]
    assert [words[0] for words in commands] == ["ctqw"] * len(commands)
    assert ([" ".join(words[1:]) for words in commands]
            == [argv for name, argv in CASES.items() if name.startswith("readme-")])


def test_library_sketch_runs():
    # the python block under "## Library sketch", as written there; it ends with the
    # quick oracle triangle, and asserts the drift and MSD laws on its way
    section = README.read_text().split("\n## Library sketch\n", 1)[1]
    scope = {}
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], scope)
    assert scope["psi"].shape == scope["check"].shape == (41, scope["window"].n_sites)
    assert scope["psis"].shape == (41, 3, scope["window"].n_sites)
    assert len(scope["parts"]) == 6  # 41 times in blocks of 8
    assert [c.passed for c in scope["checks"]] == [True] * 64


def test_every_case_is_recorded():
    assert sorted(_recorded()) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_output_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert output_digest(CASES[name]) == _recorded()[name]


if __name__ == "__main__":
    for case, case_argv in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            sys.stdout.write(f"{output_digest(case_argv)}  {case}\n")
