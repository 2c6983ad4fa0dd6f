"""Only the commands that integrate or root-find load scipy.integrate and
scipy.optimize.

The pytest process has imported both already, so each run below starts a
fresh interpreter: it imports the package, runs main on a list of argvs in
a temporary working directory, and reports, after the import and after each
argv, the exit code, stdout and which of the two subpackages are loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selffield
from test_cli import GOLDEN

SRC = str(Path(selffield.__file__).resolve().parents[1])
LAZY = ("scipy.integrate", "scipy.optimize")

RUNNER = f"""
import contextlib, io, json, sys
LAZY = {LAZY!r}
def loaded():
    return [name for name in LAZY if name in sys.modules]
import selffield, selffield.cli, selffield.dynamics
report = [{{"argv": None, "loaded": loaded()}}]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = selffield.cli.main(argv)
    report.append({{"argv": argv, "code": code, "out": out.getvalue(),
                   "loaded": loaded()}})
print(json.dumps(report))
"""

README = {tuple(argv): out for argv, out in GOLDEN}
ATOM = ["atom", "--atom", "H", "--beta", "0.1"]
CLOSED_FORM = [
    ["energy", "--particle", "electron", "--beta", "0.1", "--b", "5.29e-11"],
    ["minimize", "--particle", "electron", "--beta", "0.1"],
    ["sweep", "--particle", "proton", "--beta", "0.05:0.25:0.05"],
    ["evolve", "--particle", "electron", "--beta", "0.1", "--b", "3e-11",
     "--n", "32", "--box", "2.4e-10", "--dt", "6e-20", "--steps", "2",
     "--output", "out.csv"],
]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Reports of two fresh interpreters, run side by side: the closed-form
    commands then atom, and validate --skip-dynamics alone."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    jobs = []
    for name, argvs in (("closed", CLOSED_FORM + [ATOM]),
                        ("validate", [["validate", "--skip-dynamics"]])):
        cwd = tmp_path_factory.mktemp(name)
        jobs.append(subprocess.Popen(
            [sys.executable, "-c", RUNNER, json.dumps(argvs)], cwd=cwd, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    outputs = [job.communicate(timeout=60) for job in jobs]
    for job, (_, err) in zip(jobs, outputs):
        assert job.returncode == 0, err
    return [json.loads(out) for out, _ in outputs]


def test_import_and_closed_form_commands_load_neither(reports):
    imported, *runs = reports[0][:-1]
    assert imported["loaded"] == []
    for run in runs:
        assert run["code"] == 0, run["argv"]
        assert run["loaded"] == [], run["argv"]


def test_atom_loads_root_finding(reports):
    run = reports[0][-1]
    assert run["argv"] == ATOM and run["code"] == 0
    assert "scipy.optimize" in run["loaded"]
    assert run["out"] == README[tuple(ATOM)]


def test_validate_loads_both_and_passes(reports):
    imported, run = reports[1]
    assert imported["loaded"] == []
    assert run["code"] == 0
    assert json.loads(run["out"])["all_passed"] is True
    assert run["loaded"] == list(LAZY)
