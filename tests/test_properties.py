"""Property test of the CLI exit-code contract.

Any argv for energy, minimize, sweep and atom, with beta, widths, masses
and cloud radii drawn from the whole float line (NaN, +-inf, subnormals,
+-1e+-300), exits 0, 2, 3 or 4 without an exception escaping main, and a
successful run prints strict JSON or CSV whose numbers are all finite.
"""

import contextlib
import csv
import io
import json
import math
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from selffield.cli import main  # noqa: E402

FLOATS = st.floats()
MODES = st.sampled_from(["PaperQuoted", "Assembled"])


def _opt(name, value):
    # --flag=value, so that negative numbers are not read as flags
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


@st.composite
def particle_args(draw):
    if draw(st.booleans()):
        return [_opt("particle", draw(st.sampled_from(["electron", "proton"])))]
    return [_opt("z", draw(st.integers(-4, 4))), _opt("mass-kg", draw(FLOATS))]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["energy", "minimize", "sweep", "atom"]))
    if command == "energy":
        return (["energy"] + draw(particle_args())
                + [_opt("beta", draw(FLOATS)), _opt("b", draw(FLOATS)),
                   _opt("mode", draw(MODES)),
                   _opt("format", draw(st.sampled_from(["json", "csv"])))])
    if command == "minimize":
        return (["minimize"] + draw(particle_args())
                + [_opt("beta", draw(FLOATS)), _opt("mode", draw(MODES))])
    if command == "sweep":
        betas = draw(st.lists(FLOATS, min_size=1, max_size=4))
        return (["sweep"] + draw(particle_args())
                + ["--beta=" + ",".join(map(repr, betas)), _opt("mode", draw(MODES)),
                   _opt("format", draw(st.sampled_from(["csv", "json"])))])
    if draw(st.booleans()):
        atom = [_opt("atom", draw(st.sampled_from(["H", "He"])))]
    else:
        atom = [_opt("z-nucleus", draw(st.integers(1, 4))),
                _opt("mass-total-kg", draw(FLOATS)), _opt("gamma-m", draw(FLOATS))]
    tail = [_opt("b", draw(FLOATS))] if draw(st.booleans()) else []
    return ["atom"] + atom + [_opt("beta", draw(FLOATS))] + tail


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


def _check_finite_csv(text):
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue   # labels, modes, statuses and empty cells
            assert math.isfinite(value), cell


@settings(max_examples=400, deadline=None, database=None)
@given(argv=argvs())
def test_cli_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    if code != 0:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("selffield: ")
        return
    text = out.getvalue()
    if text.startswith(("{", "[")):
        json.loads(text, parse_constant=_reject_constant)
    else:
        _check_finite_csv(text)
