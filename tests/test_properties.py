"""Property test of the CLI exit-code contract.

Any argv for energy, minimize, sweep, atom and evolve, with beta, widths,
masses, cloud radii, boxes and time steps drawn from the whole float line
(NaN, +-inf, subnormals, +-1e+-300), and any JSON document given as
--config, exits 0, 2, 3 or 4 without an exception escaping main, and a
successful run prints strict JSON or CSV whose numbers are all finite.
The evolve and config cases run in a fresh temporary directory, keep every
output path inside it, and stay at n <= 48 and at most 3 steps.

Also: the dynamics' phase helper _cis agrees with the complex exponential,
and a packet direction is v / np.linalg.norm(v) bit for bit.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from selffield.cli import CONFIG_KEYS, CONFIG_SWITCHES, main  # noqa: E402
from selffield.dynamics import _cis  # noqa: E402
from selffield.scales import CONST, PARTICLE_PRESETS  # noqa: E402
from selffield.wavepacket import _unit  # noqa: E402

FLOATS = st.floats()
# widths at every decade of the float range too, subnormals included, where
# squares overflow and reciprocals exceed the largest float
WIDTHS = FLOATS | st.integers(-323, 308).map(lambda e: float(f"1e{e}"))
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
                + [_opt("beta", draw(FLOATS)), _opt("b", draw(WIDTHS)),
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
    tail = [_opt("b", draw(WIDTHS))] if draw(st.booleans()) else []
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
@example(argv=["energy", "--particle=electron", "--beta=0.1", "--b=1e+160"])
@example(argv=["atom", "--atom=H", "--b=1e-310"])
@example(argv=["atom", "--atom=H", "--b=5e-324"])
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


# --- evolve argv and --config documents -----------------------------------------

def _run_in_tempdir(argv, config=None):
    """Exit code (argparse's SystemExit counts), stdout, stderr and the text of
    the output file, in a fresh working directory holding config as run.json.
    Every warning is shown, and main prints each as a selffield: line, so
    none may escape it."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if config is not None:
            with open("run.json", "w") as fh:
                json.dump(config, fh)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        written = ""
        if code == 0 and os.path.exists("out.csv"):
            with open("out.csv") as fh:
                written = fh.read()
    assert caught == [], (argv, config, [str(w.message) for w in caught])
    return code, out.getvalue(), err.getvalue(), written


def _check_contract(code, out, err, written, context):
    assert code in (0, 2, 3, 4), (context, code, err)
    if code != 0:
        assert out == "", context
        return
    for text in (out, written):
        if text.startswith(("{", "[")):
            json.loads(text, parse_constant=_reject_constant)
        else:
            _check_finite_csv(text)


def _kinetic_dt_bound(mass, n, box):
    # the largest dt the kinetic phase guard admits
    return 0.8 * math.pi * 2.0 * mass / (CONST.hbar * (math.pi * n / box) ** 2)


@st.composite
def evolve_argvs(draw):
    n = draw(st.just(32) | st.sampled_from([16, 48]))   # 16 and 48 are refused
    preset = draw(st.sampled_from(sorted(PARTICLE_PRESETS)))
    if draw(st.booleans()):
        # near-valid: box = 8 b, the limit of the fit and resolution checks
        # at n = 32, and dt around the kinetic guard
        particle = [_opt("particle", preset)]
        b = draw(st.floats(1e-70, 1e-6))
        box = 8.0 * b
        dt = draw(st.floats(1e-3, 1.5)) * _kinetic_dt_bound(
            PARTICLE_PRESETS[preset].mass, n, box)
        beta = draw(st.floats(0.0, 0.99))
    else:
        particle = draw(particle_args())
        b, box, dt, beta = (draw(FLOATS) for _ in range(4))
    argv = (["evolve"] + particle
            + [_opt("b", b), _opt("box", box), _opt("dt", dt), _opt("beta", beta),
               _opt("n", n), _opt("steps", draw(st.integers(1, 3))),
               _opt("stride", draw(st.integers(1, 3)))])
    for flag in ("--coupling-off", "--include-diagonal-na"):
        if draw(st.booleans()):
            argv.append(flag)
    if draw(st.booleans()):
        argv += ["--output=out.csv", "--snapshot-out=state.snap"]
    return argv


@settings(max_examples=60, deadline=None, database=None)
@given(argv=evolve_argvs())
@example(argv=["evolve", "--particle=electron", "--b=1e-60", "--box=8e-60",
               "--dt=1e-300", "--beta=0.1", "--n=32", "--steps=2",
               "--snapshot-out=s.bin"])
@example(argv=["evolve", "--particle=electron", "--b=3e-11", "--box=2.4e-10",
               "--dt=1e-170", "--n=32", "--steps=3"])
def test_evolve_exit_code_contract(argv):
    # every warning is shown: a failure prints exactly one selffield: line
    code, out, err, written = _run_in_tempdir(argv)
    _check_contract(code, out, err, written, argv)
    if code != 0:
        assert err.startswith("selffield: ") and err.count("\n") == 1, (argv, err)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=8), inner, max_size=3),
    max_leaves=6)
# values for keys naming files: plain relative names, or a JSON value that
# is not a string; never a path outside the working directory
PATHS = st.sampled_from(["out.csv", "state.snap", "missing.snap"]) | JSON.filter(
    lambda v: not isinstance(v, str))
# n and steps stay small: an int in range, or a value that int() cannot read
SMALL = {"n": st.sampled_from([16, 32, 48]), "steps": st.integers(1, 3)}
NOT_AN_INT = JSON.filter(lambda v: not isinstance(v, (str, int)) or isinstance(v, bool))


@st.composite
def config_docs(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON)
    command = draw(st.sampled_from(sorted(set(CONFIG_KEYS) - {"validate"})))
    doc = {"command": command}
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS[command])), unique=True)):
        if key in ("output", "snapshot_in", "snapshot_out"):
            doc[key] = draw(PATHS)
        elif key in SMALL:
            doc[key] = draw(SMALL[key] | NOT_AN_INT)
        else:
            doc[key] = draw(JSON)
    if command == "evolve":   # the defaults are n = 64 and no steps
        doc.setdefault("n", 32)
        doc.setdefault("steps", 1)
    return doc


@settings(max_examples=200, deadline=None, database=None)
@given(doc=config_docs())
@example(doc=5)
@example(doc={"command": ["x"]})
@example(doc={"command": "atom", "atom": "H", "beta": False})
@example(doc={"command": "atom", "atom": "H", "b": False})
def test_config_exit_code_contract(doc):
    code, out, err, written = _run_in_tempdir(["--config", "run.json"], doc)
    _check_contract(code, out, err, written, doc)
    if code == 0:   # no run starts from a value of the wrong JSON type
        for key, value in doc.items():
            assert (type(value) is bool) == (key in CONFIG_SWITCHES), (key, value)
            assert isinstance(value, (bool, int, float, str)), (key, value)


# angles of a step's A^2 phase and kinetic factor, with both zeros and the
# subnormals beside them
ANGLES = (st.floats(-1e3, 1e3)
          | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072004e-308]))


@settings(max_examples=300, deadline=None, database=None)
@given(theta=st.lists(ANGLES, min_size=1, max_size=100))
@example(theta=[0.0, -0.0, 5e-324, -5e-324, 1e3, -1e3, math.pi])
def test_cis_matches_complex_exponential(theta):
    theta = np.array(theta)
    got, want = _cis(theta), np.exp(1j * theta)
    np.testing.assert_array_max_ulp(got.real, want.real, maxulp=1)
    np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=1)


@settings(max_examples=500, deadline=None, database=None)
@given(mantissas=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       exponent=st.integers(-310, 200))
@example(mantissas=[0.0, -0.0, 0.0], exponent=0)
@example(mantissas=[1.0, 1e-9, -0.5], exponent=-310)
@example(mantissas=[1.0, -1.0, 1.0], exponent=200)
def test_unit_is_v_over_its_norm_bitwise(mantissas, exponent):
    # components from 1e-310 (subnormal) to 1e200 (|v|^2 overflows); a
    # vector whose norm is 0 is refused
    v = np.array(mantissas) * 10.0 ** exponent
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
        if norm == 0.0:
            with pytest.raises(ValueError, match="nonzero"):
                _unit(v)
        else:
            assert _unit(v).tobytes() == (v / norm).tobytes()
