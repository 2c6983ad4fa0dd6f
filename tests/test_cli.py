"""End-to-end tests of the command-line interface."""

import json
import math
import warnings

import pytest

from selffield import cli, localization
from selffield.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK,
                           config_to_argv, main, parse_beta_grid)
from selffield.errors import ConfigError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- grid parsing -------------------------------------------------------------

def test_beta_grid_range():
    grid = parse_beta_grid("0.05:0.25:0.05")
    assert grid == pytest.approx([0.05, 0.10, 0.15, 0.20, 0.25], abs=0)


def test_beta_grid_endpoint_tolerance():
    # endpoint included when within step/2
    assert parse_beta_grid("0.1:0.3:0.1") == pytest.approx([0.1, 0.2, 0.3], abs=0)


def test_beta_grid_list():
    assert parse_beta_grid("0.1, 0.2,0.05") == pytest.approx([0.1, 0.2, 0.05], abs=0)


def test_beta_grid_bad_spec():
    with pytest.raises(ConfigError):
        parse_beta_grid("0.1:0.2:0.05:1")
    with pytest.raises(ConfigError):
        parse_beta_grid("0.1:0.2:-0.05")


def test_beta_grid_cap_counts_the_values(capsys):
    # 0, 1, ..., 99999 is MAX_GRID_POINTS values; with 100000 it is one more,
    # although (stop - start) / step stays below the cap
    assert len(parse_beta_grid("0:99998.9:1")) == cli.MAX_GRID_POINTS
    code, out, err = run_cli(capsys, "sweep", "--particle", "electron",
                             "--beta", "0:99999.9:1")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "selffield: config error: beta_grid: more than 100000 values\n"


# --- minimize -------------------------------------------------------------------

def test_minimize_stdout(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--particle", "electron",
                           "--beta", "0.1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["b_star_m"] == pytest.approx(1.49e-8, rel=0.05, abs=0)
    assert data["binding_eV"] == pytest.approx(6.4e-5, rel=0.05, abs=0)
    assert data["mode"] == "PaperQuoted"


def test_minimize_numeric_failure_exit(capsys):
    code, _, err = run_cli(capsys, "minimize", "--particle", "electron",
                           "--beta", "0.0")
    assert code == EXIT_NUMERIC
    assert "no" in err.lower()


def test_minimize_custom_particle(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--z", "1",
                           "--mass-kg", "1.67262192e-27", "--beta", "0.1")
    assert code == EXIT_OK
    assert json.loads(out)["b_star_m"] == pytest.approx(8.13e-12, rel=0.01, abs=0)


# --- sweep ------------------------------------------------------------------------

def test_sweep_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--particle", "proton",
                         "--beta", "0.05:0.25:0.05", "--output", str(out_path))
    assert code == EXIT_OK
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "beta,b_star_m,binding_eV,b_over_lambda,mode,status"
    assert len(lines) == 6
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert meta["constants_version"] == "CODATA-2018"
    assert meta["mode"] == "PaperQuoted"
    assert "tool_version" in meta


def test_sweep_row_errors_do_not_abort(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--particle", "electron",
                           "--beta", "0.0,0.1", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0]["status"] == "no-minimum"
    assert rows[1]["status"] == "ok"


def test_sweep_deterministic(tmp_path, capsys):
    paths = []
    for name in ("a.csv", "b.csv"):
        p = tmp_path / name
        code, _, _ = run_cli(capsys, "sweep", "--particle", "electron",
                             "--beta", "0.05:0.2:0.05", "--output", str(p))
        assert code == EXIT_OK
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_csv_sweep_builds_no_result_and_formats_no_cell_per_row(capsys, monkeypatch,
                                                                tmp_path):
    # a sweep row is one flat tuple formatted by one template: no
    # LocalizationResult per row, and no _fmt call that grows with the rows
    made, formatted = [], []

    class Counted(localization.LocalizationResult):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(localization, "LocalizationResult", Counted)
    fmt = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda x: formatted.append(x) or fmt(x))
    out_path, calls = tmp_path / "sweep.csv", []
    for rows in (1, 1000):
        formatted.clear()
        grid = ",".join(repr(0.01 + 0.28 * i / 999) for i in range(rows))
        code, _, _ = run_cli(capsys, "sweep", "--particle", "electron", "--beta", grid,
                             "--output", str(out_path))
        assert code == EXIT_OK
        assert len(out_path.read_text().splitlines()) == rows + 1
        calls.append(len(formatted))
    assert made == []
    assert calls[1] <= calls[0]


def test_twelve_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--particle", "electron",
                           "--beta", "0.1", "--format", "csv")
    assert code == EXIT_OK
    row = out.strip().split("\n")[1].split(",")
    assert row[1] == "1.49225687716e-08"


# --- energy ---------------------------------------------------------------------

def test_energy_json(capsys):
    code, out, _ = run_cli(capsys, "energy", "--particle", "electron",
                           "--beta", "0.1", "--b", "5.29177210903e-11")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["electrostatic_eV"] == pytest.approx(5.4279, rel=1e-3, abs=0)
    assert data["mode"] == "PaperQuoted"


def test_energy_csv(capsys):
    code, out, _ = run_cli(capsys, "energy", "--particle", "electron",
                           "--beta", "0.1", "--b", "1e-10", "--format", "csv",
                           "--mode", "Assembled")
    assert code == EXIT_OK
    header, row = out.strip().split("\n")
    assert header.startswith("convective_eV,")
    assert row.endswith(",Assembled")


# --- atom ------------------------------------------------------------------------

def test_atom_preset_minimize(capsys):
    code, out, _ = run_cli(capsys, "atom", "--atom", "H", "--beta", "0.1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["b_star_m"] == pytest.approx(8.1e-12, rel=0.02, abs=0)


def test_atom_energy_evaluation(capsys):
    code, out, _ = run_cli(capsys, "atom", "--atom", "H", "--b", "5.3e-11")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["electrostatic_eV"] > 0.0


def test_atom_unknown_preset(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["atom", "--atom", "Xe"])
    assert exc.value.code == EXIT_CONFIG
    assert "Xe" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag,preset", [
    (["energy", "--particle", "electron", "--z", "3", "--beta", "0.1", "--b", "1e-10"],
     "--z", "--particle"),
    (["energy", "--particle", "electron", "--mass-kg", "1e-25", "--beta", "0.1",
      "--b", "1e-10"], "--mass-kg", "--particle"),
    (["atom", "--atom", "H", "--z-nucleus", "3", "--beta", "0.1"], "--z-nucleus", "--atom"),
    (["atom", "--atom", "H", "--gamma-m", "1e-10", "--beta", "0.1"], "--gamma-m", "--atom"),
], ids=["particle-z", "particle-mass", "atom-z-nucleus", "atom-gamma"])
def test_preset_with_its_own_fields_is_refused(capsys, argv, flag, preset):
    # a preset fixes the fields it names: giving one of them as well is a
    # config error, not a silent override
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == f"selffield: config error: {flag}: fixed by the preset given with {preset}\n"


# --- config files ----------------------------------------------------------------

def test_config_roundtrip(tmp_path, capsys):
    config = {"command": "minimize", "particle": "electron", "beta": 0.1}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "--config", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["b_star_m"] == pytest.approx(1.49e-8, rel=0.05, abs=0)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        config_to_argv({"command": "minimize", "particle": "electron",
                        "beta": 0.1, "grid_n": 64})
    assert "minimize.grid_n" in str(err.value)


def test_config_rejects_irrelevant_field(tmp_path, capsys):
    # a field belonging to another command is rejected, not ignored
    config = {"command": "minimize", "particle": "electron", "beta": 0.1,
              "b": 1e-10}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "--config", str(path))
    assert code == EXIT_CONFIG
    assert "minimize.b" in err


@pytest.mark.parametrize("doc", [
    5,
    ["command", "atom"],
    {"command": ["x"]},
    {"command": "atom", "atom": "H", "beta": False},
    {"command": "atom", "atom": "H", "b": False},
    {"command": "minimize", "particle": "electron", "beta": 0.1, "output": None},
    {"command": "evolve", "particle": "electron", "coupling_off": 1, "steps": 1},
], ids=["number", "list", "command-list", "beta-false", "b-false", "output-null",
        "switch-number"])
def test_config_type_errors_are_config_errors(tmp_path, capsys, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--config", str(path))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("selffield: config error: ")
    assert list(tmp_path.iterdir()) == [path]


def test_config_equals_form(tmp_path, capsys):
    # --config=path is the same option as --config path, and neither form
    # takes a subcommand beside it
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": "minimize", "particle": "electron",
                                "beta": 0.1}))
    spaced = run_cli(capsys, "--config", str(path))
    joined = run_cli(capsys, f"--config={path}")
    assert joined == spaced
    assert spaced[0] == EXIT_OK
    code, out, err = run_cli(capsys, f"--config={path}", "minimize",
                             "--particle", "proton", "--beta", "0.2")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("selffield: config error: config: ")


def test_one_parser_per_process(tmp_path, capsys, monkeypatch):
    # main parses with the parser the module built at import, for every
    # subcommand and for a --config file alike
    calls, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": "minimize", "particle": "electron",
                                "beta": 0.1}))
    assert run_cli(capsys, "minimize", "--particle", "electron", "--beta", "0.1")[0] == EXIT_OK
    assert run_cli(capsys, "energy", "--particle", "electron", "--beta", "0.1",
                   "--b", "5.29e-11")[0] == EXIT_OK
    assert run_cli(capsys, "--config", str(path))[0] == EXIT_OK
    assert calls == []


def test_config_missing_file(capsys):
    code, _, _ = run_cli(capsys, "--config", "/nonexistent/path.json")
    assert code == EXIT_IO


@pytest.mark.parametrize("form", ["split", "equals"])
def test_deeply_nested_config_is_config_error(tmp_path, capsys, form):
    # nesting past the interpreter's recursion limit, written as text
    # (json.dumps cannot build it)
    path = tmp_path / "run.json"
    path.write_text("[" * 200_000)
    argv = ["--config", str(path)] if form == "split" else [f"--config={path}"]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("selffield: config error: config: invalid JSON")


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["minimize", "--particle", "electron", "--beta", "0.1",
              "--bogus", "1"])
    assert exc.value.code == EXIT_CONFIG


def test_output_io_error(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "minimize", "--particle", "electron",
                         "--beta", "0.1", "--output",
                         str(tmp_path / "no_dir" / "out.json"))
    assert code == EXIT_IO


# --- evolve ----------------------------------------------------------------------

def test_evolve_and_restart(tmp_path, capsys):
    b = 3e-11
    common = ["evolve", "--particle", "electron", "--beta", "0.1",
              "--b", str(b), "--n", "32", "--box", str(8 * b),
              "--dt", "2e-19", "--stride", "2"]
    snap = tmp_path / "state.snap"
    out1 = tmp_path / "traj1.csv"
    code, _, _ = run_cli(capsys, *common, "--steps", "4",
                         "--snapshot-out", str(snap), "--output", str(out1))
    assert code == EXIT_OK
    assert snap.exists()
    out2 = tmp_path / "traj2.csv"
    code, _, _ = run_cli(capsys, "evolve", "--snapshot-in", str(snap),
                         "--steps", "4", "--stride", "2",
                         "--output", str(out2))
    assert code == EXIT_OK
    lines1 = out1.read_text().strip().split("\n")
    lines2 = out2.read_text().strip().split("\n")
    assert len(lines1) == len(lines2) == 4   # header + records at 0, 2, 4
    # restarted trajectory continues at the snapshot time
    t_end = float(lines1[-1].split(",")[1])
    t_resume = float(lines2[1].split(",")[1])
    assert t_resume == pytest.approx(t_end, rel=1e-12, abs=0)


def test_trajectory_csv_shape(capsys):
    b = 3e-11
    code, out, _ = run_cli(capsys, "evolve", "--particle", "electron", "--beta", "0.0",
                           "--b", str(b), "--n", "32", "--box", str(8 * b),
                           "--dt", "2e-19", "--coupling-off", "--steps", "10",
                           "--stride", "5")
    assert code == EXIT_OK
    rows = out.splitlines()
    assert rows[0] == "step,t_s,norm,energy_J,px,py,pz,flux_residual_W"
    assert len(rows) == 4
    assert rows[1].startswith("0,")


def test_evolve_grid_mismatch_is_numeric_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "evolve", "--particle", "electron",
                           "--beta", "0.1", "--b", "1e-12", "--n", "32",
                           "--box", "2.4e-10", "--dt", "2e-19", "--steps", "2")
    assert code == EXIT_NUMERIC
    assert "resolution" in err


def test_evolve_non_finite_output_writes_nothing(capsys, tmp_path):
    # a 1e-60 m packet overflows the current: NaN energies are a numeric
    # failure, and neither the CSV, its sidecar nor the snapshot is written
    out, snap = tmp_path / "traj.csv", tmp_path / "s.bin"
    code, stdout, err = run_cli(capsys, "evolve", "--particle", "electron",
                                "--b", "1e-60", "--box", "8e-60", "--dt", "1e-300",
                                "--beta", "0.1", "--n", "32", "--steps", "2",
                                "--output", str(out), "--snapshot-out", str(snap))
    assert code == EXIT_NUMERIC
    assert stdout == ""
    assert "non-finite" in err
    assert list(tmp_path.iterdir()) == []


def test_csv_output_with_a_non_finite_cell_writes_nothing(capsys, tmp_path):
    # a mass of 1e300 kg makes the convective energy infinite: the CSV
    # formatter refuses the cell, so neither the CSV nor its sidecar appears
    out = tmp_path / "budget.csv"
    code, stdout, err = run_cli(capsys, "energy", "--z", "1", "--mass-kg", "1e300",
                                "--beta", "0.5", "--b", "1e-10", "--format", "csv",
                                "--output", str(out))
    assert code == EXIT_NUMERIC
    assert stdout == ""
    assert "non-finite" in err
    assert list(tmp_path.iterdir()) == []


def test_evolve_grid_beyond_physical_memory_is_config_error(capsys, tmp_path, monkeypatch):
    from selffield import dynamics

    path, _, _ = _write_snapshot(tmp_path)
    monkeypatch.setattr(dynamics, "_physical_memory", lambda: 2**20)
    code, out, err = run_cli(capsys, "evolve", "--particle", "electron", "--b", "3e-11",
                             "--n", "32", "--box", "2.4e-10", "--dt", "2e-19", "--steps", "1")
    assert code == EXIT_CONFIG
    assert out == "" and "GiB of physical memory" in err
    code, out, err = run_cli(capsys, "evolve", "--snapshot-in", str(path), "--steps", "1")
    assert code == EXIT_CONFIG
    assert err.startswith("selffield: config error: snapshot_in: ")


@pytest.mark.parametrize("argv", [
    ["sweep", "--particle", "electron", "--beta", "0.1"],
    ["evolve", "--particle", "electron", "--b", "3e-11", "--n", "32",
     "--box", "2.4e-10", "--dt", "2e-19", "--steps", "1"],
], ids=["sweep", "evolve"])
def test_thread_count_not_an_integer_is_config_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("SELFFIELD_THREADS", "abc")
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert "SELFFIELD_THREADS" in err


# --- validate --------------------------------------------------------------------

def test_validate_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "validate", "--skip-dynamics",
                         "--output", str(out))
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    names = {e["name"] for e in report["entries"]}
    assert "localization-reference-values" in names
    for entry in report["entries"]:
        assert set(entry) == {"name", "passed", "residual", "tolerance"}


# --- input range checks and golden outputs ---------------------------------------

@pytest.mark.parametrize("argv", [
    ["energy", "--particle", "electron", "--beta", "0.1", "--b", "-1"],
    ["energy", "--particle", "electron", "--beta", "0.1", "--b", "nan"],
    ["energy", "--particle", "electron", "--beta", "0.1", "--b", "inf"],
    ["energy", "--particle", "electron", "--beta", "0.1", "--b", "1e-10",
     "--mode", "foo"],
    ["atom", "--atom", "H", "--b", "nan"],
    ["evolve", "--particle", "electron", "--b", "3e-11", "--n", "48",
     "--box", "2.4e-10", "--dt", "2e-19", "--steps", "1"],
    ["sweep", "--particle", "electron", "--beta", ""],
    ["sweep", "--particle", "electron", "--beta", ","],
    ["sweep", "--particle", "electron", "--beta", "0.1:0.05:0.01"],
], ids=["b-negative", "b-nan", "b-inf", "mode-unknown", "atom-b-nan", "n-48",
        "beta-grid-empty", "beta-grid-comma", "beta-grid-stop-below-start"])
def test_invalid_input_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("selffield: ")


# stdout of the README examples, to the byte
GOLDEN = [
    (["minimize", "--particle", "electron", "--beta", "0.1"],
     '{"b_over_lambda": 615.031356819, "b_star_m": 1.49225687716e-08, '
     '"beta": 0.1, "binding_eV": 6.41603945888e-05, "mode": "PaperQuoted", '
     '"particle": "electron"}\n'),
    (["energy", "--particle", "electron", "--beta", "0.1", "--b", "5.29e-11",
      "--mode", "Assembled"],
     '{"a_squared_rate_eV": 0.0, "convective_eV": 2554.99475012, '
     '"current_potential_eV": -0.036198030271, '
     '"electrostatic_eV": 5.42970454065, '
     '"internal_kinetic_eV": 5.10555383853, "mode": "Assembled", '
     '"total_eV": 2560.06425072, '
     '"transverse_field_eV": 0.000144792121084}\n'),
    (["sweep", "--particle", "proton", "--beta", "0.05:0.25:0.05"],
     "beta,b_star_m,binding_eV,b_over_lambda,mode,status\n"
     "5.00000000000e-02,3.25083398370e-11,7.36301750156e-03,"
     "1.23006271364e+03,PaperQuoted,ok\n"
     "1.00000000000e-01,8.12708495926e-12,1.17808280025e-01,"
     "6.15031356819e+02,PaperQuoted,ok\n"
     "1.50000000000e-01,3.61203775967e-12,5.96404417627e-01,"
     "4.10020904546e+02,PaperQuoted,ok\n"
     "2.00000000000e-01,2.03177123981e-12,1.88493248040e+00,"
     "3.07515678409e+02,PaperQuoted,ok\n"
     "2.50000000000e-01,1.30033359348e-12,4.60188593848e+00,"
     "2.46012542727e+02,PaperQuoted,ok\n"),
    (["atom", "--atom", "H", "--beta", "0.1"],
     '{"b_over_lambda": 625.254484219, "b_star_m": 8.25767710068e-12, '
     '"beta": 0.1, "binding_eV": 0.0536497377005, '
     '"gamma_m": 5.29177210241e-11, "mode": "PaperQuoted", '
     '"particle": "H"}\n'),
]


@pytest.mark.parametrize("argv,expected", GOLDEN,
                         ids=["minimize", "energy", "sweep", "atom"])
def test_readme_examples_golden_stdout(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert out == expected


# --- exit codes at the edges of the float range ------------------------------------

@pytest.mark.parametrize("argv,expected", [
    (["energy", "--particle", "electron", "--beta", "0.1", "--b", "1e300"], EXIT_NUMERIC),
    (["energy", "--particle", "electron", "--beta", "0.1", "--b", "1e-170"], EXIT_NUMERIC),
    (["minimize", "--particle", "electron", "--beta", "1e-74"], EXIT_NUMERIC),
    (["energy", "--particle", "electron", "--beta", "nan", "--b", "1e-10"], EXIT_CONFIG),
    (["minimize", "--particle", "electron", "--beta", "1.5"], EXIT_CONFIG),
    (["sweep", "--particle", "electron", "--beta", "nan,0.1"], EXIT_CONFIG),
    (["sweep", "--particle", "electron", "--beta", "0:inf:0.1"], EXIT_CONFIG),
    (["sweep", "--particle", "electron", "--beta", "0:1:1e-300"], EXIT_CONFIG),
    (["minimize", "--z", "1", "--mass-kg", "nan", "--beta", "0.1"], EXIT_CONFIG),
    (["atom", "--z-nucleus", "1", "--mass-total-kg", "1.7e-27", "--gamma-m", "nan",
      "--beta", "0.1"], EXIT_CONFIG),
    (["evolve", "--particle", "electron", "--coupling-off", "--b", "3e-11", "--n", "32",
      "--box", "2.4e-10", "--dt", "nan", "--steps", "1"], EXIT_CONFIG),
    (["energy", "--z", "1", "--mass-kg", "1e300", "--beta", "0.5", "--b", "1e-10"],
     EXIT_NUMERIC),
], ids=["energy-b-1e300", "energy-b-1e-170", "minimize-beta-1e-74", "energy-beta-nan",
        "minimize-beta-1.5", "sweep-beta-nan", "sweep-stop-inf", "sweep-too-many",
        "minimize-mass-nan", "atom-gamma-nan", "evolve-dt-nan", "energy-inf-result"])
def test_float_range_exit_codes(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == expected
    assert out == ""
    assert err.startswith("selffield: ")


def _assert_finite_numbers(text):
    cells = (json.loads(text).values() if text.startswith("{")
             else [cell for line in text.splitlines()[1:] for cell in line.split(",")])
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            continue   # the mode label
        assert math.isfinite(value), cell


@pytest.mark.parametrize("argv", [
    ["energy", "--particle", "electron", "--beta", "0.1", "--b", "1e160"],
    ["atom", "--atom", "H", "--b", "1e-310"],
    ["evolve", "--particle", "electron", "--b", "3e-11", "--box", "2.4e-10",
     "--dt", "1e-170", "--n", "32", "--steps", "4"],
], ids=["energy-b-1e160", "atom-b-1e-310", "evolve-dt-1e-170"])
def test_representable_results_at_float_range_edges(capsys, argv):
    # b * b overflows to inf where b**2 raised, so the kinetic energy at
    # b = 1e160 is 0; the atom's 4.6e281 J is prefactor/b times b * bracket;
    # the A^2 rate term divides by dt twice, not by dt^2 = 0
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    _assert_finite_numbers(out)


def test_evolve_stops_at_first_non_finite_record(capsys, monkeypatch):
    # the step-0 record of a 1e-60 m packet overflows: no step runs, and
    # stderr is one line with no numpy warning before it
    from selffield import dynamics

    steps = []
    original = dynamics.step

    def counted_step(*args, **kwargs):
        steps.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(dynamics, "step", counted_step)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "evolve", "--particle", "electron",
                                 "--b", "1e-60", "--box", "8e-60", "--dt", "1e-300",
                                 "--beta", "0.1", "--n", "32", "--steps", "60")
    assert code == EXIT_NUMERIC and out == "" and steps == [] and caught == []
    assert err.startswith("selffield: ") and err.count("\n") == 1
    assert "at step 0" in err



@pytest.mark.parametrize("argv", [
    ["minimize", "--particle", "electron", "--beta", "0.5"],
    ["atom", "--atom", "H", "--beta", "0.5"],
], ids=["minimize", "atom"])
def test_soft_limit_notice_is_one_line(capsys, argv):
    # beta past the soft limit still succeeds; the notice is one selffield:
    # line on stderr, with no Python warning text or source line
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["beta"] == 0.5
    assert err == ("selffield: warning: beta = 0.5 > 0.3: beta^4 terms are no "
                   "longer small; results are indicative only\n")

def test_sweep_tiny_beta_is_a_row_status(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--particle", "electron",
                           "--beta", "1e-170,0.1")
    assert code == EXIT_OK
    assert out.splitlines()[1] == "1.00000000000e-170,,,,,no-minimum"


def test_atom_localizes_shallow_minimum(capsys):
    code, out, _ = run_cli(capsys, "atom", "--z-nucleus", "1",
                           "--mass-total-kg", "3.34524384e-27",
                           "--gamma-m", "1.5875316e-11", "--beta", "0.1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["b_star_m"] == 4.41023466806e-12
    assert data["binding_eV"] == 0.0328419646662


def test_atom_screened_energy_far_out(capsys):
    code, out, _ = run_cli(capsys, "atom", "--atom", "H", "--b", "5.29177210903e-7")
    assert code == EXIT_OK
    assert json.loads(out)["electrostatic_eV"] == 1.01772865233e-20


# --- snapshot validation -------------------------------------------------------------

def _write_snapshot(tmp_path):
    from selffield.dynamics import GridSpec, init_grid, save_snapshot
    from selffield.scales import ELECTRON
    from selffield.wavepacket import GaussianPacket

    b = 3e-11
    spec = GridSpec(n=32, box=8 * b, dt=2e-19, particle=ELECTRON)
    path = tmp_path / "state.snap"
    save_snapshot(init_grid(spec, GaussianPacket(b=b, particle=ELECTRON, beta=0.1)),
                  spec, path)
    header, payload = path.read_bytes().split(b"\n", 1)
    assert _dump(json.loads(header)) == header   # the faults below change only the fault
    return path, json.loads(header), payload


def _dump(header):
    return json.dumps(header, sort_keys=True).encode()


# fault -> (header dict, payload bytes) -> (header line, payload) as written
SNAPSHOT_FAULTS = {
    "missing-key": lambda h, p: (_dump({k: v for k, v in h.items() if k != "dt_s"}), p),
    "extra-key": lambda h, p: (_dump({**h, "extra": 1}), p),
    "n-string": lambda h, p: (_dump({**h, "n": "32"}), p),
    "n-48": lambda h, p: (_dump({**h, "n": 48}), p),
    "t-nan": lambda h, p: (_dump({**h, "t_s": float("nan")}), p),
    "box-negative": lambda h, p: (_dump({**h, "box_m": -1.0}), p),
    "version-2": lambda h, p: (_dump({**h, "version": 2}), p),
    "particle-missing-mass": lambda h, p: (_dump({**h, "particle": {"z": -1}}), p),
    "list-header": lambda h, p: (b"[1, 2]", p),
    "not-json": lambda h, p: (b"{not json", p),
    "binary-header": lambda h, p: (b"\xff\xfe" * 4000, p),
    "trailing-bytes": lambda h, p: (_dump(h), p + bytes(8)),
    "truncated": lambda h, p: (_dump(h), p[:-8]),
    "truncated-odd": lambda h, p: (_dump(h), p[:-3]),
}


@pytest.mark.parametrize("fault", sorted(SNAPSHOT_FAULTS))
def test_malformed_snapshot_is_config_error(capsys, tmp_path, fault):
    path, header, payload = _write_snapshot(tmp_path)
    head, payload = SNAPSHOT_FAULTS[fault](header, payload)
    path.write_bytes(head + b"\n" + payload)
    code, out, err = run_cli(capsys, "evolve", "--snapshot-in", str(path),
                             "--steps", "1")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("selffield: config error: snapshot_in: ")


SNAPSHOT_FIXED = {"particle": "electron", "z": "-1", "mass_kg": "9.1e-31", "beta": "0",
                  "b": "3e-11", "n": "32", "box": "2.4e-10", "dt": "2e-19",
                  "coupling_off": True, "include_diagonal_na": True}


@pytest.mark.parametrize("via", ["argv", "config"])
@pytest.mark.parametrize("key", sorted(SNAPSHOT_FIXED))
def test_snapshot_fixed_flags_are_refused(capsys, tmp_path, key, via):
    # the snapshot fixes the particle, packet, grid and coupling: giving any
    # of them with --snapshot-in is refused, not silently ignored
    path, _, _ = _write_snapshot(tmp_path)
    flag, value = "--" + key.replace("_", "-"), SNAPSHOT_FIXED[key]
    if via == "argv":
        code, out, err = run_cli(capsys, "evolve", "--snapshot-in", str(path), "--steps", "1",
                                 *([flag] if value is True else [flag, value]))
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"command": "evolve", "snapshot_in": str(path),
                                      "steps": 1, key: value}))
        code, out, err = run_cli(capsys, "--config", str(config))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == (f"selffield: config error: {flag}: fixed by the snapshot "
                   "given with --snapshot-in\n")
