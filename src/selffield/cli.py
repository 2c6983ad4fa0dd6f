"""Command-line front door: energy budgets, minimization, sweeps, atoms,
grid evolution, and the self-validation suite.

Exit codes: 0 success, 1 from validate when an invariant fails, 2
configuration/schema error or an input that fails its range check
(negative, NaN or infinite width, beta outside [0, 1), unknown mode,
malformed snapshot, a config value of the wrong JSON type, a grid too large
for physical memory, a particle, packet, grid or coupling flag given with
--snapshot-in, which fixes them, a field given with the --particle or --atom
preset that fixes it, ...), 3 numeric failure (no minimum, no localization,
grid mismatch, a result that overflows or is not finite, ...), 4 I/O error.
A --config file (--config path or --config=path) replaces all other
arguments and takes exactly the subcommand's flags as keys (the schema is
read off the argument parser).  Outputs are deterministic:
identical configs produce byte-identical CSV/JSON, all numerics are written
with 12 significant digits, and each output file gets a .meta.json sidecar
recording the constants version, mode, and tool version.  A warning (beta
past the soft limit) is one "selffield: warning:" line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import warnings

import numpy as np

from . import __version__
from .errors import ConfigError, InvalidVelocityError, SelfFieldError
from .scales import (CONSTANTS_VERSION, EV, PARTICLE_PRESETS, ParticleSpec)
from .wavepacket import GaussianPacket
from .energy_budget import BudgetMode, assemble_budget
from .localization import SWEEP_FIELDS, minimize_radius, sweep
from .atom import ATOM_PRESETS, NeutralAtom, atom_electrostatic_energy, atom_minimize
from .dynamics import (GridSpec, _fft_workers, evolve, init_grid, load_snapshot,
                       save_snapshot)
from .validate import parse_report, report_to_json, run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

MAX_GRID_POINTS = 100_000


def _fmt(x) -> str:
    """12-significant-digit rendering of one value, as a CSV cell template
    renders it; a NaN or infinite result raises FloatingPointError."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise FloatingPointError(f"non-finite result {x}")
        return f"{x:.11e}"
    return "" if x is None else str(x)


def _round12(obj):
    """Recursively round floats to 12 significant digits for JSON output,
    through _fmt and its finite check."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def parse_beta_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive endpoints, tolerance step/2, at
    most MAX_GRID_POINTS values) or a comma-separated list of finite
    numbers; a grid with no value is refused."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("beta_grid", f"expected start:stop:step, got {text!r}")
        start, stop, step_v = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step_v))):
            raise ConfigError("beta_grid", "start, stop and step must be finite")
        if step_v <= 0.0:
            raise ConfigError("beta_grid", "step must be positive")
        grid = []
        value = start
        while value <= stop + 0.5 * step_v:
            if len(grid) == MAX_GRID_POINTS:   # also ends a step too small to advance
                raise ConfigError("beta_grid", f"more than {MAX_GRID_POINTS} values")
            grid.append(round(value, 12))
            value += step_v
    else:
        grid = [float(p) for p in text.split(",") if p.strip()]
        if not all(map(math.isfinite, grid)):
            raise ConfigError("beta_grid", "every beta must be a finite number")
    if not grid:
        raise ConfigError("beta_grid", f"no beta values in {text!r}")
    return grid


def _refuse(args, names, reason):
    """Raise ConfigError(reason) naming the first of names that is given or set."""
    for name in names:
        if getattr(args, name) is not None and getattr(args, name) is not False:
            raise ConfigError("--" + name.replace("_", "-"), reason)


def _parse_particle(args) -> ParticleSpec:
    if args.particle is not None:
        _refuse(args, ("z", "mass_kg"), "fixed by the preset given with --particle")
        return PARTICLE_PRESETS[args.particle]
    if args.z is None or args.mass_kg is None:
        raise ConfigError("particle", "need --particle or both --z and --mass-kg")
    return ParticleSpec(z=args.z, mass=args.mass_kg, label=f"z={args.z}")


def _parse_atom(args) -> NeutralAtom:
    if args.atom is not None:
        _refuse(args, ("z_nucleus", "mass_total_kg", "gamma_m"),
                "fixed by the preset given with --atom")
        return ATOM_PRESETS[args.atom]()
    if args.z_nucleus is None or args.mass_total_kg is None or args.gamma_m is None:
        raise ConfigError("atom", "need --atom or all of --z-nucleus, "
                          "--mass-total-kg, --gamma-m")
    return NeutralAtom(z_nucleus=args.z_nucleus, mass_total=args.mass_total_kg,
                       gamma=args.gamma_m)


def _write_output(path: str | None, text: str, args, mode: str | None = None):
    """text, newline-terminated, to path or stdout; a file gets a .meta.json
    sidecar naming args.command and, for the budget commands, the mode."""
    text += "" if text.endswith("\n") else "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)
    sidecar = {"constants_version": CONSTANTS_VERSION, "tool_version": __version__,
               "command": args.command}
    if mode is not None:
        sidecar["mode"] = mode
    with open(path + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")


# a non-finite float cell as the "%.11e" of a CSV row renders it
_NON_FINITE_CELL = re.compile(r"(?:^|,)(-?inf|nan)(?=,|$)", re.M)


@functools.cache
def _csv_template(types: tuple) -> str:
    """The % template of a CSV row with cells of these types, rendering each
    cell as _fmt does: %.11e for a float (the .11e string of a float is that
    of its 12-digit rounding), nothing for None, %s for anything else."""
    return ",".join("%.11e" if issubclass(t, float) else "%.0s" if t is type(None)
                    else "%s" for t in types)


def _emit(args, payload, fields=(), mode=None) -> int:
    """Write a result dict, or a list of rows in the column order of fields
    (NamedTuples with those _fields where JSON is allowed), rounded to 12
    significant digits: sorted JSON, or under --format csv (the only format
    of evolve) a header over fields and one line per row, formatted by
    the one template of its cell types.  As with _fmt, a NaN or infinite
    float cell raises FloatingPointError (no str cell of a CSV row reads
    inf or nan)."""
    if getattr(args, "format", "json") == "csv":
        rows = ([tuple(map(payload.__getitem__, fields))] if isinstance(payload, dict)
                else payload)
        text = "\n".join([",".join(fields)]
                         + [_csv_template(tuple(map(type, row))) % row for row in rows])
        # no finite .11e cell holds an i or an n: the substring tests spare
        # the usual text the far slower cell search
        if ("inf" in text or "nan" in text) and (bad := _NON_FINITE_CELL.search(text)):
            raise FloatingPointError(f"non-finite result {bad[1]}")
    else:
        if isinstance(payload, list):
            payload = [row._asdict() for row in payload]
        text = json.dumps(_round12(payload), sort_keys=True)
    _write_output(args.output, text, args, mode)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_energy(args) -> int:
    particle = _parse_particle(args)
    mode = BudgetMode.parse(args.mode)
    packet = GaussianPacket(b=args.b, particle=particle, beta=args.beta)
    budget = assemble_budget(packet, mode)
    return _emit(args, budget.to_dict(), budget.CSV_FIELDS, mode.value)


def cmd_minimize(args) -> int:
    particle = _parse_particle(args)
    mode = BudgetMode.parse(args.mode)
    res = minimize_radius(particle, args.beta, mode)
    return _emit(args, res.to_dict(), mode=mode.value)


def cmd_sweep(args) -> int:
    particle = _parse_particle(args)
    mode = BudgetMode.parse(args.mode)
    rows = sweep(particle, parse_beta_grid(args.beta), mode)
    return _emit(args, rows, SWEEP_FIELDS, mode.value)


def cmd_atom(args) -> int:
    atom = _parse_atom(args)
    if args.b is not None:
        return _emit(args, {"z_nucleus": atom.z_nucleus, "gamma_m": atom.gamma,
                            "b_m": args.b,
                            "electrostatic_eV": atom_electrostatic_energy(atom, args.b) / EV})
    return _emit(args, {**atom_minimize(atom, args.beta).to_dict(), "gamma_m": atom.gamma})


# the CSV columns of an evolve run, one row per record
TRAJECTORY_FIELDS = ("step", "t_s", "norm", "energy_J", "px", "py", "pz",
                     "flux_residual_W")

# the fields a snapshot fixes: given with --snapshot-in they are refused
SNAPSHOT_FIELDS = ("particle", "z", "mass_kg", "beta", "b", "n", "box", "dt",
                   "coupling_off", "include_diagonal_na")


def cmd_evolve(args) -> int:
    # evolve stops at the first non-finite record, so numpy's warnings about
    # the overflow behind it stay off stderr
    with np.errstate(all="ignore"):
        if args.snapshot_in is not None:
            _refuse(args, SNAPSHOT_FIELDS, "fixed by the snapshot given with --snapshot-in")
            state, spec = load_snapshot(args.snapshot_in)
        else:
            for name in ("b", "box", "dt"):
                if getattr(args, name) is None:
                    raise ConfigError(name, "required unless --snapshot-in is given")
            particle = _parse_particle(args)
            spec = GridSpec(n=64 if args.n is None else args.n, box=args.box,
                            dt=args.dt, particle=particle,
                            coupling=not args.coupling_off,
                            include_diagonal_na=args.include_diagonal_na)
            packet = GaussianPacket(b=args.b, particle=particle,
                                    beta=0.1 if args.beta is None else args.beta)
            state = init_grid(spec, packet)
        traj = evolve(state, spec, args.steps, record_stride=args.stride)
    _emit(args, [(r.step, r.t, r.norm, r.energy, *map(float, r.momentum), r.flux_residual)
                 for r in traj.records], TRAJECTORY_FIELDS)
    if args.snapshot_out is not None:
        save_snapshot(traj.final_state, spec, args.snapshot_out)
    return EXIT_OK


def cmd_validate(args) -> int:
    report = run_validation(include_dynamics=not args.skip_dynamics)
    text = report_to_json(_round12(report))
    parse_report(text)   # report must round-trip through its own parser
    _write_output(args.output, text, args)
    return EXIT_OK if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# argument schema
# ---------------------------------------------------------------------------

def _add_particle_args(sub):
    sub.add_argument("--particle", choices=sorted(PARTICLE_PRESETS),
                     help="particle preset")
    sub.add_argument("--z", type=int, help="signed charge multiple")
    sub.add_argument("--mass-kg", type=float, help="particle mass in kg")


def _add_output_args(sub, formats=("json", "csv")):
    sub.add_argument("--output", help="output file path (default: stdout)")
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selffield",
        description="Coherent self-field localization energetics and dynamics")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="JSON run configuration file")
    subs = parser.add_subparsers(dest="command")

    p_energy = subs.add_parser("energy", help="evaluate the energy budget at fixed width")
    _add_particle_args(p_energy)
    p_energy.add_argument("--beta", type=float, required=True)
    p_energy.add_argument("--b", type=float, required=True, help="packet width in m")
    p_energy.add_argument("--mode", default="PaperQuoted")
    _add_output_args(p_energy)
    p_energy.set_defaults(fn=cmd_energy)

    p_min = subs.add_parser("minimize", help="find the localization radius and binding energy")
    _add_particle_args(p_min)
    p_min.add_argument("--beta", type=float, required=True)
    p_min.add_argument("--mode", default="PaperQuoted")
    _add_output_args(p_min, formats=())
    p_min.set_defaults(fn=cmd_minimize)

    p_sweep = subs.add_parser("sweep", help="minimize over a beta grid")
    _add_particle_args(p_sweep)
    p_sweep.add_argument("--beta", required=True,
                         help="grid: start:stop:step or comma list")
    p_sweep.add_argument("--mode", default="PaperQuoted")
    _add_output_args(p_sweep, formats=("csv", "json"))
    p_sweep.set_defaults(fn=cmd_sweep)

    p_atom = subs.add_parser("atom", help="neutral-atom energy or localization")
    p_atom.add_argument("--atom", choices=sorted(ATOM_PRESETS), help="atom preset")
    p_atom.add_argument("--z-nucleus", type=int)
    p_atom.add_argument("--mass-total-kg", type=float)
    p_atom.add_argument("--gamma-m", type=float, help="electron-cloud radius in m")
    p_atom.add_argument("--beta", type=float, default=0.1)
    p_atom.add_argument("--b", type=float,
                        help="evaluate the screened energy at this width instead of minimizing")
    _add_output_args(p_atom, formats=())
    p_atom.set_defaults(fn=cmd_atom)

    p_evo = subs.add_parser("evolve", help="co-evolve the packet and its field on a grid")
    _add_particle_args(p_evo)
    p_evo.add_argument("--beta", type=float, help="packet velocity / c (default 0.1)")
    p_evo.add_argument("--b", type=float, help="packet width in m")
    p_evo.add_argument("--n", type=int, help="grid points per axis (default 64)")
    p_evo.add_argument("--box", type=float, help="box edge in m")
    p_evo.add_argument("--dt", type=float, help="time step in s")
    p_evo.add_argument("--steps", type=int, required=True)
    p_evo.add_argument("--stride", type=int, default=1, help="record stride")
    p_evo.add_argument("--coupling-off", action="store_true")
    p_evo.add_argument("--include-diagonal-na", action="store_true")
    p_evo.add_argument("--snapshot-in", help="resume from a snapshot file")
    p_evo.add_argument("--snapshot-out", help="write the final state here")
    _add_output_args(p_evo, formats=())
    p_evo.set_defaults(fn=cmd_evolve, format="csv")

    p_val = subs.add_parser("validate", help="run the self-validation suite")
    p_val.add_argument("--skip-dynamics", action="store_true",
                       help="omit the grid smoke checks")
    _add_output_args(p_val, formats=())
    p_val.set_defaults(fn=cmd_validate)

    return parser


# the process's one parser; the strict schema for --config files is read off
# it: exactly the flags of each subcommand, and the store_true switches, the
# only keys that take a JSON boolean
_PARSER = build_parser()
_SUBCOMMANDS = next(a for a in _PARSER._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
CONFIG_KEYS = {name: {a.dest for a in sub._actions if a.dest != "help"}
               for name, sub in _SUBCOMMANDS.items()}
CONFIG_SWITCHES = {a.dest for sub in _SUBCOMMANDS.values() for a in sub._actions
                   if isinstance(a, argparse._StoreTrueAction)}


def config_to_argv(config) -> list[str]:
    """Translate a JSON config object into an argv list, rejecting unknown
    keys, a command that is not a string, and values of the wrong JSON type:
    true/false for the switches, a string or a number for every other key."""
    if not isinstance(config, dict):
        raise ConfigError("config", f"expected a JSON object, got {type(config).__name__}")
    if "command" not in config:
        raise ConfigError("command", "missing")
    command = config["command"]
    if not isinstance(command, str) or command not in CONFIG_KEYS:
        raise ConfigError("command", f"unknown command {command!r}")
    allowed = CONFIG_KEYS[command]
    argv = [command]
    for key, value in config.items():
        if key == "command":
            continue
        if key not in allowed:
            raise ConfigError(f"{command}.{key}",
                              f"unknown or irrelevant key for command {command!r}")
        flag = "--" + key.replace("_", "-")
        if key in CONFIG_SWITCHES:
            if not isinstance(value, bool):
                raise ConfigError(f"{command}.{key}", "expected true or false")
            if value:
                argv.append(flag)
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            argv.extend([flag, str(value)])
        else:
            raise ConfigError(f"{command}.{key}", "expected a string or a number, "
                              f"got {type(value).__name__}")
    return argv


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _PARSER.parse_args(argv)
        if args.config is not None:
            if args.command is not None:
                raise ConfigError("config", "a config file replaces all other arguments")
            try:
                with open(args.config) as fh:
                    config = json.load(fh)
            except OSError as exc:
                sys.stderr.write(f"selffield: cannot read config: {exc}\n")
                return EXIT_IO
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ConfigError("config", f"invalid JSON: {exc}") from exc
            args = _PARSER.parse_args(config_to_argv(config))
        if args.command is None:
            _PARSER.print_usage(sys.stderr)
            return EXIT_CONFIG
        _fft_workers()   # a malformed SELFFIELD_THREADS fails every subcommand
        with warnings.catch_warnings():   # a warning is one selffield: line
            warnings.showwarning = lambda message, *_: sys.stderr.write(
                f"selffield: warning: {message}\n")
            return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"selffield: config error: {exc}\n")
        return EXIT_CONFIG
    except (InvalidVelocityError, ValueError) as exc:
        # the package's input checks (velocities, widths, grid sizes, modes, ...)
        sys.stderr.write(f"selffield: invalid input: {exc}\n")
        return EXIT_CONFIG
    except SelfFieldError as exc:
        sys.stderr.write(f"selffield: {exc}\n")
        return EXIT_NUMERIC
    except ArithmeticError as exc:
        # overflow, underflow to a zero divisor, or a non-finite result
        sys.stderr.write(f"selffield: numeric failure: {exc!r}\n")
        return EXIT_NUMERIC
    except OSError as exc:
        sys.stderr.write(f"selffield: I/O error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
