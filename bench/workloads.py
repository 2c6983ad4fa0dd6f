"""The three benchmark workloads: seeded inputs, one timed unit, output checks.

Each workload draws its inputs from ``random.Random`` seeded with the
benchmark seed, so the package sees only the generated numbers.  ``setup``
builds the inputs the timed work starts from (after the imports, which the
caller times too), ``unit`` runs one unit of timed work and returns its
operations, and ``check`` returns the reason an operation failed, or None.

Every call into the package goes through a module attribute looked up at
call time (``dynamics.evolve``, ``cli.main``), so the span wrappers of the
traced run see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass

WIDTH_M = 3e-11   # packet width b of the acceptance-criterion dynamics runs


@dataclass
class Op:
    """One operation of a unit: its kind, duration, items done and output."""

    kind: str
    seconds: float
    items: int
    output: object = None
    error: str | None = None
    context: object = None   # what check needs to know about the inputs


def _timed(kind, items, fn, *args, context=None):
    start = time.perf_counter()
    try:
        output = fn(*args)
    except Exception as exc:  # a raising operation is a failed operation
        return Op(kind, time.perf_counter() - start, items,
                  error=f"{type(exc).__name__}: {exc}", context=context)
    return Op(kind, time.perf_counter() - start, items, output, context=context)


def _cli(argv):
    """Run ``selffield <argv>`` in-process; returns (exit code, stdout)."""
    from selffield import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _unit_vector(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return [c / norm for c in v]


def _drifts(records):
    """(norm drift, |dE|/E, |dP|/P) over records of (norm, energy, momentum)."""
    _, e0, p0 = records[0]
    p0 = math.sqrt(sum(c * c for c in p0))
    norm = max(abs(r[0] - 1.0) for r in records)
    energy = max(abs(r[1] - e0) / abs(e0) for r in records)
    momentum = max(abs(math.sqrt(sum(c * c for c in r[2])) - p0) / p0
                   for r in records)
    return norm, energy, momentum


def _drift_failure(records, norm_tol, rel_tol):
    norm, energy, momentum = _drifts(records)
    if not (norm < norm_tol and energy < rel_tol and momentum < rel_tol):
        return (f"drift over tolerance: norm {norm:.2e} (<{norm_tol:g}), "
                f"|dE|/E {energy:.2e} (<{rel_tol:g}), |dP|/P {momentum:.2e} "
                f"(<{rel_tol:g})")
    return None


class EvolveN64:
    """Acceptance-criterion-7 configuration through init_grid + evolve.

    Electron, b = 3e-11 m, n = 64, box 10 b, dt = 6e-20 s, record stride
    100; the seed picks beta in [0.05, 0.15] and the drift direction.  One
    unit is one evolve call of ``steps`` coupled steps from the initial state.
    """

    name = "evolve-n64"
    rate = ("evolve", "steps_per_s")   # op kind behind throughput_per_s
    threads = None   # SELFFIELD_THREADS default: nproc

    def __init__(self, seed, tiny, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        self.beta = rng.uniform(0.05, 0.15)
        self.direction = _unit_vector(rng)
        # n = 32 needs box 8 b for the 4 box/n resolution bound
        self.n, self.box = (32, 8 * WIDTH_M) if tiny else (64, 10 * WIDTH_M)
        self.dt = 6e-20
        self.steps = 3 if tiny else 100
        self.stride = 100

    def describe(self):
        return (f"n={self.n} box={self.box:.3g} m dt={self.dt:g} s "
                f"steps/unit={self.steps} stride={self.stride} "
                f"beta={self.beta:.6f} direction={[round(c, 6) for c in self.direction]}")

    def setup(self):
        import numpy as np
        from selffield import dynamics
        from selffield.scales import ELECTRON
        from selffield.wavepacket import GaussianPacket

        self.spec = dynamics.GridSpec(n=self.n, box=self.box, dt=self.dt,
                                      particle=ELECTRON, coupling=True)
        packet = GaussianPacket(b=WIDTH_M, particle=ELECTRON, beta=self.beta,
                                direction=np.array(self.direction))
        self.state0 = dynamics.init_grid(self.spec, packet)

    def unit(self):
        from selffield import dynamics

        return [_timed("evolve", self.steps, dynamics.evolve, self.state0,
                       self.spec, self.steps, self.stride)]

    def check(self, op):
        from selffield import dynamics

        traj = op.output
        if len(traj.records) != 2 or traj.records[-1].step != self.steps:
            return f"expected records at steps 0 and {self.steps}"
        failure = _drift_failure(
            [(r.norm, r.energy, r.momentum.tolist()) for r in traj.records],
            1e-9, 1e-6)
        if failure:
            return failure
        residual = dynamics.transversality_residual(traj.final_state.a_field,
                                                    self.spec)
        if not residual <= 1e-10:
            return f"transversality residual {residual:.2e} > 1e-10"
        return None


class EvolveN32Records:
    """Resume through the CLI with a diagnostics record due every step.

    Setup writes a snapshot of the seeded n = 32 packet (the validate smoke
    configuration: box 8 b, dt 2e-19 s); the seed picks beta in [0.05, 0.12]
    and the drift direction.  One unit is one in-process
    ``selffield evolve --snapshot-in ... --stride 1 --output ...
    --snapshot-out ...`` call.
    """

    name = "evolve-n32-records"
    rate = ("cli-evolve", "steps_per_s")
    threads = None

    def __init__(self, seed, tiny, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        # drift wavenumber <= 0.74 of Nyquist on this grid; from beta ~ 0.135
        # along an axis the momentum drift passes 1e-8 (3.6e-6 at 0.149)
        self.beta = rng.uniform(0.05, 0.12)
        self.direction = _unit_vector(rng)
        self.n, self.box, self.dt = 32, 8 * WIDTH_M, 2e-19
        self.steps = 3 if tiny else 40
        self.snapshot_in = os.path.join(workdir, "resume.bin")
        self.csv = os.path.join(workdir, "records.csv")
        self.snapshot_out = os.path.join(workdir, "final.bin")
        self.reference = None

    def describe(self):
        return (f"n={self.n} box={self.box:.3g} m dt={self.dt:g} s "
                f"steps/unit={self.steps} stride=1 beta={self.beta:.6f} "
                f"direction={[round(c, 6) for c in self.direction]}")

    def setup(self):
        import numpy as np
        from selffield import dynamics
        from selffield.scales import ELECTRON
        from selffield.wavepacket import GaussianPacket

        spec = dynamics.GridSpec(n=self.n, box=self.box, dt=self.dt,
                                 particle=ELECTRON, coupling=True)
        packet = GaussianPacket(b=WIDTH_M, particle=ELECTRON, beta=self.beta,
                                direction=np.array(self.direction))
        dynamics.save_snapshot(dynamics.init_grid(spec, packet), spec,
                               self.snapshot_in)

    def unit(self):
        argv = ["evolve", "--snapshot-in", self.snapshot_in,
                "--steps", str(self.steps), "--stride", "1",
                "--output", self.csv, "--snapshot-out", self.snapshot_out]
        return [_timed("cli-evolve", self.steps, _cli, argv)]

    def check(self, op):
        code, _ = op.output
        if code != 0:
            return f"exit code {code}"
        with open(self.csv, "rb") as fh:
            csv_bytes = fh.read()
        with open(self.snapshot_out, "rb") as fh:
            snap_bytes = fh.read()
        lines = csv_bytes.decode().splitlines()[1:]
        if len(lines) != self.steps + 1:
            return f"{len(lines)} records for {self.steps} steps at stride 1"
        records = []
        for line in lines:
            cells = [float(c) for c in line.split(",")]
            records.append((cells[2], cells[3], cells[4:7]))
        failure = _drift_failure(records, 1e-11, 1e-6)
        if failure:
            return failure
        digest = (hashlib.sha256(csv_bytes).hexdigest(),
                  hashlib.sha256(snap_bytes).hexdigest())
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            return "CSV or snapshot bytes differ from the first unit's"
        return None


def _exact_localization(z, mass, beta, mode):
    """Closed-form (b*, binding in eV) for a charged particle in either mode.

    Both budget modes are K/b^2 - C/b; Assembled scales the attraction C by
    1 - (4/15)/(2/3) beta^2 = 1 - 0.4 beta^2, so b* divides and the depth
    multiplies by that factor (squared) relative to the paper closed form.
    """
    from selffield.localization import closed_form_binding, closed_form_radius
    from selffield.scales import EV, ParticleSpec

    particle = ParticleSpec(z=z, mass=mass)
    factor = 1.0 if mode == "PaperQuoted" else 1.0 - 0.4 * beta**2
    return (closed_form_radius(particle, beta) / factor,
            closed_form_binding(particle, beta) * factor**2 / EV)


def _rel(got, want):
    return abs(got - want) / abs(want)


class Localize:
    """Analytic localization through the CLI: no FFTs at all.

    One unit is a round of in-process CLI calls: ``sweep --output`` over a
    seeded beta grid in [0.01, 0.29] for the electron, the proton and two
    seeded scaled particles in both budget modes, single-shot ``minimize``,
    ``energy`` and ``atom`` (H, He) calls, and one ``validate
    --skip-dynamics``.
    """

    name = "localize"
    rate = ("sweep", "sweep_betas_per_s")
    # one sweep worker: the GIL serializes the pool, and two workers gave
    # the same median round with twice the run-to-run spread
    threads = 1
    MODES = ("PaperQuoted", "Assembled")

    def __init__(self, seed, tiny, workdir):
        from selffield.scales import ELECTRON, PROTON

        rng = random.Random(f"{self.name}:{seed}")
        self.particles = [("electron", ELECTRON.z, ELECTRON.mass),
                          ("proton", PROTON.z, PROTON.mass)]
        for _ in range(2):
            z = rng.choice([-2, -1, 1, 2, 3])
            self.particles.append(
                (None, z, ELECTRON.mass * 10.0 ** rng.uniform(0.0, 4.0)))
        # 4 particles x 2 modes x 125 = 1000 rows; tiny: electron, 2 x 5 rows
        swept, per_sweep = (self.particles[:1], 5) if tiny else (self.particles, 125)
        self.sweeps = []
        for preset, z, mass in swept:
            for mode in self.MODES:
                betas = [round(rng.uniform(0.01, 0.29), 6) for _ in range(per_sweep)]
                path = os.path.join(workdir, f"sweep{len(self.sweeps)}.csv")
                argv = (["sweep"] + self._particle_args(preset, z, mass)
                        + ["--beta", ",".join(repr(b) for b in betas),
                           "--mode", mode, "--output", path])
                self.sweeps.append((argv, path, z, mass, betas, mode))
        shots = 1 if tiny else 4
        self.calls = []
        for _ in range(shots):
            preset, z, mass = rng.choice(self.particles)
            beta = round(rng.uniform(0.01, 0.29), 6)
            mode = rng.choice(self.MODES)
            self.calls.append((["minimize"] + self._particle_args(preset, z, mass)
                               + ["--beta", repr(beta), "--mode", mode],
                               ("minimize", z, mass, beta, mode)))
            b = 10.0 ** rng.uniform(-12.0, -8.0)
            self.calls.append((["energy"] + self._particle_args(preset, z, mass)
                               + ["--beta", repr(beta), "--b", repr(b),
                                  "--mode", mode], ("energy",)))
            for atom in ("H", "He"):
                # below beta ~ 0.082 screening wins for H (exit 3 by design)
                beta = round(rng.uniform(0.1, 0.29), 6)
                self.calls.append((["atom", "--atom", atom, "--beta", repr(beta)],
                                   ("atom",)))

    @staticmethod
    def _particle_args(preset, z, mass):
        if preset is not None:
            return ["--particle", preset]
        return ["--z", str(z), "--mass-kg", repr(mass)]

    def describe(self):
        rows = sum(len(s[4]) for s in self.sweeps)
        return (f"sweeps/unit={len(self.sweeps)} rows/unit={rows} "
                f"single-shot calls/unit={len(self.calls)} validate/unit=1 "
                f"scaled particles={[(z, f'{m:.4g}') for _, z, m in self.particles[2:]]}")

    def setup(self):
        pass   # inputs are argv lists, built in __init__

    def unit(self):
        ops = [_timed("sweep", len(sweep[4]), _cli, sweep[0], context=sweep)
               for sweep in self.sweeps]
        ops += [_timed("cli-call", 1, _cli, argv, context=expect)
                for argv, expect in self.calls]
        ops.append(_timed("validate", 1, _cli, ["validate", "--skip-dynamics"]))
        return ops

    def check(self, op):
        (code, stdout), context = op.output, op.context
        if code != 0:
            return f"{op.kind}: exit code {code}"
        if op.kind == "sweep":
            return self._check_sweep(context)
        if op.kind == "validate":
            report = json.loads(stdout)
            failed = [e["name"] for e in report["entries"] if not e["passed"]]
            return f"validate failed: {failed}" if not report["all_passed"] else None
        payload = json.loads(stdout)
        if context[0] == "minimize":
            _, z, mass, beta, mode = context
            b_star, binding = _exact_localization(z, mass, beta, mode)
            worst = max(_rel(payload["b_star_m"], b_star),
                        _rel(payload["binding_eV"], binding))
            return None if worst < 1e-6 else f"minimize off closed form by {worst:.2e}"
        if context[0] == "energy":
            parts = sum(payload[k] for k in (
                "convective_eV", "internal_kinetic_eV", "current_potential_eV",
                "transverse_field_eV"))
            if not all(math.isfinite(v) for v in payload.values()
                       if isinstance(v, float)):
                return "energy: non-finite value"
            return (None if _rel(parts, payload["total_eV"]) < 1e-9
                    else "energy: items do not add up to the total")
        return (None if payload["binding_eV"] > 0.0
                else f"atom binding {payload['binding_eV']} <= 0")

    @staticmethod
    def _check_sweep(context):
        _, path, z, mass, betas, mode = context
        with open(path) as fh:
            rows = fh.read().splitlines()
        header = rows[0].split(",")
        if len(rows) != len(betas) + 1:
            return f"sweep: {len(rows) - 1} rows for {len(betas)} betas"
        worst = 0.0
        for beta, line in zip(betas, rows[1:]):
            row = dict(zip(header, line.split(",")))
            if row["status"] != "ok":
                return f"sweep: beta={beta} status {row['status']}"
            b_star, binding = _exact_localization(z, mass, beta, mode)
            worst = max(worst, _rel(float(row["b_star_m"]), b_star),
                        _rel(float(row["binding_eV"]), binding))
        return None if worst < 1e-6 else f"sweep off closed form by {worst:.2e}"


WORKLOADS = {w.name: w for w in (EvolveN64, EvolveN32Records, Localize)}
