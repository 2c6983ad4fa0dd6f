"""Self-validation suite: runs every module's invariants at reduced sizes.

Produces a machine-readable report (one entry per invariant with the
measured residual and its tolerance) designed to finish in well under a
minute.  The localization reference check recomputes the closed forms from
the constants object it is handed, so tampered constants fail it by name.
The two sampled checks (projector idempotence, field transversality) draw
their samples in a fixed order from the suite's generator and evaluate them
as one (N, 3) stack through the coherent_field kernels.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .scales import (CONST, CONSTANTS_VERSION, ELECTRON, PROTON,
                     ParticleSpec, PhysicalConstants, derived_scales)
from .wavepacket import (GaussianPacket, density_fourier,
                         fourier_density_numeric, gaussian_profile,
                         internal_kinetic_energy,
                         internal_kinetic_energy_numeric,
                         uniform_ball_profile)
from .coherent_field import (efield_spectrum, mean_potential_coefficient,
                             momentum_coefficient, potential_spectrum,
                             transverse_project, transversality_residuals)
from .energy_budget import (BudgetMode, assemble_budget,
                            current_potential_energy,
                            current_potential_energy_quadrature,
                            electrostatic_energy,
                            electrostatic_energy_quadrature,
                            transverse_field_energy_quadrature)
from .localization import (RADIUS_PREFACTOR, BINDING_PREFACTOR,
                           closed_form_binding, closed_form_radius,
                           debroglie_ratio, minimize_radius)
from .dynamics import (GridSpec, evolve, init_grid, load_snapshot, save_snapshot,
                       transversality_residual)
from .atom import (BOHR_RADIUS, atom_electrostatic_energy,
                   atom_electrostatic_energy_quadrature, bare_nucleus_energy,
                   hydrogen_atom, screened_bracket)

# Frozen reference numbers (CODATA-2018 closed forms, electron/proton at
# beta = 0.1); the tamper-detection check compares against these literals.
REF_ELECTRON_B_STAR_M = 1.4922568771641422e-08
REF_ELECTRON_BINDING_EV = 6.41603945888385e-05
REF_PROTON_B_STAR_M = 8.127084959258953e-12
REF_PROTON_BINDING_EV = 0.11780828002503049


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "residual": self.residual, "tolerance": self.tolerance}


def _check(name: str, residual: float, tolerance: float) -> CheckResult:
    return CheckResult(name=name, passed=bool(residual <= tolerance),
                       residual=float(residual), tolerance=float(tolerance))


def check_projector_idempotence(rng) -> CheckResult:
    """P_perp P_perp v = P_perp v over 200 random (q, v), projected as one
    (200, 3) stack."""
    q, v = rng.standard_normal((200, 2, 3)).transpose(1, 0, 2)
    once = transverse_project(q, v)
    twice = transverse_project(q, once)
    scale = np.linalg.norm(v, axis=-1) + 1e-300
    worst = np.max(np.linalg.norm(twice - once, axis=-1) / scale)
    return _check("projector-idempotence", worst, 1e-14)


def check_field_transversality(rng) -> CheckResult:
    """q . A_hat = q . E_perp = 0 over 1000 random (packet, q) samples: the
    packets are drawn one by one, their b, p_c, v_c and q filled into
    (1000, ...) stacks, and the fields evaluated as one batch."""
    q, momentum, velocity = np.empty((3, 1000, 3))
    b = np.empty(1000)
    for i in range(1000):
        b[i] = BOHR_RADIUS * 10.0 ** rng.uniform(-1, 1)
        beta = rng.uniform(0.01, 0.3)
        direction = rng.standard_normal(3)
        pkt = GaussianPacket(b=b[i], particle=ELECTRON, beta=beta, direction=direction)
        momentum[i], velocity[i] = pkt.momentum, pkt.velocity
        q[i] = rng.standard_normal(3) / b[i]
    a = potential_spectrum(q, b, momentum, ELECTRON.charge / ELECTRON.mass)
    e = efield_spectrum(q, a, velocity)
    worst = max(np.max(transversality_residuals(q, a)),
                np.max(transversality_residuals(q, e)))
    return _check("field-transversality", worst, 1e-12)


def check_form_factor_oracle() -> CheckResult:
    worst = 0.0
    for b in (0.5 * BOHR_RADIUS, BOHR_RADIUS, 3.0 * BOHR_RADIUS):
        prof = gaussian_profile(b)
        pkt = GaussianPacket(b=b, particle=ELECTRON)
        for qb in (0.0, 0.3, 1.0, 2.5, 5.0):
            q = qb / b
            worst = max(worst, abs(fourier_density_numeric(prof, q)
                                   - density_fourier(pkt, q)))
    return _check("gaussian-form-factor-oracle", worst, 1e-10)


def check_uniform_ball_form_factor() -> CheckResult:
    radius = 2.0e-10
    prof = uniform_ball_profile(radius)
    x = math.pi
    expected = 3.0 * (math.sin(x) - x * math.cos(x)) / x**3
    got = fourier_density_numeric(prof, x / radius)
    return _check("uniform-ball-form-factor", abs(got - expected), 1e-10)


def check_electrostatic_dual_path() -> CheckResult:
    worst = 0.0
    for b in np.logspace(-12, -6, 5):
        pkt = GaussianPacket(b=float(b), particle=ELECTRON, beta=0.1)
        closed = electrostatic_energy(pkt)
        quad_val = electrostatic_energy_quadrature(pkt)
        worst = max(worst, abs(quad_val - closed) / closed)
    return _check("electrostatic-dual-path", worst, 1e-10)


def check_kinetic_dual_path() -> CheckResult:
    worst = 0.0
    for b in np.logspace(-12, -6, 5):
        pkt = GaussianPacket(b=float(b), particle=ELECTRON)
        closed = internal_kinetic_energy(pkt)
        numeric = internal_kinetic_energy_numeric(pkt)
        worst = max(worst, abs(numeric - closed) / closed)
    return _check("kinetic-dual-path", worst, 1e-10)


def _coefficient_grid():
    for b_factor in (0.1, 1.0, 10.0):
        for beta in (0.01, 0.1, 0.2):
            yield GaussianPacket(b=b_factor * BOHR_RADIUS, particle=ELECTRON, beta=beta)


def check_coefficient_mean_potential() -> CheckResult:
    worst = max(abs(mean_potential_coefficient(p) + 4.0 / 3.0) / (4.0 / 3.0)
                for p in _coefficient_grid())
    return _check("coefficient-mean-potential-4-3", worst, 1e-8)


def check_coefficient_current_potential() -> CheckResult:
    worst = 0.0
    for p in _coefficient_grid():
        expected = -2.0 / 3.0 * p.beta**2 * electrostatic_energy(p)
        got = current_potential_energy_quadrature(p)
        worst = max(worst, abs(got - expected) / abs(expected))
    return _check("coefficient-current-potential-2-3", worst, 1e-8)


def check_coefficient_efield() -> CheckResult:
    worst = 0.0
    for p in _coefficient_grid():
        expected = 4.0 / 15.0 * p.beta**4 * electrostatic_energy(p)
        got = transverse_field_energy_quadrature(p)
        worst = max(worst, abs(got - expected) / expected)
    return _check("coefficient-transverse-field-4-15", worst, 1e-8)


def check_coefficient_momentum() -> CheckResult:
    worst = max(abs(momentum_coefficient(p) - 4.0 / 15.0) / (4.0 / 15.0)
                for p in _coefficient_grid())
    return _check("coefficient-momentum-4-15", worst, 1e-8)


def check_localization_closed_form() -> CheckResult:
    worst = 0.0
    for particle in (ELECTRON, PROTON):
        for beta in (0.05, 0.1, 0.3):
            res = minimize_radius(particle, beta)
            worst = max(
                worst,
                abs(res.b_star - closed_form_radius(particle, beta)) / res.b_star,
                abs(res.binding_energy - closed_form_binding(particle, beta))
                / res.binding_energy)
    return _check("localization-closed-form", worst, 1e-6)


def check_localization_reference(constants: PhysicalConstants) -> CheckResult:
    """Recompute the beta = 0.1 closed forms from the supplied constants and
    compare with the frozen reference numbers (tamper detection)."""
    beta = 0.1
    scales = derived_scales(ParticleSpec(z=-1, mass=constants.m_electron),
                            beta, constants)
    b_star = RADIUS_PREFACTOR * scales.bohr_like_length / beta**2
    binding_ev = (BINDING_PREFACTOR * beta**4 * scales.rydberg_like_energy
                  / constants.e_charge)
    worst = max(abs(b_star - REF_ELECTRON_B_STAR_M) / REF_ELECTRON_B_STAR_M,
                abs(binding_ev - REF_ELECTRON_BINDING_EV) / REF_ELECTRON_BINDING_EV)
    return _check("localization-reference-values", worst, 1e-9)


def check_virial_identity() -> CheckResult:
    worst = 0.0
    for particle in (ELECTRON, PROTON):
        for beta in (0.05, 0.1, 0.2):
            res = minimize_radius(particle, beta)
            pkt = GaussianPacket(b=res.b_star, particle=particle, beta=beta)
            kin = internal_kinetic_energy(pkt)
            attr = current_potential_energy(pkt)
            worst = max(worst,
                        abs(kin - res.binding_energy) / res.binding_energy,
                        abs(abs(attr) - 2.0 * res.binding_energy)
                        / (2.0 * res.binding_energy))
    return _check("virial-identity", worst, 1e-9)


def check_debroglie_mass_independence() -> CheckResult:
    worst = 0.0
    for beta in (0.05, 0.1, 0.2):
        r_e = debroglie_ratio(ELECTRON, beta)
        r_p = debroglie_ratio(PROTON, beta)
        worst = max(worst, abs(r_e - r_p) / r_e)
    return _check("debroglie-mass-independence", worst, 1e-12)


def check_atom_limits() -> CheckResult:
    atom = hydrogen_atom()
    gamma = atom.gamma
    delocalized = atom_electrostatic_energy(atom, 1e3 * gamma)
    bare_far = bare_nucleus_energy(atom, 1e3 * gamma)
    ratio_far = delocalized / bare_far          # must be <= 1e-5
    localized = atom_electrostatic_energy(atom, 1e-3 * gamma)
    bare_near = bare_nucleus_energy(atom, 1e-3 * gamma)
    ratio_near = abs(localized - bare_near) / bare_near   # must be <= 2e-3
    quad_rel = 0.0
    for b in (0.3 * gamma, gamma, 3.0 * gamma):
        closed = atom_electrostatic_energy(atom, b)
        numeric = atom_electrostatic_energy_quadrature(atom, b)
        quad_rel = max(quad_rel, abs(numeric - closed) / closed)
    residual = max(ratio_far / 1e-5, ratio_near / 2e-3, quad_rel / 1e-10)
    return _check("atom-limits", residual, 1.0)


def check_atom_bracket_monotonicity() -> CheckResult:
    b_grid = np.logspace(-2, 2, 20)
    g_grid = np.logspace(-2, 2, 20)
    worst = 0.0
    for b in b_grid:
        vals = [screened_bracket(float(b), float(g)) for g in g_grid]
        for lo, hi in zip(vals, vals[1:]):
            worst = max(worst, (lo - hi) * b)      # dimensionless slack
        worst = max(worst, -min(vals) * b, (max(vals) * b) - 1.0)
    return _check("atom-bracket-monotonicity", worst, 1e-12)


def check_budget_additivity() -> CheckResult:
    pkt = GaussianPacket(b=2e-10, particle=ELECTRON, beta=0.1)
    worst = 0.0
    for mode in BudgetMode:
        budget = assemble_budget(pkt, mode)
        total = (budget.convective + budget.internal_kinetic
                 + budget.current_potential + budget.transverse_field)
        worst = max(worst, 0.0 if total == budget.total else 1.0)
    return _check("budget-additivity-bitwise", worst, 0.0)


def check_dynamics_smoke() -> CheckResult:
    b = 3e-11
    spec = GridSpec(n=32, box=8 * b, dt=2e-19, particle=ELECTRON, coupling=True)
    pkt = GaussianPacket(b=b, particle=ELECTRON, beta=0.1)
    state = init_grid(spec, pkt)
    traj = evolve(state, spec, 30, record_stride=30)
    norm_drift = max(abs(r.norm - 1.0) for r in traj.records)
    trans = transversality_residual(traj.final_state.a_field, spec)
    residual = max(norm_drift / 1e-11, trans / 1e-10)
    return _check("dynamics-unitarity-smoke", residual, 1.0)


def check_snapshot_roundtrip(tmpdir=None) -> CheckResult:
    b = 3e-11
    spec = GridSpec(n=32, box=8 * b, dt=2e-19, particle=ELECTRON, coupling=True)
    pkt = GaussianPacket(b=b, particle=ELECTRON, beta=0.1)
    state = init_grid(spec, pkt)
    with tempfile.TemporaryDirectory(dir=tmpdir) as d:
        path = os.path.join(d, "snap.bin")
        save_snapshot(state, spec, path)
        loaded, spec2 = load_snapshot(path, label=spec.particle.label)
    same = (np.array_equal(loaded.psi, state.psi)
            and np.array_equal(loaded.a_field, state.a_field)
            and loaded.t == state.t and spec2 == spec)
    return _check("snapshot-roundtrip-bitwise", 0.0 if same else 1.0, 0.0)


def run_validation(constants: PhysicalConstants = CONST,
                   include_dynamics: bool = True) -> dict:
    """Execute the full suite; returns the JSON-ready report mapping."""
    rng = np.random.default_rng(20230527)
    checks = [
        check_projector_idempotence(rng),
        check_field_transversality(rng),
        check_form_factor_oracle(),
        check_uniform_ball_form_factor(),
        check_electrostatic_dual_path(),
        check_kinetic_dual_path(),
        check_coefficient_mean_potential(),
        check_coefficient_current_potential(),
        check_coefficient_efield(),
        check_coefficient_momentum(),
        check_localization_closed_form(),
        check_localization_reference(constants),
        check_virial_identity(),
        check_debroglie_mass_independence(),
        check_atom_limits(),
        check_atom_bracket_monotonicity(),
        check_budget_additivity(),
    ]
    if include_dynamics:
        checks.append(check_dynamics_smoke())
        checks.append(check_snapshot_roundtrip())
    return {
        "tool_version": __version__,
        "constants_version": CONSTANTS_VERSION,
        "entries": [c.to_dict() for c in checks],
        "all_passed": all(c.passed for c in checks),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def parse_report(text: str) -> dict:
    """Inverse of report_to_json; validates the expected structure."""
    report = json.loads(text)
    for key in ("tool_version", "constants_version", "entries", "all_passed"):
        if key not in report:
            raise ValueError(f"malformed validation report: missing {key}")
    for entry in report["entries"]:
        for key in ("name", "passed", "residual", "tolerance"):
            if key not in entry:
                raise ValueError(f"malformed validation entry: missing {key}")
    return report
