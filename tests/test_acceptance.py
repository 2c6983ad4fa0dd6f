"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with -s to see the lines as they complete."""

import math
import time

import numpy as np

from selffield.scales import CONST, ELECTRON, EV, PROTON, derived_scales
from selffield.wavepacket import (GaussianPacket, internal_kinetic_energy,
                                  internal_kinetic_energy_numeric)
from selffield.coherent_field import (mean_potential_coefficient,
                                      momentum_coefficient)
from selffield.energy_budget import (current_potential_energy,
                                     current_potential_energy_quadrature,
                                     electrostatic_energy,
                                     electrostatic_energy_quadrature,
                                     transverse_field_energy_quadrature)
from selffield.localization import (closed_form_binding, closed_form_radius,
                                    debroglie_ratio, minimize_radius,
                                    scale_to_particle)
from selffield.atom import (atom_electrostatic_energy, bare_nucleus_energy,
                            hydrogen_atom, screened_bracket)
from selffield.dynamics import GridSpec, evolve, init_grid, step, _Workspace

A_B = derived_scales(ELECTRON, 0.0).bohr_like_length


def _report(number: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number}: {status} [{elapsed:6.2f}s / {budget:.0f}s] {detail}")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.2f}s over budget {budget}s"


def test_criterion_1_electron_localization():
    start = time.monotonic()
    res = minimize_radius(ELECTRON, 0.1)
    b_closed = closed_form_radius(ELECTRON, 0.1)
    e_closed = closed_form_binding(ELECTRON, 0.1)
    ok = (abs(res.b_star - 1.5e-8) / 1.5e-8 < 0.05
          and abs(res.b_star - b_closed) / b_closed < 1e-6
          and abs(res.binding_energy / EV - 6.4e-5) / 6.4e-5 < 0.05
          and abs(res.binding_energy - e_closed) / e_closed < 1e-6)
    _report(1, ok,
            f"electron b*={res.b_star:.4e} m, binding={res.binding_energy/EV:.4e} eV",
            time.monotonic() - start, 1.0)


def test_criterion_2_proton_localization():
    start = time.monotonic()
    res = minimize_radius(PROTON, 0.1)
    scaled = scale_to_particle(minimize_radius(ELECTRON, 0.1), 1, PROTON.mass)
    ok = (abs(res.b_star - 8.1e-12) / 8.1e-12 < 0.05
          and abs(res.binding_energy / EV - 0.12) / 0.12 < 0.05
          and abs(scaled.b_star - res.b_star) / res.b_star < 1e-9
          and abs(scaled.binding_energy - res.binding_energy)
          / res.binding_energy < 1e-9)
    _report(2, ok,
            f"proton b*={res.b_star:.4e} m, binding={res.binding_energy/EV:.4e} eV, "
            f"scaling-path match",
            time.monotonic() - start, 1.0)


def test_criterion_3_ratio_law():
    start = time.monotonic()
    checks = []
    for beta in (0.05, 0.1, 0.2):
        r_e = debroglie_ratio(ELECTRON, beta)
        r_p = debroglie_ratio(PROTON, beta)
        checks.append(abs(r_e - 62.0 / beta) / (62.0 / beta) < 0.02)
        checks.append(abs(r_e - r_p) / r_e < 1e-12)
    ratio_01 = debroglie_ratio(ELECTRON, 0.1)
    checks.append(abs(ratio_01 - 615.0) / 615.0 < 1e-2)
    _report(3, all(checks),
            f"b*/lambda = {ratio_01:.2f} at beta=0.1, mass-independent",
            time.monotonic() - start, 1.0)


def test_criterion_4_coefficient_suite():
    start = time.monotonic()
    worst = {"4/3": 0.0, "2/3": 0.0, "4/15 field": 0.0, "4/15 mom": 0.0}
    for b_factor in (0.1, 1.0, 10.0):
        for beta in (0.01, 0.1, 0.2):
            p = GaussianPacket(b=b_factor * A_B, particle=ELECTRON, beta=beta)
            e_el = electrostatic_energy(p)
            worst["4/3"] = max(worst["4/3"], abs(
                mean_potential_coefficient(p) + 4.0 / 3.0) / (4.0 / 3.0))
            expected_cp = -2.0 / 3.0 * beta**2 * e_el
            worst["2/3"] = max(worst["2/3"], abs(
                current_potential_energy_quadrature(p) - expected_cp)
                / abs(expected_cp))
            expected_tf = 4.0 / 15.0 * beta**4 * e_el
            worst["4/15 field"] = max(worst["4/15 field"], abs(
                transverse_field_energy_quadrature(p) - expected_tf)
                / expected_tf)
            worst["4/15 mom"] = max(worst["4/15 mom"], abs(
                momentum_coefficient(p) - 4.0 / 15.0) / (4.0 / 15.0))
    ok = all(v < 1e-8 for v in worst.values())
    _report(4, ok,
            "coefficient residuals: " + ", ".join(
                f"{k}={v:.1e}" for k, v in worst.items()),
            time.monotonic() - start, 30.0)


def test_criterion_5_closed_forms_vs_oracles():
    start = time.monotonic()
    worst_e = worst_k = 0.0
    for b in np.logspace(-12, -6, 25):
        p = GaussianPacket(b=float(b), particle=ELECTRON, beta=0.1)
        e_closed = electrostatic_energy(p)
        worst_e = max(worst_e, abs(
            electrostatic_energy_quadrature(p) - e_closed) / e_closed)
        k_closed = internal_kinetic_energy(p)
        worst_k = max(worst_k, abs(
            internal_kinetic_energy_numeric(p) - k_closed) / k_closed)
    ok = worst_e < 1e-10 and worst_k < 1e-10
    _report(5, ok,
            f"electrostatic residual {worst_e:.1e}, kinetic residual {worst_k:.1e} "
            f"over 25-point log grid",
            time.monotonic() - start, 10.0)


def test_criterion_6_atom_limits():
    start = time.monotonic()
    atom = hydrogen_atom()
    g = atom.gamma
    far = atom_electrostatic_energy(atom, 1e3 * g) / bare_nucleus_energy(atom, 1e3 * g)
    near = abs(atom_electrostatic_energy(atom, 1e-3 * g)
               - bare_nucleus_energy(atom, 1e-3 * g)) / bare_nucleus_energy(atom, 1e-3 * g)
    mono_ok = True
    for b in np.logspace(-2, 2, 50):
        vals = [screened_bracket(float(b), float(gam))
                for gam in np.logspace(-2, 2, 50)]
        mono_ok &= all(hi >= lo - 1e-12 / b for lo, hi in zip(vals, vals[1:]))
        mono_ok &= min(vals) >= -1e-12 / b and max(vals) <= (1 + 1e-12) / b
    ok = far <= 1e-5 and near <= 2e-3 and mono_ok
    _report(6, ok,
            f"delocalized/bare = {far:.2e} (<=1e-5), bare-limit dev = {near:.2e} "
            f"(<=0.2%), monotone on 50x50 grid",
            time.monotonic() - start, 5.0)


def test_criterion_7_dynamics_conservation():
    start = time.monotonic()
    b = 3e-11
    spec = GridSpec(n=64, box=10 * b, dt=6e-20, particle=ELECTRON, coupling=True)
    packet = GaussianPacket(b=b, particle=ELECTRON, beta=0.1)
    state = init_grid(spec, packet)
    traj = evolve(state, spec, 1000, record_stride=100)
    e0 = traj.records[0].energy
    p0 = np.linalg.norm(traj.records[0].momentum)
    norm_drift = max(abs(r.norm - 1.0) for r in traj.records)
    de = max(abs(r.energy - e0) / abs(e0) for r in traj.records)
    dp = max(abs(np.linalg.norm(r.momentum) - p0) / p0 for r in traj.records)
    ok = norm_drift < 1e-9 and de < 1e-6 and dp < 1e-6
    _report(7, ok,
            f"n=64, 1000 steps: norm drift {norm_drift:.1e} (<1e-9), "
            f"|dE|/E {de:.1e} (<1e-6), |dP|/P {dp:.1e} (<1e-6)",
            time.monotonic() - start, 300.0)


def test_criterion_8_free_spreading():
    start = time.monotonic()
    b = 3e-11
    sigma0_sq = 2 * b**2
    t_char = 2 * ELECTRON.mass * sigma0_sq / CONST.hbar
    spec = GridSpec(n=64, box=16 * b, dt=0.173 * t_char / 500,
                    particle=ELECTRON, coupling=False)
    state = init_grid(spec, GaussianPacket(b=b, particle=ELECTRON, beta=0.0))
    ws = _Workspace(spec)
    x_rel = ws.r[0] - ws.centre
    worst = 0.0
    for k in range(1, 501):
        state = step(state, spec, ws=ws)
        if k % 100 == 0:
            rho = np.abs(state.psi) ** 2
            var = float(np.sum(rho * x_rel**2) / np.sum(rho))
            law = sigma0_sq + (CONST.hbar * state.t
                               / (2 * ELECTRON.mass * math.sqrt(sigma0_sq))) ** 2
            worst = max(worst, abs(var - law) / law)
    ok = worst < 1e-6
    _report(8, ok,
            f"n=64, 500 steps: sigma^2 law residual {worst:.2e} (<1e-6)",
            time.monotonic() - start, 120.0)


def test_criterion_9_virial_identity():
    start = time.monotonic()
    pairs = [(ELECTRON, 0.02), (ELECTRON, 0.05), (ELECTRON, 0.1),
             (ELECTRON, 0.2), (ELECTRON, 0.28),
             (PROTON, 0.02), (PROTON, 0.05), (PROTON, 0.1),
             (PROTON, 0.2), (PROTON, 0.28)]
    worst = 0.0
    for particle, beta in pairs:
        res = minimize_radius(particle, beta)
        pkt = GaussianPacket(b=res.b_star, particle=particle, beta=beta)
        kin = internal_kinetic_energy(pkt)
        attraction = current_potential_energy(pkt)
        worst = max(worst,
                    abs(kin - res.binding_energy) / res.binding_energy,
                    abs(abs(attraction) - 2.0 * res.binding_energy)
                    / (2.0 * res.binding_energy))
    ok = worst < 1e-9
    _report(9, ok,
            f"virial residual {worst:.1e} over 10 (particle, beta) pairs (<1e-9)",
            time.monotonic() - start, 5.0)
