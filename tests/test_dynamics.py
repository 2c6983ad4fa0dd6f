"""Tests for the spectral-grid co-evolution: initialization, field solve,
stepping, diagnostics, trajectories, and snapshot serialization."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as sfft

from selffield import dynamics
from selffield.energy_budget import current_potential_energy
from selffield.errors import GridMismatchError, TimestepTooLargeError
from selffield.scales import CONST, ELECTRON, ParticleSpec
from selffield.wavepacket import GaussianPacket
from selffield.dynamics import (GridSpec, GridState, _potential_factor,
                                _Workspace, diagnostics, evolve, init_grid,
                                load_snapshot, save_snapshot,
                                solve_vector_potential, step,
                                transversality_residual)

B_TEST = 3e-11


def small_spec(coupling=True, n=32, box_factor=8.0, dt=2e-19):
    return GridSpec(n=n, box=box_factor * B_TEST, dt=dt, particle=ELECTRON,
                    coupling=coupling)


def packet(beta=0.1, b=B_TEST):
    return GaussianPacket(b=b, particle=ELECTRON, beta=beta)


# --- grid spec / init ---------------------------------------------------------

def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(n=48, box=1e-9, dt=1e-19, particle=ELECTRON)   # not power of 2
    with pytest.raises(ValueError):
        GridSpec(n=16, box=1e-9, dt=1e-19, particle=ELECTRON)   # below range
    with pytest.raises(ValueError):
        GridSpec(n=1024, box=1e-9, dt=1e-19, particle=ELECTRON)
    with pytest.raises(ValueError):
        GridSpec(n=64, box=-1.0, dt=1e-19, particle=ELECTRON)
    with pytest.raises(ValueError):
        GridSpec(n=64, box=1e-9, dt=0.0, particle=ELECTRON)


@pytest.mark.parametrize("field", ["box", "dt"])
@pytest.mark.parametrize("value", [float("nan"), math.inf])
def test_grid_spec_rejects_non_finite(field, value):
    kwargs = {"n": 32, "box": 1e-9, "dt": 1e-19, "particle": ELECTRON, field: value}
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


def test_grid_spec_refuses_grid_beyond_physical_memory(monkeypatch):
    # the estimate is checked on construction, before anything is allocated
    monkeypatch.setattr(dynamics, "_physical_memory", lambda: 8 * 2**30)
    with pytest.raises(ValueError, match=r"64\.0 GiB.*8\.0 GiB"):
        GridSpec(n=512, box=1e-9, dt=1e-19, particle=ELECTRON)
    GridSpec(n=128, box=1e-9, dt=1e-19, particle=ELECTRON)    # 1 GiB fits
    monkeypatch.setattr(dynamics, "_physical_memory", lambda: 0)   # unknown
    GridSpec(n=512, box=1e-9, dt=1e-19, particle=ELECTRON)


def test_init_resolution_guard():
    spec = small_spec()
    with pytest.raises(GridMismatchError, match="resolution"):
        init_grid(spec, packet(b=spec.dx * 3.9))


def test_init_fit_guard():
    spec = small_spec()
    with pytest.raises(GridMismatchError, match="fit"):
        init_grid(spec, packet(b=spec.box / 7.9))


def test_init_norm_unity():
    for n in (32, 64):
        spec = small_spec(n=n, box_factor=8.0)
        state = init_grid(spec, packet())
        norm = np.sum(np.abs(state.psi) ** 2) * spec.dx**3
        assert norm == pytest.approx(1.0, abs=1e-12)


def test_init_at_rest_real_positive_and_fieldless():
    spec = small_spec()
    state = init_grid(spec, packet(beta=0.0))
    peak = np.abs(state.psi).max()
    # real positive up to a global phase (here: identically zero phase)
    assert np.abs(state.psi.imag).max() / peak < 1e-14
    assert state.psi.real.min() >= 0.0
    # field vanishes relative to the moving-packet field scale
    moving = init_grid(spec, packet(beta=0.1))
    field_scale = np.abs(moving.a_field).max()
    assert np.abs(state.a_field).max() < 1e-12 * field_scale


def test_init_momentum_expectation():
    # spectral first moment reproduces beta*c*direction to 0.1%
    spec = small_spec(n=64, box_factor=10.0, dt=9e-20)
    state = init_grid(spec, packet())
    ws = _Workspace(spec)
    psi_hat = ws.fftn(state.psi)
    weight = np.abs(psi_hat) ** 2
    v = np.array([float(np.sum(k_i * weight)) for k_i in _seed_wavenumbers(spec)[0]])
    v *= CONST.hbar / (ELECTRON.mass * float(np.sum(weight)))
    assert abs(v[2] - 0.1 * CONST.c) / (0.1 * CONST.c) < 1e-3
    assert abs(v[0]) / (0.1 * CONST.c) < 1e-3
    assert abs(v[1]) / (0.1 * CONST.c) < 1e-3


def test_init_rejects_particle_mismatch():
    spec = small_spec()
    other = GaussianPacket(b=B_TEST, particle=ParticleSpec(z=1, mass=ELECTRON.mass),
                           beta=0.1)
    with pytest.raises(ValueError):
        init_grid(spec, other)


# --- field solve ----------------------------------------------------------------

def test_solve_field_zero_at_rest():
    spec = small_spec()
    state = init_grid(spec, packet(beta=0.0))
    a = solve_vector_potential(state, spec)
    moving = init_grid(spec, packet(beta=0.1))
    assert np.abs(a).max() < 1e-12 * np.abs(moving.a_field).max()


def test_solve_field_zero_for_plane_wave():
    # uniform current lives in the excluded k = 0 mode
    spec = small_spec()
    ws = _Workspace(spec)
    k_idx = 3
    kvec = 2.0 * math.pi * k_idx / spec.box
    psi = np.exp(1j * kvec * ws.r[2]) / math.sqrt(spec.box**3)
    state = GridState(psi=psi, a_field=np.zeros((3, spec.n, spec.n, spec.n)),
                      t=0.0)
    a = solve_vector_potential(state, spec)
    j_scale = CONST.e_charge * CONST.hbar * kvec / (ELECTRON.mass * spec.box**3)
    assert np.abs(a).max() * CONST.eps0 * CONST.c**2 * kvec**2 / j_scale < 1e-12


def test_solve_field_transverse():
    spec = small_spec()
    state = init_grid(spec, packet())
    a = solve_vector_potential(state, spec)
    assert transversality_residual(a, spec) < 1e-10


def _full_spectrum_residual(a, spec):
    """transversality_residual's formula over the full fftn spectrum."""
    k = _seed_wavenumbers(spec)[0]
    a_hat = sfft.fftn(a, axes=(-3, -2, -1))
    k_dot = np.abs(np.sum(k * a_hat, axis=0))
    mag = np.sqrt(np.sum(k**2, axis=0)) * np.sqrt(np.sum(np.abs(a_hat) ** 2, axis=0))
    return float(k_dot.max()) / float(mag.max())


def test_transversality_residual_sees_a_longitudinal_field():
    # a gradient is longitudinal mode by mode, |k . a_hat| = |k| |a_hat|
    spec = small_spec()
    ws = _Workspace(spec)
    gauss = np.exp(-np.sum((ws.r - ws.centre) ** 2, axis=0) / (8.0 * B_TEST**2))
    assert transversality_residual(np.real(ws.grad(gauss.astype(complex))), spec) > 0.5
    # off the Nyquist planes (where no solved field has content) the half
    # spectrum holds every mode of a real field up to conjugation; on the x
    # and y Nyquist planes the full spectrum also reads the other sign of
    # the ambiguous k = -n/2, so there the half-spectrum value can only be
    # smaller
    n = spec.n
    a = np.random.default_rng(3).standard_normal((3, n, n, n))
    a_hat = sfft.fftn(a, axes=(-3, -2, -1))
    for axis in (1, 2, 3):
        a_hat[(slice(None),) * axis + (n // 2,)] = 0.0
    band_limited = np.real(sfft.ifftn(a_hat, axes=(-3, -2, -1)))
    full = _full_spectrum_residual(band_limited, spec)
    assert full > 0.5
    assert abs(transversality_residual(band_limited, spec) - full) <= 1e-14 * full
    assert transversality_residual(a, spec) <= (1 + 1e-14) * _full_spectrum_residual(a, spec)


def test_solve_field_matches_spectral_closed_form():
    # grid solve against the closed-form spectral field evaluated on the
    # same modes (with the analytic Gaussian form factor): dual-path check
    b = B_TEST
    spec = GridSpec(n=64, box=10 * b, dt=9e-20, particle=ELECTRON, coupling=True)
    pkt = packet(b=b)
    state = init_grid(spec, pkt)
    ws = _Workspace(spec)
    k = _seed_wavenumbers(spec)[0][..., :spec.n // 2 + 1]   # rfftn half spectrum
    phase = np.exp(-1j * np.tensordot(np.full(3, ws.centre), k, 1))
    rho_hat = np.exp(-b**2 * np.sum(k**2, axis=0)) * phase / ws.dv
    j_hat = (ELECTRON.charge / ELECTRON.mass) * rho_hat[None, ...] \
        * pkt.momentum.reshape(3, 1, 1, 1).astype(complex)
    a_ref = ws.irfftn(ws.vector_potential_hat(j_hat))
    scale = np.abs(state.a_field).max()
    assert np.abs(state.a_field - a_ref).max() / scale < 1e-2


def test_solve_field_box_convergence_toward_free_space():
    # the periodic solution approaches the free-space radial-quadrature value
    # as the box grows (q = 0 exclusion makes convergence slow, ~1/box)
    from scipy.integrate import quad
    from scipy.special import spherical_jn

    b = B_TEST
    pkt = packet(b=b)

    def analytic_profile_diff(x):
        def integrand(q, xx):
            ang = spherical_jn(0, q * xx) - 0.5 * spherical_jn(2, q * xx)
            return math.exp(-((b * q) ** 2)) * ang
        c_amp = ELECTRON.charge * np.linalg.norm(pkt.momentum) / (
            ELECTRON.mass * CONST.c**2 * CONST.eps0)
        at0, _ = quad(lambda q: math.exp(-((b * q) ** 2)), 0, 40 / b)
        atx, _ = quad(integrand, 0, 40 / b, args=(x,), limit=300)
        return c_amp * (at0 - atx) / (3.0 * math.pi**2)

    errors = []
    for box_factor in (8.0, 16.0):
        spec = GridSpec(n=64, box=box_factor * b, dt=9e-20, particle=ELECTRON,
                        coupling=True)
        state = init_grid(spec, pkt)
        ic = spec.n // 2
        ioff = ic + int(round(2 * b / spec.dx))
        x = (ioff - ic) * spec.dx
        grid_diff = state.a_field[2][ic, ic, ic] - state.a_field[2][ioff, ic, ic]
        ana_diff = analytic_profile_diff(x)   # charge sign carried by c_amp
        errors.append(abs(grid_diff - ana_diff) / abs(ana_diff))
    assert errors[1] < errors[0]      # converging with box size
    assert errors[1] < 0.05


def _seed_wavenumbers(spec):
    """(3, n, n, n) meshgrid k, 1/k^2 and k_grad with the Nyquist planes
    zeroed, as the seed built them."""
    n = spec.n
    k1 = 2.0 * math.pi * sfft.fftfreq(n, d=spec.dx)
    k = np.array(np.meshgrid(k1, k1, k1, indexing="ij"))
    k2 = np.sum(k**2, axis=0)
    inv_k2 = np.zeros_like(k2)
    inv_k2[k2 > 0.0] = 1.0 / k2[k2 > 0.0]
    k_grad = k.copy()
    for axis in range(3):
        idx = [slice(None)] * 3
        idx[axis] = n // 2
        inv_k2[tuple(idx)] = 0.0
        k_grad[(axis,) + tuple(idx)] = 0.0
    return k, inv_k2, k_grad


def _seed_solve(spec, src):
    """Full spectrum P_perp src_hat / (eps0 c^2 k^2) of a real source, with a
    two-pass transverse projection."""
    k, inv_k2, _ = _seed_wavenumbers(spec)
    src_hat = sfft.fftn(src, axes=(-3, -2, -1))
    for _ in range(2):
        k_dot = np.sum(k * src_hat, axis=0)
        src_hat = src_hat - k * (k_dot * inv_k2)[None, ...]
    return src_hat * (inv_k2 / (CONST.eps0 * CONST.c**2))[None, ...]


def _seed_field_path(spec, psi, a_prev=None):
    """Reference: the full-spectrum field solve with (3, n, n, n) meshgrid
    wavenumbers and a two-pass transverse projection."""
    axes = (-3, -2, -1)
    k_grad = _seed_wavenumbers(spec)[2]
    grad = sfft.ifftn(1j * k_grad * sfft.fftn(psi, axes=axes)[None, ...], axes=axes)
    j = (ELECTRON.charge * CONST.hbar / ELECTRON.mass) * np.imag(
        np.conj(psi)[None, ...] * grad)
    if a_prev is not None:
        j = j - (ELECTRON.charge**2 / ELECTRON.mass) * (
            np.abs(psi) ** 2)[None, ...] * a_prev
    return np.real(sfft.ifftn(_seed_solve(spec, j), axes=axes))


@pytest.mark.parametrize("diagonal_na", [False, True])
def test_half_spectrum_field_matches_full_spectrum_path(diagonal_na):
    spec = GridSpec(n=32, box=8 * B_TEST, dt=2e-19, particle=ELECTRON,
                    include_diagonal_na=diagonal_na)
    state = init_grid(spec, packet())
    a = solve_vector_potential(state, spec)
    a_ref = _seed_field_path(spec, state.psi,
                             state.a_field if diagonal_na else None)
    assert np.abs(a - a_ref).max() / np.abs(a_ref).max() < 1e-13
    assert transversality_residual(a, spec) < 1e-10


def _seed_record(state, spec, a2_history, prev_record):
    """Reference: the coupled electron record with A and E_perp from the
    full-spectrum solve of the real current and of dj/dt, H psi in five
    transforms (kinetic and div(A psi) inverted apart), and the magnetic
    energy from the curl B = i k_grad x A_hat."""
    axes, q, mass, hbar = (-3, -2, -1), ELECTRON.charge, ELECTRON.mass, CONST.hbar
    k, _, k_grad = _seed_wavenumbers(spec)
    dv = spec.dx**3
    dv_k = dv / spec.n**3
    psi = state.psi
    psi_hat = sfft.fftn(psi, axes=axes)
    weight = np.abs(psi_hat) ** 2
    kin_omega = hbar * np.sum(k**2, axis=0) / (2.0 * mass)
    kinetic = dv_k * float(np.sum(kin_omega * weight)) * hbar
    p_matter = hbar * dv_k * np.array([float(np.sum(kg * weight)) for kg in k_grad])

    def grad_of(f_hat):
        return sfft.ifftn(1j * k_grad * f_hat[None, ...], axes=axes)

    grad = grad_of(psi_hat)
    j_can = (q * hbar / mass) * np.imag(np.conj(psi)[None, ...] * grad)
    j_src = j_can
    if spec.include_diagonal_na:
        j_src = j_can - (q**2 / mass) * (np.abs(psi) ** 2)[None, ...] * state.a_field
    a_hat = _seed_solve(spec, j_src)
    a_field = np.real(sfft.ifftn(a_hat, axes=axes))
    interaction = -0.5 * float(np.sum(j_can * a_field)) * dv

    kin = sfft.ifftn(kin_omega * hbar * psi_hat, axes=axes)
    div_apsi = sfft.ifftn(np.sum(1j * k_grad * sfft.fftn(
        a_field * psi[None, ...], axes=axes), axis=0), axes=axes)
    h_psi = kin + (1j * q * hbar / (2.0 * mass)) * (
        np.sum(a_field * grad, axis=0) + div_apsi) \
        + (q**2 / (2.0 * mass)) * np.sum(a_field**2, axis=0) * psi
    grad_h = grad_of(sfft.fftn(h_psi, axes=axes))
    dj_dt = (q / mass) * (np.real(np.conj(h_psi)[None, ...] * grad)
                          - np.real(np.conj(psi)[None, ...] * grad_h))
    e_hat = -_seed_solve(spec, dj_dt)
    e_sq = float(np.sum(np.abs(e_hat) ** 2))
    efield_energy = CONST.eps0 * dv_k * e_sq

    a2_term = 0.0
    if len(a2_history) >= 3:
        i0, i1, i2 = list(a2_history)[-3:]
        a2_term = CONST.eps0 / 4.0 * (i2 - 2.0 * i1 + i0) / spec.dt**2
    e_dot_a = np.imag(np.sum(e_hat * np.conj(a_hat), axis=0))
    p_field = CONST.eps0 * dv_k * np.array([float(np.sum(kg * e_dot_a)) for kg in k_grad])
    b_hat = np.cross(1j * k_grad, a_hat, axis=0)
    field_energy = 0.5 * CONST.eps0 * dv_k * (
        e_sq + CONST.c**2 * float(np.sum(np.abs(b_hat) ** 2)))
    e_field = np.real(sfft.ifftn(e_hat, axes=axes))
    current_dot_e = float(np.sum(j_can * e_field)) * dv
    flux_residual = 0.0
    if prev_record is not None:
        flux_residual = (field_energy - prev_record["field_energy"]) / (
            state.t - prev_record["t"]) + 0.5 * (current_dot_e + prev_record["current_dot_e"])
    return {"t": state.t, "energy": kinetic + interaction + efield_energy + a2_term,
            "momentum": p_matter + p_field, "interaction": interaction,
            "efield_energy": efield_energy, "field_energy": field_energy,
            "current_dot_e": current_dot_e, "flux_residual": flux_residual}


@pytest.mark.parametrize("diagonal_na", [False, True])
def test_record_matches_full_spectrum_reference(diagonal_na):
    # records share the step's half-spectrum field path and take the
    # magnetic energy from int j.A; the seed's full-spectrum record with
    # the curl B is the reference, along a coupled stride-1 run
    spec = GridSpec(n=32, box=8 * B_TEST, dt=2e-19, particle=ELECTRON,
                    include_diagonal_na=diagonal_na)
    oblique = GaussianPacket(b=B_TEST, particle=ELECTRON, beta=0.1,
                             direction=np.array([1.0, 0.5, 2.0]))
    current = init_grid(spec, oblique)
    ws = _Workspace(spec)
    history = deque(maxlen=3)
    got, want = [], []
    for k in range(13):
        if k:
            current = step(current, spec, ws=ws, a2_history=history)
        prev = (got[-1].t, got[-1].field_energy, got[-1].current_dot_e) if got else None
        got.append(diagnostics(current, spec, ws=ws, a2_history=history,
                               prev_power=prev, step_index=k))
        want.append(_seed_record(current, spec, history, want[-1] if want else None))

    jde_max = max(abs(w["current_dot_e"]) for w in want)
    for rec, ref in zip(got, want):
        for name in ("energy", "interaction", "efield_energy", "field_energy"):
            assert abs(getattr(rec, name) - ref[name]) <= 1e-13 * abs(ref[name]), name
        p_scale = np.linalg.norm(ref["momentum"])
        assert np.abs(rec.momentum - ref["momentum"]).max() <= 1e-13 * p_scale
        assert abs(rec.current_dot_e - ref["current_dot_e"]) <= 1e-10 * jde_max
        assert abs(rec.flux_residual - ref["flux_residual"]) <= 1e-9 * jde_max


# --- stepping -------------------------------------------------------------------

def test_timestep_guard():
    spec = small_spec(dt=1e-17)
    state = init_grid(small_spec(), packet())
    with pytest.raises(TimestepTooLargeError):
        step(state, spec)


def test_mixed_term_guard():
    # the acceptance configurations bound the mixed generator near 6e-5;
    # a field 1e3 times stronger pushes the bound past 1e-2
    spec = small_spec()
    state = init_grid(spec, packet())
    ws = _Workspace(spec)
    a = 100.0 * state.a_field
    out = _potential_factor(ws, state.psi, a, spec.dt, ws.dot(a, a), ws.grad(state.psi))
    assert np.all(np.isfinite(out))
    a = 1e3 * state.a_field
    with pytest.raises(TimestepTooLargeError, match="mixed-term"):
        _potential_factor(ws, state.psi, a, spec.dt, ws.dot(a, a), ws.grad(state.psi))


def test_plane_wave_phase_advance_exact():
    # kinetic factor advances an on-grid plane wave by exp(-i hbar k^2 dt/2M)
    spec = small_spec(coupling=False)
    ws = _Workspace(spec)
    kvec = 2.0 * math.pi * 5 / spec.box
    psi = np.exp(1j * kvec * ws.r[0]) / math.sqrt(spec.box**3)
    state = GridState(psi=psi.copy(), a_field=np.zeros((3, 32, 32, 32)), t=0.0)
    out = step(state, spec)
    expected = psi * np.exp(-1j * CONST.hbar * kvec**2 * spec.dt
                            / (2 * ELECTRON.mass))
    assert np.abs(out.psi - expected).max() < 1e-13 * np.abs(psi).max()


def test_norm_preservation_one_step():
    spec = small_spec()
    state = init_grid(spec, packet())
    out = step(state, spec)
    norm = np.sum(np.abs(out.psi) ** 2) * spec.dx**3
    assert abs(norm - 1.0) < 1e-12


def test_norm_drift_cumulative():
    # 500 coupled steps: drift stays consistent with < 1e-9 per 1e4 steps
    spec = small_spec()
    state = init_grid(spec, packet())
    traj = evolve(state, spec, 500, record_stride=500)
    assert abs(traj.records[-1].norm - 1.0) < 5e-11


def test_free_gaussian_spreading_short():
    # sigma(t)^2 = sigma0^2 + (hbar t / 2 M sigma0)^2, short n = 64 run
    b = B_TEST
    box = 16 * b          # widest box satisfying b >= 4 box/n at n = 64
    sigma0_sq = 2 * b**2
    t_char = 2 * ELECTRON.mass * sigma0_sq / CONST.hbar
    spec = GridSpec(n=64, box=box, dt=0.15 * t_char / 100, particle=ELECTRON,
                    coupling=False)
    state = init_grid(spec, packet(beta=0.0, b=b))
    ws = _Workspace(spec)
    x_rel = ws.r[0] - ws.centre
    for _ in range(100):
        state = step(state, spec, ws=ws)
    rho = np.abs(state.psi) ** 2
    var = float(np.sum(rho * x_rel**2) / np.sum(rho))
    law = sigma0_sq + (CONST.hbar * state.t / (2 * ELECTRON.mass
                                               * math.sqrt(sigma0_sq))) ** 2
    assert abs(var - law) / law < 1e-6


def test_ehrenfest_drift():
    # coupling off: <r>(t) = <r>(0) + (p/M) t to 1e-8 of the displacement.
    # The wide box (32 b) pushes the periodic-tail bias of the position
    # estimator far below the tolerance.
    b = B_TEST
    spec = GridSpec(n=128, box=32 * b, dt=2e-19, particle=ELECTRON,
                    coupling=False)
    state = init_grid(spec, packet(beta=0.1, b=b))
    ws = _Workspace(spec)
    psi_hat = ws.fftn(state.psi)
    weight = np.abs(psi_hat) ** 2
    p_vec = CONST.hbar * np.array(
        [float(np.sum(kg * weight)) for kg in _seed_wavenumbers(spec)[2]]) \
        / float(np.sum(weight))

    def mean_positions(psi, around):
        rho = np.abs(psi) ** 2
        total = float(np.sum(rho))
        out = np.empty(3)
        for i in range(3):
            rel = np.mod(ws.r[i] - around[i] + 0.5 * spec.box, spec.box) \
                - 0.5 * spec.box
            out[i] = around[i] + float(np.sum(rho * rel)) / total
        return out

    r0 = mean_positions(state.psi, np.full(3, ws.centre))
    n_steps = 50
    for _ in range(n_steps):
        state = step(state, spec, ws=ws)
    predicted = r0 + p_vec / ELECTRON.mass * state.t
    measured = mean_positions(state.psi, predicted)
    displacement = np.linalg.norm(predicted - r0)
    assert np.linalg.norm(measured - predicted) / displacement < 1e-8


# --- diagnostics ------------------------------------------------------------------

def test_free_energy_constant():
    # beta = 0, coupling off: energy is pure kinetic, exactly preserved
    spec = small_spec(coupling=False)
    state = init_grid(spec, packet(beta=0.0))
    traj = evolve(state, spec, 1000, record_stride=250)
    energies = [r.energy for r in traj.records]
    kinetics = [r.kinetic for r in traj.records]
    assert energies == kinetics
    spread = (max(energies) - min(energies)) / abs(energies[0])
    assert spread < 1e-10


def test_diagnostics_momentum_field_alignment():
    # field momentum parallel to the drift within 1e-3 rad
    spec = small_spec()
    state = init_grid(spec, packet())
    ws = _Workspace(spec)
    rec = diagnostics(state, spec, ws=ws)
    psi_hat = ws.fftn(state.psi)
    dv_k = ws.dv / spec.n**3
    p_matter = CONST.hbar * dv_k * np.array(
        [float(np.sum(kg * np.abs(psi_hat) ** 2)) for kg in _seed_wavenumbers(spec)[2]])
    p_field = rec.momentum - p_matter
    angle = math.atan2(np.linalg.norm(p_field[:2]), p_field[2])
    assert abs(angle) < 1e-3


def test_conservation_short_coupled_run():
    spec = small_spec()
    state = init_grid(spec, packet())
    traj = evolve(state, spec, 200, record_stride=50)
    e0 = traj.records[0].energy
    p0 = np.linalg.norm(traj.records[0].momentum)
    for rec in traj.records:
        assert abs(rec.energy - e0) / abs(e0) < 1e-7
        assert abs(np.linalg.norm(rec.momentum) - p0) / p0 < 1e-7
        assert abs(rec.norm - 1.0) < 1e-11


# --- evolve / trajectory ------------------------------------------------------------

def test_evolve_rejects_zero_steps():
    spec = small_spec()
    state = init_grid(spec, packet())
    with pytest.raises(ValueError):
        evolve(state, spec, 0)


def test_record_counting():
    spec = small_spec(coupling=False)
    state = init_grid(spec, packet(beta=0.0))
    traj = evolve(state, spec, 100, record_stride=10)
    assert len(traj.records) == 11
    assert traj.records[0].t == 0.0
    assert [r.step for r in traj.records] == list(range(0, 101, 10))


def test_evolve_deterministic():
    spec = small_spec()
    s1 = init_grid(spec, packet())
    s2 = init_grid(spec, packet())
    t1 = evolve(s1, spec, 20, record_stride=5)
    t2 = evolve(s2, spec, 20, record_stride=5)
    assert np.array_equal(t1.final_state.psi, t2.final_state.psi)
    for r1, r2 in zip(t1.records, t2.records):
        assert r1.energy == r2.energy
        assert np.array_equal(r1.momentum, r2.momentum)


def _check_fused_evolve_matches_single_steps(coupling):
    # evolve chains steps first-same-as-last between records; a chain of
    # plain Strang steps is the reference
    spec = small_spec(coupling=coupling)
    state = init_grid(spec, packet())
    n_steps, stride = 20, 5
    fused = evolve(state, spec, n_steps, record_stride=stride)

    ws = _Workspace(spec)
    history = deque(maxlen=3)
    ref = [diagnostics(state, spec, ws=ws, a2_history=history)]
    current = state
    for k in range(1, n_steps + 1):
        current = step(current, spec, ws=ws, a2_history=history)
        if k % stride == 0:
            prev = (ref[-1].t, ref[-1].field_energy, ref[-1].current_dot_e)
            ref.append(diagnostics(current, spec, ws=ws, a2_history=history,
                                   prev_power=prev, step_index=k))

    for got, want in ((fused.final_state.psi, current.psi),
                      (fused.final_state.a_field, current.a_field)):
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-13
    assert len(fused.records) == len(ref)
    for got, want in zip(fused.records, ref):
        p_scale = np.linalg.norm(want.momentum)
        assert got.step == want.step
        assert abs(got.norm - want.norm) < 1e-12
        assert abs(got.energy - want.energy) / abs(want.energy) < 1e-12
        assert abs(got.momentum[2] - want.momentum[2]) / p_scale < 1e-12


def test_fused_evolve_matches_single_steps():
    _check_fused_evolve_matches_single_steps(coupling=True)


def test_fused_evolve_matches_single_steps_uncoupled():
    _check_fused_evolve_matches_single_steps(coupling=False)


def test_record_hands_its_spectrum_to_the_next_step_exactly():
    # with a record every step, each step starts from the record's fftn of
    # psi: the same bits as a step that transforms psi itself
    spec = small_spec()
    state = init_grid(spec, packet())
    run = evolve(state, spec, 3, record_stride=1)
    ws = _Workspace(spec)
    for _ in range(3):
        state = step(state, spec, ws=ws)
    assert np.array_equal(run.final_state.psi, state.psi)
    assert np.array_equal(run.final_state.a_field, state.a_field)


def _phase_first_step(state, spec, ws):
    """Reference Strang step whose A-dependent factor applies the A^2 phase
    first and the mixed term after it, each application of Y transforming
    [phi, A_i phi] per axis: the P.M order the step used before it kept
    grad psi_mid for the first mixed-term pass."""
    mass, q = spec.particle.mass, spec.particle.charge
    psi_mid = ws.ifftn(ws.fftn(state.psi) * ws.half_kin)
    a = ws.field(psi_mid, a_prev=state.a_field)
    psi = np.exp(-1j * spec.dt * q**2 * ws.dot(a, a) / (2.0 * mass * CONST.hbar)) * psi_mid

    def apply_y(phi):
        acc = np.zeros_like(phi)
        for axis in range(3):
            pair = np.array([phi, a[axis] * phi])
            pair = ws.deriv(pair, axis, np.empty_like(pair))
            acc += a[axis] * pair[0] + pair[1]
        return (spec.dt * q / (2.0 * mass)) * acc

    y1 = apply_y(psi)
    psi = psi + y1 + 0.5 * apply_y(y1)
    return GridState(psi=ws.ifftn(ws.fftn(psi) * ws.half_kin), a_field=a,
                     t=state.t + spec.dt)


@pytest.mark.parametrize("diagonal_na", [False, True])
def test_mixed_then_phase_step_matches_phase_first_reference(diagonal_na):
    # M and P do not commute, but the A^2 phase is tiny: 20 steps in either
    # order agree to 1e-13 of max|psi| and max|A|
    spec = dataclasses.replace(small_spec(), include_diagonal_na=diagonal_na)
    ws = _Workspace(spec)
    state = ref = init_grid(spec, packet())
    for _ in range(20):
        state = step(state, spec, ws=ws)
        ref = _phase_first_step(ref, spec, ws)
    for got, want in ((state.psi, ref.psi), (state.a_field, ref.a_field)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert not np.array_equal(state.psi, ref.psi)     # the orders differ


def test_diagonal_na_record_forms_the_canonical_current_once(monkeypatch):
    # the source current is the canonical one minus (q^2/M)|psi|^2 A
    spec = dataclasses.replace(small_spec(), include_diagonal_na=True)
    state = init_grid(spec, packet())
    ws = _Workspace(spec)
    calls = []
    current = _Workspace.current

    def counted(self, *args):
        calls.append(args)
        return current(self, *args)
    monkeypatch.setattr(_Workspace, "current", counted)
    for _ in range(2):
        diagnostics(state, spec, ws=ws)
    assert len(calls) == 2


@pytest.mark.parametrize("diagonal_na,dots", [(False, 4), (True, 5)])
def test_record_forms_int_j_dot_a_once_without_diagonal_na(monkeypatch, diagonal_na,
                                                            dots):
    # without diagonal nA the source current is the canonical one, and the
    # interaction and magnetic energies share one int j.A
    spec = dataclasses.replace(small_spec(), include_diagonal_na=diagonal_na)
    state = init_grid(spec, packet())
    ws = _Workspace(spec)
    calls = []
    dot = _Workspace.dot

    def counted(self, u, v):
        calls.append(1)
        return dot(self, u, v)
    monkeypatch.setattr(_Workspace, "dot", counted)
    rec = diagnostics(state, spec, ws=ws)
    assert len(calls) == dots
    assert rec.interaction < 0.0
    if not diagonal_na:
        assert rec.field_energy == 0.5 * (rec.efield_energy - 2.0 * rec.interaction)


# scipy.fft functions that are not transforms, passed through uncounted
_NOT_TRANSFORMS = {"fftfreq", "rfftfreq", "fftshift", "ifftshift", "next_fast_len"}


class _CountingFft:
    """Stands in for scipy.fft inside dynamics and passes add the
    n^3-equivalents of every 3-D transform: a pass over k of the 3 spatial
    axes counts k/3 per field and a half-size real transform half of that.
    Any other transform function fails the test, so none goes uncounted."""

    def __init__(self, add):
        self.add = add

    def __getattr__(self, name):
        fn = getattr(sfft, name)
        if name in _NOT_TRANSFORMS:
            return fn
        assert name in ("fftn", "ifftn", "rfftn", "irfftn"), name

        def counted(a, *args, **kwargs):
            real = Fraction(1, 2) if name.startswith(("rfft", "irfft")) else 1
            self.add(math.prod(a.shape[:-3]) * Fraction(len(kwargs["axes"]), 3) * real)
            return fn(a, *args, **kwargs)
        return counted


def _count_work(monkeypatch, n):
    """Tally the transforms (n^3-equivalents, _CountingFft) and the
    derivative products (whole fields: a product on a slab or a plane counts
    its share of the grid) of each call that phase(name) marks; transforms
    and products also run on pool threads, so the tally takes a lock."""
    calls = []
    lock = threading.Lock()

    def add(index, weight):
        with lock:
            calls[-1][index] += weight

    def phase(name):
        original = getattr(dynamics, name)

        def wrapper(*args, **kwargs):
            calls.append([name, 0, 0])
            return original(*args, **kwargs)
        monkeypatch.setattr(dynamics, name, wrapper)

    deriv = _Workspace.deriv

    def counted(self, f, axis, out):
        add(2, Fraction(out.size, n**3))
        return deriv(self, f, axis, out)

    monkeypatch.setattr(dynamics, "sfft", _CountingFft(lambda w: add(1, w)))
    monkeypatch.setattr(_Workspace, "deriv", counted)
    return calls, phase


def _check_transform_counts(monkeypatch, coupling, step_max, derivs):
    # a fused interior coupled step makes 5 n^3-equivalents of transforms,
    # and so does the first step after a record, which starts from the
    # record's spectrum; an uncoupled one makes none, and a record at most 8.
    # derivs is (per step, per record): 12 and 9 coupled, none uncoupled
    spec = small_spec(coupling=coupling)
    state = init_grid(spec, packet())
    calls, phase = _count_work(monkeypatch, spec.n)
    phase("step")
    phase("diagnostics")
    evolve(state, spec, 6, record_stride=6)

    steps = [c[1:] for c in calls if c[0] == "step"]
    records = [c[1:] for c in calls if c[0] == "diagnostics"]
    assert len(steps) == 6 and len(records) == 2
    for transforms, _ in steps[:-1]:
        assert transforms <= step_max
    for transforms, _ in records:
        assert transforms <= 8
    assert [d for _, d in steps] == [derivs[0]] * 6
    assert [d for _, d in records] == [derivs[1]] * 2


def test_transform_counts_per_step_and_record(monkeypatch):
    _check_transform_counts(monkeypatch, coupling=True, step_max=5, derivs=(12, 9))


def test_transform_counts_per_step_and_record_uncoupled(monkeypatch):
    _check_transform_counts(monkeypatch, coupling=False, step_max=0, derivs=(0, 0))


@pytest.mark.parametrize("diagonal", [False, True])
def test_transform_counts_of_field_solve_from_real_space(monkeypatch, diagonal):
    # init_grid and solve_vector_potential solve the field from the psi they
    # hold: the gradient (3 derivative products), rfftn of the current and
    # irfftn of A (3/2 each)
    spec = dataclasses.replace(small_spec(), include_diagonal_na=diagonal)
    calls, phase = _count_work(monkeypatch, spec.n)
    phase("init_grid")
    phase("solve_vector_potential")
    state = dynamics.init_grid(spec, packet())
    dynamics.solve_vector_potential(state, spec)
    assert [c[0] for c in calls] == ["init_grid", "solve_vector_potential"]
    for _, transforms, derivs in calls:
        assert transforms <= 3 and derivs == 3


def _fft_derivative(f, axis, box):
    """d/dx_axis of f as i k_grad on its 1-D transform along axis, with the
    Nyquist mode zeroed."""
    n = f.shape[axis]
    k = 2.0 * math.pi * sfft.fftfreq(n, d=box / n)
    k[n // 2] = 0.0
    shape = [1] * f.ndim
    shape[axis] = n
    return sfft.ifft(sfft.fft(f, axis=axis) * (1j * k).reshape(shape), axis=axis)


@pytest.mark.parametrize("n", [32, 64, 128])
def test_derivative_matrix_is_the_fourier_derivative(n):
    spec = small_spec(n=n)
    d = dynamics._fourier_derivative_matrix(n, spec.box)
    flip = (-np.arange(n)) % n
    assert np.array_equal(d, -d.T)                                   # antisymmetric
    assert np.array_equal(np.roll(d, (1, 1), axis=(0, 1)), d)        # circulant
    assert np.array_equal(d[np.ix_(flip, flip)], -d)                 # reflection-odd
    ws = _Workspace(spec)
    rng = np.random.default_rng(n)
    f = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    for axis in range(3):
        got = ws.deriv(f, axis, np.empty_like(f))
        want = _fft_derivative(f, axis, spec.box)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_mixed_generator_matches_transform_derivatives(monkeypatch):
    # G phi = A.grad phi + div(A phi) for a seeded complex phi and real A, at
    # 1 and 3 workers (bit-identical), against 1-D transform derivatives;
    # the step's polynomial is psi + Y psi + Y^2 psi / 2 with Y = (tau q/2M) G
    spec = small_spec()
    rng = np.random.default_rng(25)
    shape = (spec.n,) * 3
    phi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a = rng.standard_normal((3,) + shape)

    def reference(f):
        return sum(a[i] * _fft_derivative(f, i, spec.box)
                   + _fft_derivative(a[i] * f, i, spec.box) for i in range(3))

    want = reference(phi)
    got = []
    for threads in ("1", "3"):
        monkeypatch.setenv("SELFFIELD_THREADS", threads)
        ws = _Workspace(spec)
        got.append(dynamics._mixed_generator(ws, a, phi, ws.grad(phi)))
    assert np.array_equal(got[0], got[1])
    assert np.linalg.norm(got[0] - want) <= 1e-13 * np.linalg.norm(want)

    # tau puts the bound on ||Y|| at 0.1, so Y^2/2 is well above roundoff
    mass, q = spec.particle.mass, spec.particle.charge
    tau = 0.1 / abs(q / mass * np.abs(a).max() * ws.k_grad_max)
    y1 = (tau * q / (2.0 * mass)) * want
    expected = phi + y1 + 0.5 * (tau * q / (2.0 * mass)) * reference(y1)
    out = dynamics._apply_mixed(ws, phi, a, tau, ws.grad(phi))
    assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(phi)
    assert np.linalg.norm(out - phi - y1) > 1e-6 * np.linalg.norm(phi)


# a short coupled evolve in a fresh interpreter; prints one digest of the
# final psi and A and every record
_EVOLVE_DIGEST = """
import hashlib, sys
sys.path[:0] = sys.argv[1:]
from test_dynamics import evolve, init_grid, packet, small_spec
spec = small_spec()
run = evolve(init_grid(spec, packet()), spec, 4, record_stride=2)
digest = hashlib.sha256(run.final_state.psi.tobytes() + run.final_state.a_field.tobytes())
for record in run.records:
    digest.update(repr(record).encode())
print(digest.hexdigest())
"""


def test_trajectory_bit_identical_with_blas_threads_pinned_or_not():
    # inside a run BLAS is held to one thread, so the caller's
    # OPENBLAS_NUM_THREADS changes no bit of psi, A or the records
    tests = Path(__file__).resolve().parent
    digests = []
    for blas in ("1", None):
        env = dict(os.environ, SELFFIELD_THREADS="2")
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        out = subprocess.run([sys.executable, "-c", _EVOLVE_DIGEST, str(tests),
                              str(tests.parent / "src")],
                             env=env, capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_evolve_holds_blas_to_one_thread_and_restores_the_callers_count(monkeypatch):
    api = dynamics._openblas_threads()
    if api is None:
        pytest.skip("no OpenBLAS thread API found in this process")
    get, set_ = api
    before = get()
    seen = []
    deriv = _Workspace.deriv

    def watched(self, f, axis, out):
        seen.append(get())
        return deriv(self, f, axis, out)

    monkeypatch.setattr(_Workspace, "deriv", watched)
    spec = small_spec()
    state = init_grid(spec, packet())
    try:
        set_(2)
        evolve(state, spec, 2, record_stride=1)
        after = get()
    finally:
        set_(before)
    assert after == 2
    assert seen and set(seen) == {1}


@pytest.mark.parametrize("diagonal, coupling", [(False, True), (True, True), (False, False)],
                         ids=["False", "True", "uncoupled"])
def test_trajectory_bit_identical_at_any_thread_count(monkeypatch, diagonal, coupling):
    # pool tasks write into their own buffers and sums over axes run in axis
    # order, so the thread count changes no bit; stride 3 runs the FSAL chain
    # between records.  Three workers cut n = 32 into uneven slabs, under
    # frequent thread switches; with coupling off only the half kinetic
    # factors run in slabs.
    spec = dataclasses.replace(small_spec(coupling=coupling), include_diagonal_na=diagonal)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("SELFFIELD_THREADS", threads)
            runs.append(evolve(init_grid(spec, packet()), spec, 7, record_stride=3))
    finally:
        sys.setswitchinterval(interval)
    one = runs[0]
    assert len(one.records) == 4
    for other in runs[1:]:
        assert np.array_equal(one.final_state.psi, other.final_state.psi)
        assert np.array_equal(one.final_state.a_field, other.final_state.a_field)
        assert len(other.records) == 4
        for a, b in zip(one.records, other.records):
            for field in dataclasses.fields(a):
                got, want = getattr(a, field.name), getattr(b, field.name)
                assert np.array_equal(got, want), field.name


def _peak_arrays(fn):
    """Peak of the numpy memory fn allocates above what is live when it is
    called, in complex n^3 arrays of the n = 32 grid."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - live) / (16 * 32**3)


@pytest.mark.parametrize("diagonal", [False, True])
def test_record_and_step_memory_bounds(monkeypatch, diagonal):
    # a coupled record releases its intermediates once consumed, builds the
    # current and dj/dt one component at a time and the divergence of the
    # mixed generator one axis at a time through one buffer; the step's
    # gradient and the two applications of the generator keep a fused
    # interior step within 13 arrays; the field solve of init_grid holds no
    # gradient through its transforms.  The bounds hold at every worker
    # count: slab tasks write into buffers the calling thread allocated, so
    # more workers allocate no more arrays.
    spec = dataclasses.replace(small_spec(), include_diagonal_na=diagonal)
    for threads in (None, "1", "3", "4", "8"):
        if threads is not None:
            monkeypatch.setenv("SELFFIELD_THREADS", threads)
        state = init_grid(spec, packet())
        assert _peak_arrays(lambda: init_grid(spec, packet())) <= 9.5
        ws = _Workspace(spec)
        history = deque(maxlen=3)
        diagnostics(state, spec, ws=ws, a2_history=history)
        assert _peak_arrays(lambda: diagnostics(state, spec, ws=ws, a2_history=history,
                                                fsal=dynamics._Fsal())) <= 12.5
        fsal = dynamics._Fsal(close=False)
        current = step(state, spec, ws=ws, a2_history=history, fsal=fsal)
        assert _peak_arrays(lambda: step(current, spec, ws=ws, a2_history=history,
                                         fsal=fsal)) <= 13.0


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("threads", ["1", "2", "3", "8"])
def test_slabs_cover_every_row_once(monkeypatch, n, threads):
    # one slab per worker (at most one per row), every row of the leading
    # grid axis in exactly one; one worker runs the whole grid inline
    monkeypatch.setenv("SELFFIELD_THREADS", threads)
    ws = _Workspace(small_spec(n=n))
    hits = np.zeros(n, dtype=int)
    calls = []
    lock = threading.Lock()

    def fn(sl):
        with lock:
            hits[sl] += 1
            calls.append((sl, threading.current_thread()))

    ws.slabs(fn)
    assert np.all(hits == 1)
    assert len(calls) == min(int(threads), n)
    if threads == "1":
        assert calls == [(slice(None), threading.current_thread())]
    else:
        assert all(thread is not threading.current_thread() for _, thread in calls)


@pytest.mark.parametrize("diagonal", [False, True])
def test_evolve_frees_the_previous_field_during_a_step(monkeypatch, diagonal):
    # without diagonal nA a coupled step never reads the previous field, so
    # it is gone when the next step starts; with it, the step reads it.  The
    # caller's state keeps its field either way.
    spec = dataclasses.replace(small_spec(), include_diagonal_na=diagonal)
    state = init_grid(spec, packet())
    a_init = state.a_field.copy()
    fields, alive = [], []
    original = dynamics.step

    def watched(current, *args, **kwargs):
        alive.append(fields[-1]() is not None if fields else None)
        out = original(current, *args, **kwargs)
        fields.append(weakref.ref(out.a_field))
        return out

    monkeypatch.setattr(dynamics, "step", watched)
    traj = evolve(state, spec, 4, record_stride=2)
    assert alive == [None] + [diagonal] * 3
    assert fields[-1]() is traj.final_state.a_field
    assert np.array_equal(state.a_field, a_init)


# --- snapshots -----------------------------------------------------------------------

def test_snapshot_roundtrip_bitwise(tmp_path):
    spec = small_spec()
    state = init_grid(spec, packet())
    state = step(state, spec)
    path = tmp_path / "state.snap"
    save_snapshot(state, spec, path)
    loaded, spec2 = load_snapshot(path)
    assert np.array_equal(loaded.psi, state.psi)
    assert np.array_equal(loaded.a_field, state.a_field)
    assert loaded.t == state.t
    assert (spec2.n, spec2.box, spec2.dt) == (spec.n, spec.box, spec.dt)
    assert spec2.particle.z == ELECTRON.z
    assert spec2.coupling == spec.coupling


def test_snapshot_roundtrip_keeps_signed_zeros(tmp_path):
    # every bit comes back, the sign of a -0.0 real or imaginary part too,
    # in C-contiguous writable arrays of the package's dtypes
    spec = small_spec()
    state = init_grid(spec, packet())
    state.psi.imag[::2] = -0.0
    state.psi.real[:, ::3] = -0.0
    state.a_field[1, :, :, ::2] = -0.0
    path = tmp_path / "state.snap"
    save_snapshot(state, spec, path)
    loaded, _ = load_snapshot(path)
    assert np.array_equal(loaded.psi.view(np.uint64), state.psi.view(np.uint64))
    assert np.array_equal(loaded.a_field.view(np.uint64), state.a_field.view(np.uint64))
    for got, dtype in ((loaded.psi, np.complex128), (loaded.a_field, np.float64)):
        assert got.dtype == dtype
        assert got.flags.c_contiguous and got.flags.writeable


def test_snapshot_header_schema(tmp_path):
    spec = small_spec()
    state = init_grid(spec, packet())
    path = tmp_path / "state.snap"
    save_snapshot(state, spec, path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        payload = fh.read()
    assert set(header) == {"version", "n", "box_m", "dt_s", "t_s", "particle",
                           "coupling", "include_diagonal_nA"}
    assert set(header["particle"]) == {"z", "mass_kg"}
    n3 = spec.n**3
    assert len(payload) == n3 * 2 * 8 + 3 * n3 * 8


def test_snapshot_layout_x_fastest(tmp_path):
    # psi values stream with the x index varying fastest
    spec = small_spec()
    state = init_grid(spec, packet())
    path = tmp_path / "state.snap"
    save_snapshot(state, spec, path)
    with open(path, "rb") as fh:
        fh.readline()
        raw = np.frombuffer(fh.read(spec.n**3 * 16), dtype="<f8").reshape(-1, 2)
    first_line = raw[:spec.n, 0] + 1j * raw[:spec.n, 1]
    assert np.array_equal(first_line, state.psi[:, 0, 0])


def test_restart_reproduces_trajectory(tmp_path):
    spec = small_spec()
    state = init_grid(spec, packet())
    full = evolve(state, spec, 12, record_stride=1)

    head = evolve(init_grid(spec, packet()), spec, 6, record_stride=1)
    path = tmp_path / "mid.snap"
    save_snapshot(head.final_state, spec, path)
    loaded, spec2 = load_snapshot(path)
    tail = evolve(loaded, spec2, 6, record_stride=1)

    # states are bit-identical; the 3-point FD history behind the
    # d^2/dt^2 int A^2 term re-seeds over the first three post-restart
    # steps, records beyond that match exactly
    assert np.array_equal(tail.final_state.psi, full.final_state.psi)
    for offset in range(3, 7):
        a = full.records[6 + offset]
        b = tail.records[offset]
        assert a.energy == b.energy
        assert a.norm == b.norm
        assert np.array_equal(a.momentum, b.momentum)


def test_restart_at_record_bit_identical_with_fused_steps(tmp_path):
    # stride 3: steps between records are fused, and every record restarts
    # the chain from real-space psi, so resuming at a record changes nothing
    spec = small_spec()
    full = evolve(init_grid(spec, packet()), spec, 12, record_stride=3)

    head = evolve(init_grid(spec, packet()), spec, 6, record_stride=3)
    path = tmp_path / "mid.snap"
    save_snapshot(head.final_state, spec, path)
    loaded, spec2 = load_snapshot(path)
    tail = evolve(loaded, spec2, 6, record_stride=3)

    assert np.array_equal(tail.final_state.psi, full.final_state.psi)
    assert np.array_equal(tail.final_state.a_field, full.final_state.a_field)
    # records past the 3-step a2 history re-seed match exactly
    for a, b in zip(full.records[3:], tail.records[1:]):
        assert a.energy == b.energy
        assert np.array_equal(a.momentum, b.momentum)


# --- bridge from the grid's energies to the paper's coefficients ---------------

# simple-cubic Madelung constant of the periodic-image correction
# (G. Makov & M. C. Payne, Phys. Rev. B 51, 4014 (1995))
MAKOV_PAYNE_XI = 2.837297


def test_grid_interaction_matches_closed_form_after_image_term():
    # at t = 0 the grid's -(1/2) int j.A differs from the paper's
    # -(2/3) beta^2 E_el by the periodic images' -xi sqrt(2 pi) b/L; once
    # that is added back the residual falls as L^-3 (n=32 at 8b and n=64
    # at 16b share dx = b/4, so resolution does not enter)
    moving = GaussianPacket(b=B_TEST, particle=ELECTRON, beta=0.1,
                            direction=np.array([1.0, 2.0, 2.0]))
    closed = current_potential_energy(moving)
    residual = {}
    for n, box_factor in ((32, 8.0), (64, 16.0)):
        spec = GridSpec(n=n, box=box_factor * B_TEST, dt=2e-19, particle=ELECTRON)
        record = diagnostics(init_grid(spec, moving), spec)
        residual[box_factor] = ((record.interaction - closed) / closed
                                + MAKOV_PAYNE_XI * math.sqrt(2.0 * math.pi) / box_factor)
    assert abs(residual[16.0]) < 0.02
    assert 6.0 < residual[8.0] / residual[16.0] < 11.0
