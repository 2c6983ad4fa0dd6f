"""Tests for the Fourier-space coherent-field quantities."""

import math

import numpy as np
import pytest

from selffield.errors import SingularWavevectorError
from selffield.scales import CONST, ELECTRON, PROTON, derived_scales
from selffield.wavepacket import GaussianPacket
from selffield.coherent_field import (classical_current_fourier,
                                      field_momentum,
                                      mean_potential_coefficient,
                                      mean_vector_potential,
                                      momentum_coefficient,
                                      renormalized_momentum,
                                      total_momentum,
                                      transverse_efield_fourier,
                                      transverse_project,
                                      vector_potential_fourier)
from selffield.energy_budget import electrostatic_energy

A_B = derived_scales(ELECTRON, 0.0).bohr_like_length
ZHAT = np.array([0.0, 0.0, 1.0])


def _packet(b=A_B, beta=0.1, particle=ELECTRON, direction=ZHAT):
    return GaussianPacket(b=b, particle=particle, beta=beta, direction=direction)


# --- transverse projector ---------------------------------------------------

def test_project_kills_longitudinal():
    assert np.allclose(transverse_project([1, 0, 0], [1, 0, 0]), 0.0)


def test_project_keeps_transverse():
    assert np.allclose(transverse_project([1, 0, 0], [0, 1, 0]), [0, 1, 0])


def test_project_oblique():
    # explicit matrix application: q = (1,1,0)/sqrt(2), v = (1,0,0)
    q = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    got = transverse_project(q, np.array([1.0, 0.0, 0.0]))
    matrix = np.eye(3) - np.outer(q, q) / np.dot(q, q)
    assert np.allclose(got, matrix @ np.array([1.0, 0.0, 0.0]), atol=1e-15)
    assert np.allclose(got, [0.5, -0.5, 0.0], atol=1e-15)


def test_project_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(300):
        q = rng.standard_normal(3)
        v = rng.standard_normal(3)
        once = transverse_project(q, v)
        twice = transverse_project(q, once)
        assert np.linalg.norm(twice - once) <= 1e-14 * (np.linalg.norm(v) + 1.0)


def test_project_singular():
    with pytest.raises(SingularWavevectorError):
        transverse_project([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


# --- classical current ------------------------------------------------------

def test_current_vanishes_at_rest():
    p = _packet(beta=0.0)
    for q in ([0, 0, 0], [1e10, 0, 0], [0, 3e9, 4e9]):
        assert np.allclose(classical_current_fourier(p, q).value, 0.0)


def test_current_magnitude_at_q0():
    # |j(0)| = e beta c regardless of charge sign
    p = _packet()
    j0 = classical_current_fourier(p, [0.0, 0.0, 0.0]).value
    assert np.linalg.norm(j0) == pytest.approx(
        CONST.e_charge * 0.1 * CONST.c, rel=1e-12, abs=0)


def test_current_direction_follows_charge_sign():
    # negative charge: current antiparallel to the drift momentum
    j_e = classical_current_fourier(_packet(), [0.0, 0.0, 0.0]).value
    assert j_e[2] < 0.0
    j_p = classical_current_fourier(_packet(particle=PROTON), [0.0, 0.0, 0.0]).value
    assert j_p[2] > 0.0


def test_current_product_form():
    # |j| at |q| = 1/b is e * 0.1c * exp(-1)
    p = _packet()
    q = np.array([1.0, 0.0, 0.0]) / A_B
    j = classical_current_fourier(p, q).value
    assert np.linalg.norm(j) == pytest.approx(
        CONST.e_charge * 0.1 * CONST.c * math.exp(-1.0), rel=1e-12, abs=0)


# --- vector potential -------------------------------------------------------

def test_potential_zero_for_parallel_q():
    p = _packet()
    a = vector_potential_fourier(p, [0.0, 0.0, 2.0 / A_B])
    assert np.allclose(a.value, 0.0)


def test_potential_matches_current_over_kernel():
    p = _packet()
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = rng.standard_normal(3) / A_B
        a = vector_potential_fourier(p, q).value
        j = classical_current_fourier(p, q).value
        expected = transverse_project(q, j) / (CONST.eps0 * CONST.c**2 * np.dot(q, q))
        assert np.allclose(a, expected, rtol=1e-12)


def test_potential_gaussian_q_scaling():
    # doubling |q| at fixed direction multiplies |A| by exp(-3 b^2 q^2)/4
    p = _packet()
    q1 = np.array([1.0, 0.0, 0.0]) / A_B
    a1 = np.linalg.norm(vector_potential_fourier(p, q1).value)
    a2 = np.linalg.norm(vector_potential_fourier(p, 2.0 * q1).value)
    assert a2 / a1 == pytest.approx(math.exp(-3.0) / 4.0, rel=1e-12, abs=0)


def test_potential_singular_at_origin():
    with pytest.raises(SingularWavevectorError):
        vector_potential_fourier(_packet(), [0.0, 0.0, 0.0])


def test_transversality_random_sample():
    # q . A = 0 and q . E = 0 over 10^4 random (q, packet) samples
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10_000):
        b = A_B * 10.0 ** rng.uniform(-1.0, 1.0)
        beta = rng.uniform(0.01, 0.3)
        direction = rng.standard_normal(3)
        p = GaussianPacket(b=b, particle=ELECTRON, beta=beta, direction=direction)
        q = rng.standard_normal(3) / b
        worst = max(worst,
                    vector_potential_fourier(p, q).transversality_residual(),
                    transverse_efield_fourier(p, q).transversality_residual())
    assert worst < 1e-12


# --- transverse electric field ----------------------------------------------

def test_efield_zero_for_perpendicular_q():
    p = _packet()
    e = transverse_efield_fourier(p, [1.0 / A_B, 0.0, 0.0])
    assert np.allclose(e.value, 0.0)


def test_efield_zero_at_rest():
    p = GaussianPacket(b=A_B, particle=ELECTRON, beta=1e-30)
    e = transverse_efield_fourier(p, [1.0 / A_B, 0.0, 1.0 / A_B])
    assert np.allclose(e.value, 0.0, atol=1e-40)


def test_efield_oblique_magnitude():
    # at 45 degrees: |E| = |q| |v_c| cos(45) |A(q)|
    p = _packet()
    q = np.array([1.0, 0.0, 1.0]) / (A_B * math.sqrt(2.0))
    a = vector_potential_fourier(p, q)
    e = transverse_efield_fourier(p, q)
    expected = np.linalg.norm(q) * p.speed * math.cos(math.pi / 4.0) * np.linalg.norm(a.value)
    assert np.linalg.norm(e.value) == pytest.approx(expected, rel=1e-12, abs=0)
    # componentwise: E = i (q.v) A
    assert np.allclose(e.value, 1j * np.dot(q, p.speed * p.direction) * a.value,
                       rtol=1e-13)


# --- mean potential, renormalized and total momentum -------------------------

def test_mean_potential_zero_at_rest():
    assert np.allclose(mean_vector_potential(_packet(beta=0.0)), 0.0)


def test_mean_potential_coefficient_value():
    # e <A> / |p_c| = -(4/3) E_el / (M c^2) = -1.416e-5 for b = a_B, beta = 0.1
    p = _packet()
    coeff = np.dot(mean_vector_potential(p), p.direction) * CONST.e_charge / \
        np.linalg.norm(p.momentum)
    assert coeff == pytest.approx(-1.41617e-5, rel=1e-4, abs=0)


def test_mean_potential_kappa_over_b_grid():
    for b in (0.1 * A_B, A_B, 10.0 * A_B):
        p = _packet(b=b)
        assert mean_potential_coefficient(p) == pytest.approx(-4.0 / 3.0, rel=1e-8, abs=0)


def test_renormalized_momentum():
    p = _packet()
    e_el = electrostatic_energy(p)
    expected = 1.0 + 4.0 / 3.0 * e_el / (ELECTRON.mass * CONST.c**2)
    got = np.linalg.norm(renormalized_momentum(p)) / (
        ELECTRON.mass * p.speed)
    assert got == pytest.approx(expected, rel=1e-14, abs=0)
    assert got - 1.0 == pytest.approx(1.41617e-5, rel=1e-4, abs=0)
    assert np.allclose(renormalized_momentum(_packet(beta=0.0)), 0.0)


def test_renormalization_coefficient_beta_independent():
    vals = []
    for beta in (0.01, 0.1, 0.2):
        p = _packet(beta=beta)
        ratio = np.linalg.norm(renormalized_momentum(p)) / (ELECTRON.mass * p.speed)
        vals.append(ratio - 1.0)
    assert vals[0] == pytest.approx(vals[1], rel=1e-10, abs=0)
    assert vals[1] == pytest.approx(vals[2], rel=1e-10, abs=0)


def test_total_momentum():
    p = _packet()
    e_el = electrostatic_energy(p)
    expected = 1.0 + 4.0 / 15.0 * 0.01 * e_el / (ELECTRON.mass * CONST.c**2)
    got = np.linalg.norm(total_momentum(p)) / np.linalg.norm(p.momentum)
    assert got == pytest.approx(expected, rel=1e-12, abs=0)
    # (4/15) * 1e-2 * (5.428 eV / 511 keV) = 2.83e-8 at b = a_B, beta = 0.1
    assert (got - 1.0) == pytest.approx(2.833e-8, rel=1e-3, abs=0)
    assert np.allclose(total_momentum(_packet(beta=0.0)), 0.0)


def test_field_momentum_parallel():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = _packet(direction=rng.standard_normal(3))
        fp = field_momentum(p)
        cosang = np.dot(fp, p.direction) / np.linalg.norm(fp)
        assert cosang == pytest.approx(1.0, abs=1e-12)


def test_momentum_coefficient_grid():
    for b in (0.1 * A_B, A_B, 10.0 * A_B):
        for beta in (0.01, 0.1, 0.2):
            p = _packet(b=b, beta=beta)
            assert momentum_coefficient(p) == pytest.approx(4.0 / 15.0, rel=1e-8, abs=0)

