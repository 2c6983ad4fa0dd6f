"""Tests for the Gaussian packet and the radial-profile oracle path."""

import math

import numpy as np
import pytest

from selffield.errors import InvalidVelocityError, NormalizationError
from selffield.scales import CONST, ELECTRON, EV, PROTON, derived_scales
from selffield.wavepacket import (GaussianPacket, RadialProfile,
                                  density_fourier, fourier_density_numeric,
                                  gaussian_profile, internal_kinetic_energy,
                                  internal_kinetic_energy_numeric,
                                  uniform_ball_profile)

A_B = derived_scales(ELECTRON, 0.0).bohr_like_length


def test_packet_validation():
    with pytest.raises(ValueError):
        GaussianPacket(b=0.0, particle=ELECTRON)
    with pytest.raises(InvalidVelocityError):
        GaussianPacket(b=1e-10, particle=ELECTRON, beta=1.0)
    with pytest.raises(ValueError):
        GaussianPacket(b=1e-10, particle=ELECTRON, direction=(0, 0, 0))
    p = GaussianPacket(b=1e-10, particle=ELECTRON, beta=0.1, direction=(3, 0, 4))
    assert np.linalg.norm(p.direction) == pytest.approx(1.0, abs=1e-12)


def test_density_fourier_normalization():
    p = GaussianPacket(b=2.7e-11, particle=ELECTRON)
    assert density_fourier(p, 0.0) == 1.0


def test_density_fourier_value():
    p = GaussianPacket(b=1.0, particle=ELECTRON)
    assert density_fourier(p, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12, abs=0)


def test_density_fourier_negative_q():
    p = GaussianPacket(b=1e-10, particle=ELECTRON)
    with pytest.raises(ValueError):
        density_fourier(p, -1.0)


def test_density_fourier_monotone():
    p1 = GaussianPacket(b=A_B, particle=ELECTRON)
    p2 = GaussianPacket(b=2 * A_B, particle=ELECTRON)
    qs = np.linspace(0.1, 5.0, 20) / A_B
    vals1 = [density_fourier(p1, q) for q in qs]
    vals2 = [density_fourier(p2, q) for q in qs]
    assert all(a > b for a, b in zip(vals1, vals1[1:]))   # decreasing in q
    assert all(v2 < v1 for v1, v2 in zip(vals1, vals2))   # decreasing in b


def test_gaussian_profile_matches_closed_form():
    p = GaussianPacket(b=A_B, particle=ELECTRON)
    prof = gaussian_profile(A_B)
    for qb in (0.0, 0.5, 1.0, 3.0, 10.0):
        q = qb / A_B
        assert fourier_density_numeric(prof, q) == pytest.approx(
            density_fourier(p, q), abs=1e-10)


def test_uniform_ball_form_factor():
    # analytic form factor of a uniform sphere at x = pi: 3/pi^2
    radius = 1.3e-10
    prof = uniform_ball_profile(radius)
    got = fourier_density_numeric(prof, math.pi / radius)
    assert got == pytest.approx(3.0 / math.pi**2, abs=1e-10)
    assert fourier_density_numeric(prof, 0.0) == pytest.approx(1.0, abs=1e-10)


def test_profile_normalization_error_carries_deficit():
    def rho(r):
        return 2.0 * (4.0 * math.pi * (1e-10) ** 2) ** -1.5 * math.exp(
            -(r / 2e-10) ** 2)

    with pytest.raises(NormalizationError) as err:
        RadialProfile(rho=rho, support_radius=4e-9)
    assert err.value.deficit == pytest.approx(1.0, rel=1e-6, abs=0)


def test_internal_kinetic_value():
    # 3 hbar^2 / (16 m a_B^2) = (3/8) Rydberg
    p = GaussianPacket(b=A_B, particle=ELECTRON)
    rydberg = derived_scales(ELECTRON, 0.0).rydberg_like_energy
    assert internal_kinetic_energy(p) == pytest.approx(0.375 * rydberg, rel=1e-12, abs=0)
    assert internal_kinetic_energy(p) / EV == pytest.approx(5.1021, rel=1e-4, abs=0)


def test_internal_kinetic_scalings():
    p1 = GaussianPacket(b=A_B, particle=ELECTRON)
    p2 = GaussianPacket(b=2 * A_B, particle=ELECTRON)
    assert internal_kinetic_energy(p2) == pytest.approx(
        internal_kinetic_energy(p1) / 4.0, rel=1e-14, abs=0)
    pp = GaussianPacket(b=A_B, particle=PROTON)
    assert internal_kinetic_energy(pp) == pytest.approx(
        internal_kinetic_energy(p1) * ELECTRON.mass / PROTON.mass, rel=1e-14, abs=0)


def test_internal_kinetic_b2_invariant():
    ref = None
    for b in np.logspace(-12, -6, 7):
        p = GaussianPacket(b=float(b), particle=ELECTRON)
        value = internal_kinetic_energy(p) * b**2
        if ref is None:
            ref = value
        assert value == pytest.approx(ref, rel=1e-14, abs=0)


def test_internal_kinetic_numeric_oracle():
    for b in (1e-12, A_B, 1e-6):
        p = GaussianPacket(b=b, particle=ELECTRON)
        assert internal_kinetic_energy_numeric(p) == pytest.approx(
            internal_kinetic_energy(p), rel=1e-10, abs=0)

