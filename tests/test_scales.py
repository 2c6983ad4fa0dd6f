"""Tests for physical constants and derived particle scales."""

import math

import pytest

from selffield.errors import InvalidVelocityError
from selffield.scales import (CONST, ELECTRON, EV, PROTON, ParticleSpec,
                              PhysicalConstants, derived_scales)

A_BOHR_CODATA = 5.29177210903e-11
RYDBERG_EV_CODATA = 13.605693122994


def test_constants_positive_and_frozen():
    assert CONST.hbar == 1.054571817e-34
    assert CONST.c == 299792458.0
    assert CONST.e_charge == 1.602176634e-19
    for value in (CONST.hbar, CONST.c, CONST.eps0, CONST.e_charge, CONST.m_electron):
        assert value > 0.0


def test_constants_reject_nonpositive():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=-1e-34)


def test_electron_scales_match_codata():
    s = derived_scales(ELECTRON, 0.0)
    assert s.bohr_like_length == pytest.approx(A_BOHR_CODATA, rel=1e-8, abs=0)
    assert s.rydberg_like_energy / EV == pytest.approx(RYDBERG_EV_CODATA, rel=1e-8, abs=0)
    assert s.de_broglie_length is None


def test_proton_bohr_scaling():
    s_e = derived_scales(ELECTRON, 0.0)
    s_p = derived_scales(PROTON, 0.0)
    ratio = PROTON.mass / ELECTRON.mass
    assert s_p.bohr_like_length == pytest.approx(s_e.bohr_like_length / ratio, rel=1e-14, abs=0)


def test_de_broglie_electron():
    # 2 pi hbar / (m_e * 0.1 c), direct formula evaluation
    s = derived_scales(ELECTRON, 0.1)
    expected = 2.0 * math.pi * CONST.hbar / (ELECTRON.mass * 0.1 * CONST.c)
    assert s.de_broglie_length == expected
    assert s.de_broglie_length == pytest.approx(2.426e-11, rel=1e-3, abs=0)


def test_bohr_ratio_is_mass_charge_scaling():
    # bohr(electron) / bohr(Z, M) = (M/m_e) Z^2 exactly
    s_e = derived_scales(ELECTRON, 0.0)
    for z, mass_ratio in ((1, 1836.152673), (2, 7294.3), (-3, 42.0)):
        p = ParticleSpec(z=z, mass=mass_ratio * ELECTRON.mass)
        s = derived_scales(p, 0.0)
        assert s_e.bohr_like_length / s.bohr_like_length == pytest.approx(
            mass_ratio * z**2, rel=1e-14, abs=0)


def test_compton_identity():
    for p in (ELECTRON, PROTON):
        s = derived_scales(p, 0.0)
        assert s.compton_length * p.mass * CONST.c / CONST.hbar == pytest.approx(
            1.0, rel=1e-15, abs=0)


def test_relativistic_beta_rejected():
    with pytest.raises(InvalidVelocityError):
        derived_scales(ELECTRON, 1.0)
    with pytest.raises(InvalidVelocityError):
        derived_scales(ELECTRON, -0.1)


def test_neutral_particle_rejected():
    with pytest.raises(ValueError):
        derived_scales(ParticleSpec(z=0, mass=CONST.m_electron), 0.1)


def test_particle_validation():
    with pytest.raises(ValueError):
        ParticleSpec(z=1, mass=0.0)
    assert ELECTRON.charge == -CONST.e_charge
    assert PROTON.charge == CONST.e_charge


@pytest.mark.parametrize("mass", [float("nan"), math.inf, -math.inf, -1.0])
def test_particle_mass_must_be_positive_and_finite(mass):
    with pytest.raises(ValueError):
        ParticleSpec(z=1, mass=mass)


def test_scipy_cross_check():
    # frozen values agree with scipy's CODATA table at their quoted precision
    from scipy import constants as sc

    assert CONST.hbar == pytest.approx(sc.hbar, rel=1e-9, abs=0)
    assert CONST.eps0 == pytest.approx(sc.epsilon_0, rel=1e-9, abs=0)
    # the frozen CODATA-2018 m_e sits 1.31e-9 below scipy's CODATA-2022 value
    assert CONST.m_electron == pytest.approx(sc.m_e, rel=2e-9, abs=0)
