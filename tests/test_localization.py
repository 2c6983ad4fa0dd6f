"""Tests for the localization minimizer, scalings, ratio law, and sweeps."""

import math
import warnings

import pytest
from scipy.optimize import minimize_scalar

from selffield.errors import InvalidVelocityError, NoMinimumError
from selffield.scales import CONST, ELECTRON, EV, PROTON, ParticleSpec
from selffield.energy_budget import (BudgetMode, assemble_budget,
                                     localization_objective)
from selffield.wavepacket import GaussianPacket
from selffield.localization import (closed_form_binding, closed_form_radius,
                                    debroglie_ratio, functional_coefficients,
                                    minimize_radius, scale_to_particle, sweep)


def test_electron_reference_numbers():
    res = minimize_radius(ELECTRON, 0.1)
    # indicative values: b ~ 1.5e-8 m, binding ~ 6.4e-5 eV
    assert res.b_star == pytest.approx(1.49e-8, rel=0.05, abs=0)
    assert res.binding_energy / EV == pytest.approx(6.4e-5, rel=0.05, abs=0)
    # unrounded closed forms to 1e-6
    assert res.b_star == pytest.approx(closed_form_radius(ELECTRON, 0.1), rel=1e-6, abs=0)
    assert res.binding_energy == pytest.approx(
        closed_form_binding(ELECTRON, 0.1), rel=1e-6, abs=0)


def test_proton_reference_numbers():
    res = minimize_radius(PROTON, 0.1)
    assert res.b_star == pytest.approx(8.1e-12, rel=0.05, abs=0)
    assert res.binding_energy / EV == pytest.approx(1.2e-1, rel=0.05, abs=0)


def test_radius_beta_scaling():
    r1 = minimize_radius(ELECTRON, 0.05)
    r2 = minimize_radius(ELECTRON, 0.1)
    assert r1.b_star / r2.b_star == pytest.approx(4.0, rel=1e-9, abs=0)


def test_minimizer_optimality():
    res = minimize_radius(ELECTRON, 0.1)
    for particle, beta in ((ELECTRON, 0.1), (PROTON, 0.2)):
        res = minimize_radius(particle, beta)

        def total(b):
            return assemble_budget(
                GaussianPacket(b=b, particle=particle, beta=beta)).total

        assert total(res.b_star * (1 + 1e-4)) > total(res.b_star)
        assert total(res.b_star * (1 - 1e-4)) > total(res.b_star)


def test_closed_form_agreement_grid():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for particle in (ELECTRON, PROTON):
            for beta in (0.01, 0.05, 0.1, 0.2, 0.3):
                res = minimize_radius(particle, beta)
                assert res.b_star == pytest.approx(
                    closed_form_radius(particle, beta), rel=1e-6, abs=0)
                assert res.binding_energy == pytest.approx(
                    closed_form_binding(particle, beta), rel=1e-6, abs=0)


@pytest.mark.parametrize("mode", list(BudgetMode))
@pytest.mark.parametrize("particle", [
    ELECTRON, PROTON, ParticleSpec(z=2, mass=4.0 * PROTON.mass),
    ParticleSpec(z=-3, mass=1e-29)], ids=["electron", "proton", "z2", "z-3"])
def test_closed_form_matches_numeric_minimizer(particle, mode):
    # oracle: bounded Brent search on the budget objective around the seed;
    # Brent resolves a flat minimum only to ~sqrt(eps) in b
    for beta in (1e-3, 0.05, 0.1, 0.3, 0.9):
        seed = closed_form_radius(particle, beta)

        def objective(b):
            return localization_objective(
                GaussianPacket(b=b, particle=particle, beta=beta), mode)

        oracle = minimize_scalar(objective, bounds=(0.1 * seed, 10.0 * seed),
                                 method="bounded",
                                 options={"xatol": 1e-12 * seed, "maxiter": 500})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = minimize_radius(particle, beta, mode)
        assert res.b_star == pytest.approx(oracle.x, rel=1e-7, abs=0.0)
        assert res.binding_energy == pytest.approx(-oracle.fun, rel=1e-12, abs=0.0)


def test_assembled_mode_shift_bound():
    # coefficient-ratio bound: the extra (4/15) beta^4 term rescales the
    # attraction by (1 - 0.4 beta^2), so the exact shift is
    # 0.4 beta^2 / (1 - 0.4 beta^2), i.e. 0.4 beta^2 at leading order
    for beta in (0.05, 0.1, 0.2):
        quoted = minimize_radius(ELECTRON, beta, BudgetMode.PAPER_QUOTED)
        assembled = minimize_radius(ELECTRON, beta, BudgetMode.ASSEMBLED)
        shift = abs(assembled.b_star - quoted.b_star) / quoted.b_star
        bound = 0.4 * beta**2 / (1.0 - 0.4 * beta**2)
        assert shift <= bound * (1.0 + 1e-6)


def test_error_paths():
    with pytest.raises(NoMinimumError):
        minimize_radius(ELECTRON, 0.0)
    with pytest.raises(InvalidVelocityError):
        minimize_radius(ELECTRON, 1.0)
    with pytest.raises(ValueError):
        minimize_radius(ParticleSpec(z=0, mass=ELECTRON.mass), 0.1)


def test_beta_soft_warning():
    with pytest.warns(UserWarning):
        minimize_radius(ELECTRON, 0.35)


def test_scale_to_particle_identity():
    res = minimize_radius(ELECTRON, 0.1)
    same = scale_to_particle(res, -1, ELECTRON.mass)
    assert same.b_star == pytest.approx(res.b_star, rel=1e-14, abs=0)
    assert same.binding_energy == pytest.approx(res.binding_energy, rel=1e-14, abs=0)


def test_scale_to_particle_proton():
    res = minimize_radius(ELECTRON, 0.1)
    scaled = scale_to_particle(res, 1, PROTON.mass, "proton")
    direct = minimize_radius(PROTON, 0.1)
    assert scaled.b_star == pytest.approx(direct.b_star, rel=1e-9, abs=0)
    assert scaled.binding_energy == pytest.approx(direct.binding_energy, rel=1e-9, abs=0)


def test_scale_to_particle_heavy_ion():
    # Z = 2, M = 4 proton masses: cross-check the two code paths
    res = minimize_radius(ELECTRON, 0.1)
    mass = 4.0 * PROTON.mass
    scaled = scale_to_particle(res, 2, mass, "alpha")
    direct = minimize_radius(ParticleSpec(z=2, mass=mass, label="alpha"), 0.1)
    assert scaled.b_star == pytest.approx(direct.b_star, rel=1e-9, abs=0)
    assert scaled.binding_energy == pytest.approx(direct.binding_energy, rel=1e-9, abs=0)


def test_scale_to_particle_rejects_neutral_and_nonelectron():
    res = minimize_radius(ELECTRON, 0.1)
    with pytest.raises(ValueError):
        scale_to_particle(res, 0, PROTON.mass)
    proton_res = minimize_radius(PROTON, 0.1)
    with pytest.raises(ValueError):
        scale_to_particle(proton_res, 1, PROTON.mass)


def test_debroglie_ratio_values():
    # ~61.5 / beta, within 2% of the rounded 62/beta
    ratio = debroglie_ratio(ELECTRON, 0.1)
    assert ratio == pytest.approx(615.0, rel=1e-2, abs=0)
    assert ratio == pytest.approx(620.0, rel=0.02, abs=0)


def test_debroglie_ratio_mass_independent():
    for beta in (0.05, 0.1, 0.2):
        r_e = debroglie_ratio(ELECTRON, beta)
        r_p = debroglie_ratio(PROTON, beta)
        assert abs(r_e - r_p) / r_e < 1e-12


def test_debroglie_ratio_charge_scaling():
    z2 = ParticleSpec(z=2, mass=ELECTRON.mass)
    assert debroglie_ratio(z2, 0.1) == pytest.approx(
        debroglie_ratio(ELECTRON, 0.1) / 4.0, rel=1e-12, abs=0)
    with pytest.raises(InvalidVelocityError):
        debroglie_ratio(ELECTRON, 0.0)


def test_result_matches_debroglie_field():
    res = minimize_radius(ELECTRON, 0.1)
    assert res.b_over_de_broglie == pytest.approx(
        debroglie_ratio(ELECTRON, 0.1), rel=1e-6, abs=0)


def test_sweep_scaling_rows():
    rows = sweep(ELECTRON, [0.05, 0.1, 0.2])
    assert [r.status for r in rows] == ["ok", "ok", "ok"]
    b = [r.result.b_star for r in rows]
    assert b[0] / b[2] == pytest.approx(16.0, rel=1e-9, abs=0)
    assert b[1] / b[2] == pytest.approx(4.0, rel=1e-9, abs=0)


def test_sweep_empty():
    assert sweep(ELECTRON, []) == []


def test_sweep_error_rows():
    rows = sweep(ELECTRON, [0.0, 0.1, 2.0])
    assert rows[0].status == "no-minimum"
    assert rows[1].status == "ok"
    assert rows[2].status == "invalid-velocity"
    data = [r.to_dict() for r in rows]
    assert data[0]["b_star_m"] is None
    assert data[1]["b_star_m"] == pytest.approx(1.4923e-8, rel=1e-3, abs=0)


def test_sweep_order_is_input_order():
    grid = [0.2, 0.05, 0.1]
    rows = sweep(ELECTRON, grid)
    assert [r.beta for r in rows] == grid


# --- the shared coefficient reader ------------------------------------------------

@pytest.mark.parametrize("mode", list(BudgetMode))
def test_functional_coefficients(mode):
    k_coeff, c_coeff = functional_coefficients(PROTON, 0.1, mode)
    assert k_coeff == pytest.approx(3.0 * CONST.hbar**2 / (16.0 * PROTON.mass),
                                    rel=1e-15, abs=0)
    e_el_b = CONST.e_charge**2 / (8.0 * math.sqrt(2.0) * math.pi**1.5 * CONST.eps0)
    weakening = 1.0 - 0.4 * 0.1**2 if mode is BudgetMode.ASSEMBLED else 1.0
    assert c_coeff == pytest.approx(2.0 / 3.0 * 0.1**2 * e_el_b * weakening,
                                    rel=1e-15, abs=0)
    res = minimize_radius(PROTON, 0.1, mode)
    assert res.b_star == 2.0 * k_coeff / c_coeff


@pytest.mark.parametrize("beta", [1e-74, 1e-100, 1e-160, 1e-170, 5e-324])
def test_minimum_outside_float_range_is_no_minimum(beta):
    # the depth (4/27 pi) beta^4 Ry would be subnormal or zero, or b* overflows
    with pytest.raises(NoMinimumError, match="float range"):
        minimize_radius(ELECTRON, beta)
    rows = sweep(ELECTRON, [beta, 0.1])
    assert [r.status for r in rows] == ["no-minimum", "ok"]


def test_extreme_masses_are_no_minimum():
    for mass in (1e-300, 1e300):
        with pytest.raises(NoMinimumError, match="float range"):
            minimize_radius(ParticleSpec(z=1, mass=mass), 0.1)
