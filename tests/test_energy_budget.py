"""Tests for the itemized conserved-energy budget."""

import math

import numpy as np
import pytest

from selffield.scales import CONST, ELECTRON, EV, derived_scales, ParticleSpec
from selffield.wavepacket import GaussianPacket
from selffield.energy_budget import (BudgetMode, assemble_budget,
                                     convective_energy,
                                     current_potential_energy,
                                     current_potential_energy_quadrature,
                                     electrostatic_energy,
                                     electrostatic_energy_quadrature,
                                     transverse_field_energy,
                                     transverse_field_energy_quadrature)

A_B = derived_scales(ELECTRON, 0.0).bohr_like_length


def _packet(b=A_B, beta=0.1):
    return GaussianPacket(b=b, particle=ELECTRON, beta=beta)


# --- electrostatic energy ----------------------------------------------------

def test_electrostatic_value():
    # e^2 / (8 sqrt(2) pi^(3/2) eps0 a_B) = 5.428 eV
    assert electrostatic_energy(_packet()) / EV == pytest.approx(5.4279, rel=1e-4, abs=0)


def test_electrostatic_inverse_b():
    assert electrostatic_energy(_packet(b=2 * A_B)) == pytest.approx(
        electrostatic_energy(_packet()) / 2.0, rel=1e-14, abs=0)


def test_electrostatic_charge_squared():
    z2 = ParticleSpec(z=2, mass=ELECTRON.mass)
    p2 = GaussianPacket(b=A_B, particle=z2, beta=0.1)
    assert electrostatic_energy(p2) == pytest.approx(
        4.0 * electrostatic_energy(_packet()), rel=1e-14, abs=0)


def test_electrostatic_quadrature_oracle():
    for b in np.logspace(-12, -6, 7):
        p = _packet(b=float(b))
        assert electrostatic_energy_quadrature(p) == pytest.approx(
            electrostatic_energy(p), rel=1e-10, abs=0)


# --- current-potential interaction -------------------------------------------

def test_current_potential_zero_at_rest():
    assert current_potential_energy(_packet(beta=0.0)) == 0.0


def test_current_potential_value():
    # -(2/3) beta^2 E_el = -3.619e-2 eV at b = a_B, beta = 0.1
    assert current_potential_energy(_packet()) / EV == pytest.approx(
        -3.6186e-2, rel=1e-4, abs=0)
    assert current_potential_energy(_packet()) < 0.0


def test_current_potential_ratio_b_independent():
    for b in (0.1 * A_B, A_B, 10 * A_B, 1e3 * A_B):
        p = _packet(b=b)
        ratio = current_potential_energy(p) / electrostatic_energy(p)
        assert ratio == pytest.approx(-2.0 / 3.0 * 0.01, rel=1e-14, abs=0)


def test_current_potential_quadrature_oracle():
    for b in (0.1 * A_B, A_B, 10 * A_B):
        for beta in (0.01, 0.1, 0.2):
            p = _packet(b=b, beta=beta)
            assert current_potential_energy_quadrature(p) == pytest.approx(
                current_potential_energy(p), rel=1e-8, abs=0)


# --- transverse field energy ---------------------------------------------------

def test_transverse_field_zero_at_rest():
    assert transverse_field_energy(_packet(beta=0.0)) == 0.0


def test_transverse_field_value():
    # (4/15) beta^4 E_el = 1.447e-4 eV at b = a_B, beta = 0.1
    assert transverse_field_energy(_packet()) / EV == pytest.approx(
        1.4474e-4, rel=1e-4, abs=0)
    assert transverse_field_energy(_packet()) >= 0.0


def test_transverse_field_to_current_ratio():
    # ratio is (2/5) beta^2 for any packet
    for b in (0.3 * A_B, 5 * A_B):
        for beta in (0.05, 0.15):
            p = _packet(b=b, beta=beta)
            ratio = transverse_field_energy(p) / abs(current_potential_energy(p))
            assert ratio == pytest.approx(0.4 * beta**2, rel=1e-12, abs=0)


def test_transverse_field_quadrature_oracle():
    for b in (0.1 * A_B, A_B, 10 * A_B):
        p = _packet(b=b)
        assert transverse_field_energy_quadrature(p) == pytest.approx(
            transverse_field_energy(p), rel=1e-8, abs=0)


# --- budget assembly -----------------------------------------------------------

def test_budget_at_rest_has_no_binding_terms():
    budget = assemble_budget(_packet(beta=0.0), BudgetMode.PAPER_QUOTED)
    assert budget.convective == 0.0
    assert budget.total - budget.convective == pytest.approx(
        budget.internal_kinetic, rel=1e-15, abs=0)
    assert budget.current_potential == 0.0


def test_budget_virial_example():
    # at the beta = 0.1 minimizer b = 1.4923e-8 m the kinetic term equals
    # half the attraction magnitude
    b_star = 1.4922568771641422e-08
    budget = assemble_budget(_packet(b=b_star), BudgetMode.PAPER_QUOTED)
    assert budget.internal_kinetic / EV == pytest.approx(6.41604e-5, rel=1e-5, abs=0)
    assert budget.internal_kinetic == pytest.approx(
        abs(budget.current_potential) / 2.0, rel=1e-9, abs=0)


def test_budget_modes_differ_by_field_term():
    p = _packet(b=3.0 * A_B)
    quoted = assemble_budget(p, BudgetMode.PAPER_QUOTED)
    assembled = assemble_budget(p, BudgetMode.ASSEMBLED)
    # difference passes through the ~1e8x larger convective constant, so the
    # comparison is only good to eps * total / field_term
    assert assembled.total - quoted.total == pytest.approx(
        transverse_field_energy(p), rel=1e-6, abs=0)
    assert assembled.transverse_field == transverse_field_energy(p)


def test_budget_additivity_bitwise():
    for mode in BudgetMode:
        budget = assemble_budget(_packet(b=2.2e-10), mode)
        recomputed = (budget.convective + budget.internal_kinetic
                      + budget.current_potential + budget.transverse_field)
        assert recomputed == budget.total


def test_budget_convective_constant_reference():
    # P^2/2M does not move with b
    e1 = assemble_budget(_packet(b=A_B)).convective
    e2 = assemble_budget(_packet(b=50 * A_B)).convective
    assert e1 == e2 == convective_energy(_packet())
    assert e1 == pytest.approx(0.5 * ELECTRON.mass * (0.1 * CONST.c) ** 2, rel=1e-15, abs=0)


def test_budget_serialization():
    budget = assemble_budget(_packet(), BudgetMode.ASSEMBLED)
    data = budget.to_dict()
    assert data["mode"] == "Assembled"
    assert set(budget.CSV_FIELDS) == set(data.keys())
    assert data["electrostatic_eV"] == pytest.approx(5.4279, rel=1e-4, abs=0)


def test_budget_invariant_signs():
    for b in (0.2 * A_B, A_B, 40 * A_B):
        for beta in (0.02, 0.25):
            budget = assemble_budget(_packet(b=b, beta=beta), BudgetMode.ASSEMBLED)
            assert budget.current_potential <= 0.0
            assert budget.internal_kinetic > 0.0
            assert budget.electrostatic_e_el > 0.0
            assert budget.transverse_field >= 0.0


def test_mode_parsing():
    assert BudgetMode.parse("paperquoted") is BudgetMode.PAPER_QUOTED
    assert BudgetMode.parse("Assembled") is BudgetMode.ASSEMBLED
    with pytest.raises(ValueError):
        BudgetMode.parse("bogus")
