"""Term-by-term evaluation of the conserved energy of a drifting packet.

For a Gaussian packet every term reduces to a coefficient times the
electrostatic self-energy E_el = (Z e)^2 / (8 sqrt(2) pi^(3/2) eps0 b):

    internal kinetic     3 hbar^2 / (16 M b^2)
    current . potential  -(2/3) beta^2 E_el       (the binding term)
    transverse field     +(4/15) beta^4 E_el
    convective           P^2 / 2M, constant in b

E_el itself is computed in the wavepacket module, beside the internal
kinetic term, and re-exported here.  The closed forms, and
localization_objective, take a GaussianPacket or a PacketStack (arrays of
widths and speeds, one value per packet); powers of beta are Python's, so
a stack gives each packet's bits.  Each Gaussian closed form has an
adaptive-quadrature twin used as oracle.
Two assembly modes exist: PAPER_QUOTED keeps only the terms whose
minimization yields the closed-form localization radius and binding energy;
ASSEMBLED adds the beta^4 transverse-field term.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .scales import CONST, EV
from .wavepacket import (GaussianPacket, PacketStack, _pow,
                         electrostatic_energy, internal_kinetic_energy)
from .coherent_field import ANGULAR_CROSS, ANGULAR_TRANSVERSE, _radial_i2


class BudgetMode(enum.Enum):
    PAPER_QUOTED = "PaperQuoted"
    ASSEMBLED = "Assembled"

    @classmethod
    def parse(cls, text: str) -> "BudgetMode":
        for mode in cls:
            if mode.value.lower() == str(text).lower():
                return mode
        raise ValueError(f"unknown budget mode {text!r}")


@dataclass(frozen=True)
class EnergyBudget:
    """Itemized energy terms in joules, plus the assembly mode."""

    convective: float
    internal_kinetic: float
    electrostatic_e_el: float
    current_potential: float
    transverse_field: float
    a_squared_rate: float
    total: float
    mode: BudgetMode

    def to_dict(self) -> dict:
        """Flat mapping with energies in eV (serialization form)."""
        return {
            "convective_eV": self.convective / EV,
            "internal_kinetic_eV": self.internal_kinetic / EV,
            "electrostatic_eV": self.electrostatic_e_el / EV,
            "current_potential_eV": self.current_potential / EV,
            "transverse_field_eV": self.transverse_field / EV,
            "a_squared_rate_eV": self.a_squared_rate / EV,
            "total_eV": self.total / EV,
            "mode": self.mode.value,
        }

    CSV_FIELDS = ("convective_eV", "internal_kinetic_eV", "electrostatic_eV",
                  "current_potential_eV", "transverse_field_eV",
                  "a_squared_rate_eV", "total_eV", "mode")


def electrostatic_energy_quadrature(p: GaussianPacket) -> float:
    """Quadrature oracle for the Gaussian closed form (J)."""
    return p.particle.charge**2 / (4.0 * math.pi**2 * CONST.eps0) * _radial_i2(p)


def current_potential_energy(p: GaussianPacket | PacketStack) -> float:
    """Interaction term -(1/2) int j_c . A_c d3r = -(2/3) beta^2 E_el (J).

    Negative for any moving packet: parallel currents attract.
    """
    return -ANGULAR_TRANSVERSE * _pow(p.beta, 2) * electrostatic_energy(p)


def current_potential_energy_quadrature(p: GaussianPacket) -> float:
    """Radial-quadrature twin of current_potential_energy (J)."""
    q_s = p.particle.charge
    p_c2 = float(p.particle.mass * p.beta * CONST.c) ** 2
    pref = -0.5 * ANGULAR_TRANSVERSE / (2.0 * math.pi**2) * q_s**2 * p_c2 / (
        p.particle.mass**2 * CONST.c**2 * CONST.eps0)
    return pref * _radial_i2(p)


def transverse_field_energy(p: GaussianPacket | PacketStack) -> float:
    """Transverse-field energy eps0 int E_perp^2 d3r = (4/15) beta^4 E_el (J)."""
    return 2.0 * ANGULAR_CROSS * _pow(p.beta, 4) * electrostatic_energy(p)


def transverse_field_energy_quadrature(p: GaussianPacket) -> float:
    """Radial-quadrature twin of transverse_field_energy (J)."""
    q_s = p.particle.charge
    p_c2 = float(p.particle.mass * p.beta * CONST.c) ** 2
    v_c2 = (p.beta * CONST.c) ** 2
    pref = ANGULAR_CROSS / (2.0 * math.pi**2) * q_s**2 * p_c2 * v_c2 / (
        p.particle.mass**2 * CONST.c**4 * CONST.eps0)
    return pref * _radial_i2(p)


def convective_energy(p: GaussianPacket) -> float:
    """Constant reference P^2 / 2M = M (beta c)^2 / 2 (J).

    The self-field correction to P is O(beta^4 E_el) and is dropped, so the
    term is genuinely b-independent and never moves the minimizer.
    """
    return 0.5 * p.particle.mass * (p.beta * CONST.c) ** 2


def assemble_budget(p: GaussianPacket, mode: BudgetMode = BudgetMode.PAPER_QUOTED) -> EnergyBudget:
    """Assemble the localization energy budget of a packet.

    PAPER_QUOTED: total = P^2/2M + 3 hbar^2/(16 M b^2) - (2/3) beta^2 E_el,
    the truncation whose minimizer reproduces the closed-form radius and
    binding energy.  ASSEMBLED adds the (4/15) beta^4 E_el field term.
    """
    convective = convective_energy(p)
    kinetic = internal_kinetic_energy(p)
    e_el = electrostatic_energy(p)
    if e_el == 0.0 and p.particle.charge != 0.0:
        # every self-field term is a multiple of E_el: none would be left
        raise FloatingPointError(f"electrostatic self-energy underflows at b = {p.b:.3e} m")
    attraction = current_potential_energy(p)
    field = transverse_field_energy(p)
    if mode is BudgetMode.PAPER_QUOTED:
        total = convective + kinetic + attraction
        field_kept = 0.0
    else:
        field_kept = field
        total = convective + kinetic + attraction + field_kept
    return EnergyBudget(convective=convective, internal_kinetic=kinetic,
                        electrostatic_e_el=e_el, current_potential=attraction,
                        transverse_field=field_kept, a_squared_rate=0.0,
                        total=total, mode=mode)


def localization_objective(p: GaussianPacket | PacketStack, mode: BudgetMode) -> float:
    """b-dependent part of the budget total (J).

    Omitting the constant convective term avoids catastrophic cancellation
    (P^2/2M is ~1e7 times the binding depth), so the minimizer location is
    resolvable in double precision.
    """
    value = internal_kinetic_energy(p) + current_potential_energy(p)
    if mode is BudgetMode.ASSEMBLED:
        value += transverse_field_energy(p)
    return value
