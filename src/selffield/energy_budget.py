"""Term-by-term evaluation of the conserved energy of a drifting packet.

For a Gaussian packet every term reduces to a coefficient times the
electrostatic self-energy E_el = (Z e)^2 / (8 sqrt(2) pi^(3/2) eps0 b):

    internal kinetic     3 hbar^2 / (16 M b^2)
    current . potential  -(2/3) beta^2 E_el       (the binding term)
    transverse field     +(4/15) beta^4 E_el
    convective           P^2 / 2M, constant in b

Each Gaussian closed form has an adaptive-quadrature twin used as oracle.
Two assembly modes exist: PAPER_QUOTED keeps only the terms whose
minimization yields the closed-form localization radius and binding energy;
ASSEMBLED adds the beta^4 transverse-field term.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import DivergenceError
from .scales import CONST, EV
from .wavepacket import (GaussianPacket, QUAD_ATOL, QUAD_RTOL, RadialProfile,
                         U_MAX, fourier_density_numeric,
                         internal_kinetic_energy)
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    CSV_FIELDS = ("convective_eV", "internal_kinetic_eV", "electrostatic_eV",
                  "current_potential_eV", "transverse_field_eV",
                  "a_squared_rate_eV", "total_eV", "mode")


def electrostatic_energy(prof: GaussianPacket | RadialProfile, charge: float | None = None) -> float:
    """Electrostatic self-energy (Z e)^2 / (4 pi^2 eps0) int rho_hat^2 dq (J).

    Gaussian packets use the closed form (Z e)^2 / (8 sqrt(2) pi^(3/2) eps0 b);
    a RadialProfile is integrated numerically (charge defaults to e).
    """
    if isinstance(prof, GaussianPacket):
        ze = prof.particle.charge
        return ze**2 / (8.0 * math.sqrt(2.0) * math.pi**1.5 * CONST.eps0 * prof.b)
    ze = CONST.e_charge if charge is None else charge
    scale = prof.support_radius

    def integrand(u):
        return fourier_density_numeric(prof, u / scale) ** 2

    val, err = quad(integrand, 0.0, U_MAX * 4.0,
                    epsabs=QUAD_ATOL, epsrel=1e-9, limit=200)
    if err > 1e-6 * abs(val):
        raise DivergenceError(
            f"electrostatic integral did not converge (estimate {val:.3e}, error {err:.3e})")
    return ze**2 / (4.0 * math.pi**2 * CONST.eps0) * val / scale


def electrostatic_energy_quadrature(p: GaussianPacket) -> float:
    """Quadrature oracle for the Gaussian closed form (J)."""
    return p.particle.charge**2 / (4.0 * math.pi**2 * CONST.eps0) * _radial_i2(p)


def current_potential_energy(p: GaussianPacket) -> float:
    """Interaction term -(1/2) int j_c . A_c d3r = -(2/3) beta^2 E_el (J).

    Negative for any moving packet: parallel currents attract.
    """
    return -ANGULAR_TRANSVERSE * p.beta**2 * electrostatic_energy(p)


def current_potential_energy_quadrature(p: GaussianPacket) -> float:
    """Radial-quadrature twin of current_potential_energy (J)."""
    q_s = p.particle.charge
    p_c2 = float(p.particle.mass * p.beta * CONST.c) ** 2
    pref = -0.5 * ANGULAR_TRANSVERSE / (2.0 * math.pi**2) * q_s**2 * p_c2 / (
        p.particle.mass**2 * CONST.c**2 * CONST.eps0)
    return pref * _radial_i2(p)


def transverse_field_energy(p: GaussianPacket) -> float:
    """Transverse-field energy eps0 int E_perp^2 d3r = (4/15) beta^4 E_el (J)."""
    return 2.0 * ANGULAR_CROSS * p.beta**4 * electrostatic_energy(p)


def transverse_field_energy_quadrature(p: GaussianPacket) -> float:
    """Radial-quadrature twin of transverse_field_energy (J)."""
    q_s = p.particle.charge
    p_c2 = float(p.particle.mass * p.beta * CONST.c) ** 2
    v_c2 = (p.beta * CONST.c) ** 2
    pref = ANGULAR_CROSS / (2.0 * math.pi**2) * q_s**2 * p_c2 * v_c2 / (
        p.particle.mass**2 * CONST.c**4 * CONST.eps0)
    return pref * _radial_i2(p)


def a_squared_rate_term(p: GaussianPacket, db_dt: float) -> float:
    """Width-breathing diagnostic (8/3) sqrt(2/pi) (beta^2/c^2) E_el b db/dt.

    Vanishes for a stationary width; excluded from assembled totals.  Kept
    in the printed form of the source model, which is a rate-like
    diagnostic rather than a strict energy.
    """
    if db_dt == 0.0 or p.beta == 0.0:
        return 0.0
    return (8.0 / 3.0) * math.sqrt(2.0 / math.pi) * (p.beta**2 / CONST.c**2) \
        * electrostatic_energy(p) * p.b * db_dt


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


def localization_objective(p: GaussianPacket, mode: BudgetMode) -> float:
    """b-dependent part of the budget total (J).

    Omitting the constant convective term avoids catastrophic cancellation
    (P^2/2M is ~1e7 times the binding depth), so the minimizer location is
    resolvable in double precision.
    """
    value = internal_kinetic_energy(p) + current_potential_energy(p)
    if mode is BudgetMode.ASSEMBLED:
        value += transverse_field_energy(p)
    return value
