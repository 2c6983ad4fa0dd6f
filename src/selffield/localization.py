"""Localization radius and binding energy of a drifting charged packet.

The b-dependent energy K/b^2 - C/b (kinetic against current attraction) has
its minimum at

    b* = (9 sqrt(pi) / 4 sqrt(2)) beta^-2 * a_B-like
    E_b = (4 / 27 pi) beta^4 * E_Rydberg-like

and b*/lambda_deBroglie is independent of the particle mass.  Both budget
modes keep this form (ASSEMBLED only weakens C by the beta^4 field term), so
the minimizer is closed form: functional_coefficients reads K and C off the
energy budget at the closed-form width, b* = 2K/C and the depth is C^2/4K,
evaluated as minus the objective at b*.  The screened atom reuses the same
K and C for its bare nucleus.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

from .errors import InvalidVelocityError, NoMinimumError
from .scales import ELECTRON, EV, ParticleSpec, derived_scales
from .energy_budget import BudgetMode, localization_objective
from .wavepacket import GaussianPacket, internal_kinetic_energy

# closed-form radius prefactor (9 sqrt(pi) / 4 sqrt(2)) and binding prefactor
RADIUS_PREFACTOR = 9.0 * math.sqrt(math.pi) / (4.0 * math.sqrt(2.0))
BINDING_PREFACTOR = 4.0 / (27.0 * math.pi)

BETA_SOFT_LIMIT = 0.3


@dataclass(frozen=True)
class LocalizationResult:
    """Minimizing width b_star (m), binding depth (J, positive), and context."""

    b_star: float
    binding_energy: float
    beta: float
    particle: ParticleSpec
    mode: BudgetMode
    b_over_de_broglie: float

    def to_dict(self) -> dict:
        return {
            "particle": self.particle.label or f"z={self.particle.z}",
            "beta": self.beta,
            "b_star_m": self.b_star,
            "binding_eV": self.binding_energy / EV,
            "b_over_lambda": self.b_over_de_broglie,
            "mode": self.mode.value,
        }


def closed_form_radius(p: ParticleSpec, beta: float) -> float:
    """b* = (9 sqrt(pi)/4 sqrt(2)) beta^-2 * bohr_like_length (m)."""
    scales = derived_scales(p, beta)
    return RADIUS_PREFACTOR * scales.bohr_like_length / beta**2


def closed_form_binding(p: ParticleSpec, beta: float) -> float:
    """E_b = (4/27 pi) beta^4 * rydberg_like_energy (J)."""
    scales = derived_scales(p, beta)
    return BINDING_PREFACTOR * beta**4 * scales.rydberg_like_energy


def _check_beta(beta: float):
    if not 0.0 <= beta < 1.0:
        raise InvalidVelocityError(f"beta = {beta} outside [0, 1)")
    if beta == 0.0:
        raise NoMinimumError("functional is monotone at beta = 0: no localization")
    if beta > BETA_SOFT_LIMIT:
        warnings.warn(f"beta = {beta} > {BETA_SOFT_LIMIT}: beta^4 terms are no "
                      "longer small; results are indicative only", stacklevel=4)


def functional_coefficients(p: ParticleSpec, beta: float,
                            mode: BudgetMode = BudgetMode.PAPER_QUOTED) -> tuple[float, float]:
    """K (J m^2) and C (J m) of the localization energy K/b^2 - C/b, read off
    the budget at the closed-form width seed (the PAPER_QUOTED minimizer),
    where neither reading loses digits to cancellation.

    Raises NoMinimumError at beta = 0, when the functional does not bind,
    and when b* = 2K/C or the depth C^2/4K is outside the normal float range.
    """
    if p.z == 0:
        raise ValueError("charged-particle minimization needs z != 0; use the atom module")
    _check_beta(beta)
    where = f"beta={beta} for particle {p.label or p.z}"
    try:
        seed = closed_form_radius(p, beta)
        at_seed = GaussianPacket(b=seed, particle=p, beta=beta)
        kinetic = internal_kinetic_energy(at_seed)
        k_coeff = kinetic * seed**2
        c_coeff = (kinetic - localization_objective(at_seed, mode)) * seed
    except (ArithmeticError, ValueError) as exc:   # seed width or energy out of range
        raise NoMinimumError(f"minimum outside the float range at {where}") from exc
    if not c_coeff > 0.0:
        raise NoMinimumError(f"functional non-binding at {where}")
    b_star = 2.0 * k_coeff / c_coeff
    if not (0.0 < b_star * b_star < math.inf
            and c_coeff / (2.0 * b_star) >= sys.float_info.min):
        raise NoMinimumError(f"minimum outside the float range at {where}")
    return k_coeff, c_coeff


def minimize_radius(p: ParticleSpec, beta: float,
                    mode: BudgetMode = BudgetMode.PAPER_QUOTED) -> LocalizationResult:
    """Minimize K/b^2 - C/b in closed form: b* = 2K/C, depth = -objective(b*)."""
    k_coeff, c_coeff = functional_coefficients(p, beta, mode)
    b_star = 2.0 * k_coeff / c_coeff
    depth = -localization_objective(GaussianPacket(b=b_star, particle=p, beta=beta), mode)
    lam = derived_scales(p, beta).de_broglie_length
    return LocalizationResult(
        b_star=b_star, binding_energy=depth, beta=beta, particle=p, mode=mode,
        b_over_de_broglie=b_star / lam)


def scale_to_particle(res: LocalizationResult, z: int, mass: float,
                      label: str = "") -> LocalizationResult:
    """Rescale an electron localization result to charge +-Z e and mass M.

    b -> (m_e/M) Z^-2 b_el and binding -> (M/m_e) Z^4 E_b,el; agrees with a
    direct minimization for the target particle to ~1e-12.
    """
    if z == 0:
        raise ValueError("scaling to a neutral particle is not applicable; use the atom module")
    if res.particle.z != ELECTRON.z or res.particle.mass != ELECTRON.mass:
        raise ValueError("scale_to_particle expects an electron-based result")
    mass_ratio = ELECTRON.mass / mass
    target = ParticleSpec(z=z, mass=mass, label=label or f"z={z}")
    b_new = res.b_star * mass_ratio / z**2
    binding_new = res.binding_energy / mass_ratio * z**4
    lam = derived_scales(target, res.beta).de_broglie_length
    return LocalizationResult(
        b_star=b_new, binding_energy=binding_new, beta=res.beta, particle=target,
        mode=res.mode, b_over_de_broglie=b_new / lam)


def debroglie_ratio(p: ParticleSpec, beta: float) -> float:
    """Mass-independent ratio b*/lambda = (9 sqrt(pi)/4 sqrt(2)) *
    (a_B-like / compton-like) * beta^-1 / (2 pi) ~ 61.5 beta^-1 Z^-2."""
    if beta <= 0.0:
        raise InvalidVelocityError("debroglie ratio needs beta > 0")
    scales = derived_scales(p, beta)
    return closed_form_radius(p, beta) / scales.de_broglie_length


@dataclass(frozen=True)
class SweepRow:
    """One sweep entry; rows with errors carry a status instead of aborting."""

    beta: float
    result: LocalizationResult | None
    status: str

    def to_dict(self) -> dict:
        if self.result is not None:
            return {"beta": self.beta,
                    "b_star_m": self.result.b_star,
                    "binding_eV": self.result.binding_energy / EV,
                    "b_over_lambda": self.result.b_over_de_broglie,
                    "mode": self.result.mode.value,
                    "status": self.status}
        return {"beta": self.beta, "b_star_m": None, "binding_eV": None,
                "b_over_lambda": None, "mode": None, "status": self.status}


SWEEP_FIELDS = ("beta", "b_star_m", "binding_eV", "b_over_lambda", "mode", "status")


def sweep(p: ParticleSpec, beta_grid,
          mode: BudgetMode = BudgetMode.PAPER_QUOTED) -> list[SweepRow]:
    """Minimize over a grid of beta values; one row per beta, input order.

    Per-row failures become row statuses ('no-minimum', 'invalid-velocity')
    and never abort the sweep; the beta soft-limit warning is silenced.
    """
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for beta in map(float, beta_grid):
            try:
                rows.append(SweepRow(beta=beta, result=minimize_radius(p, beta, mode),
                                     status="ok"))
            except NoMinimumError:
                rows.append(SweepRow(beta=beta, result=None, status="no-minimum"))
            except InvalidVelocityError:
                rows.append(SweepRow(beta=beta, result=None, status="invalid-velocity"))
    return rows
