"""Localization radius and binding energy of a drifting charged packet.

The b-dependent energy K/b^2 - C/b (kinetic against current attraction) has
its minimum at

    b* = (9 sqrt(pi) / 4 sqrt(2)) beta^-2 * a_B-like
    E_b = (4 / 27 pi) beta^4 * E_Rydberg-like

and b*/lambda_deBroglie is independent of the particle mass.  Both budget
modes keep this form (ASSEMBLED only weakens C by the beta^4 field term), so
the minimizer is closed form.  One kernel, _localize, evaluates it for one
beta or a 1-D array of them as one numpy batch: it reads K and C off the
energy budget at the closed-form widths (a PacketStack), forms b* = 2K/C,
and takes the depth C^2/4K as minus the objective at b*.  Each row gets the
bits of a scalar evaluation (the powers are Python's) and, instead of an
exception, a status:

    ok                a minimum inside the normal float range
    invalid-velocity  beta outside [0, 1), or nan
    no-minimum        beta = 0, where the functional is monotone
    non-binding       C <= 0, or C is nan
    float-range       scalar float arithmetic would raise (a zero divisor,
                      an overflowing power, a seed width outside (0, inf)),
                      or b*^2 or the depth leaves the normal float range

sweep is one kernel call per grid, and its rows are flat: one SweepRow
tuple per beta, in CSV column order, built straight from the kernel's
columns with None cells on an error row (no LocalizationResult per row).
functional_coefficients and minimize_radius are the kernel's one-row case
and raise what the row's status names; so does the screened atom, which
reuses K, C and b* for its bare nucleus.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidVelocityError, NoMinimumError
from .scales import ELECTRON, EV, ParticleSpec, de_broglie_length, derived_scales
from .energy_budget import BudgetMode, localization_objective
from .wavepacket import PacketStack, _pow, internal_kinetic_energy

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
    return _radius(derived_scales(p, beta).bohr_like_length, beta)


def _radius(bohr, beta):
    """closed_form_radius from the Bohr-like length; beta may be an array."""
    return RADIUS_PREFACTOR * bohr / _pow(beta, 2)


def closed_form_binding(p: ParticleSpec, beta: float) -> float:
    """E_b = (4/27 pi) beta^4 * rydberg_like_energy (J)."""
    scales = derived_scales(p, beta)
    return BINDING_PREFACTOR * beta**4 * scales.rydberg_like_energy


class _Localized(NamedTuple):
    """K (J m^2), C (J m), b* = 2K/C (m), the depth -objective(b*) (J),
    b*/lambda and a status from _localize: numpy arrays with one entry per
    beta (numpy scalars for one beta)."""

    k_coeff: np.ndarray
    c_coeff: np.ndarray
    b_star: np.ndarray
    depth: np.ndarray
    b_over_de_broglie: np.ndarray
    status: np.ndarray


# _localize's row statuses: a row takes the first whose check holds
_STATUSES = np.array(("invalid-velocity", "no-minimum", "float-range", "non-binding",
                      "float-range", "ok"))


def _localize(p: ParticleSpec, beta, mode: BudgetMode) -> _Localized:
    """Localize p at beta, a float or a 1-D sequence of them, as one numpy
    batch, with the row statuses of the module docstring."""
    if p.z == 0:
        raise ValueError("charged-particle minimization needs z != 0; use the atom module")
    beta = np.asarray(beta, dtype=float)[()]   # one beta: a numpy scalar, not a 0-d array
    with np.errstate(all="ignore"):
        try:
            seed = _radius(derived_scales(p).bohr_like_length, beta)
            at_seed = PacketStack(b=seed, particle=p, beta=beta)
            kinetic = internal_kinetic_energy(at_seed)
            seed_sq = _pow(seed, 2)
            k_coeff = kinetic * seed_sq
            c_coeff = (kinetic - localization_objective(at_seed, mode)) * seed
            lam = de_broglie_length(p, beta)
            # rows where scalar float code raises: a seed width outside
            # (0, inf) (a zero beta**2 makes it infinite), an overflowing
            # seed**2, or a zero divisor making kinetic or lambda infinite
            raised = (~((0.0 < seed) & (seed < math.inf)) | (kinetic == math.inf)
                      | (seed_sq == math.inf) | (lam == math.inf))
            b_star = 2.0 * k_coeff / c_coeff
            depth = -localization_objective(PacketStack(b=b_star, particle=p, beta=beta),
                                            mode)
        except ArithmeticError:   # the particle's own scales leave the float range
            k_coeff = c_coeff = b_star = depth = lam = np.full(beta.shape, math.nan)
            raised = np.ones(beta.shape, dtype=bool)
        b_sq = b_star * b_star
        in_range = ((0.0 < b_sq) & (b_sq < math.inf)
                    & (c_coeff / (2.0 * b_star) >= sys.float_info.min))
        # one of the last two checks holds, so argmax finds a first in each row
        checks = np.array((~((0.0 <= beta) & (beta < 1.0)), beta == 0.0, raised,
                           ~(c_coeff > 0.0), ~in_range, in_range))
        ratio = b_star / lam
    return _Localized(k_coeff, c_coeff, b_star, depth, ratio,
                      _STATUSES[checks.argmax(axis=0)])


def _localize_one(p: ParticleSpec, beta: float, mode: BudgetMode) -> _Localized:
    """_localize at one beta as Python floats and a str, raising what its
    status names; warns past BETA_SOFT_LIMIT."""
    row = _Localized._make(col.tolist() for col in _localize(p, beta, mode))
    if row.status == "invalid-velocity":
        raise InvalidVelocityError(f"beta = {beta} outside [0, 1)")
    if row.status == "no-minimum":
        raise NoMinimumError("functional is monotone at beta = 0: no localization")
    if beta > BETA_SOFT_LIMIT:
        warnings.warn(f"beta = {beta} > {BETA_SOFT_LIMIT}: beta^4 terms are no "
                      "longer small; results are indicative only", stacklevel=3)
    where = f"beta={beta} for particle {p.label or p.z}"
    if row.status == "non-binding":
        raise NoMinimumError(f"functional non-binding at {where}")
    if row.status == "float-range":
        raise NoMinimumError(f"minimum outside the float range at {where}")
    return row


def functional_coefficients(p: ParticleSpec, beta: float,
                            mode: BudgetMode = BudgetMode.PAPER_QUOTED) -> tuple[float, float]:
    """K (J m^2) and C (J m) of the localization energy K/b^2 - C/b, read off
    the budget at the closed-form width seed (the PAPER_QUOTED minimizer),
    where neither reading loses digits to cancellation.

    Raises NoMinimumError at beta = 0, when the functional does not bind,
    and when b* = 2K/C or the depth C^2/4K is outside the normal float range.
    """
    row = _localize_one(p, beta, mode)
    return row.k_coeff, row.c_coeff


def minimize_radius(p: ParticleSpec, beta: float,
                    mode: BudgetMode = BudgetMode.PAPER_QUOTED) -> LocalizationResult:
    """Minimize K/b^2 - C/b in closed form: b* = 2K/C, depth = -objective(b*)."""
    row = _localize_one(p, beta, mode)
    return LocalizationResult(
        b_star=row.b_star, binding_energy=row.depth, beta=beta, particle=p, mode=mode,
        b_over_de_broglie=row.b_over_de_broglie)


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


class SweepRow(NamedTuple):
    """One sweep entry in CSV column order; an error row carries its status
    and None in every other cell instead of aborting the sweep."""

    beta: float
    b_star_m: float | None
    binding_eV: float | None
    b_over_lambda: float | None
    mode: str | None
    status: str


SWEEP_FIELDS = SweepRow._fields
# a sweep row's status for each _localize status
_SWEEP_STATUS = {"ok": "ok", "invalid-velocity": "invalid-velocity",
                 "no-minimum": "no-minimum", "non-binding": "no-minimum",
                 "float-range": "no-minimum"}


def sweep(p: ParticleSpec, beta_grid,
          mode: BudgetMode = BudgetMode.PAPER_QUOTED) -> list[SweepRow]:
    """Minimize over a grid of beta values in one _localize batch; one row
    per beta, input order.

    Row failures become row statuses ('no-minimum', 'invalid-velocity')
    and never abort the sweep; no beta soft-limit warning is issued.
    """
    betas = [float(beta) for beta in beta_grid]
    cols = _localize(p, betas, mode)
    ok = cols.status == "ok"

    def cells(values):
        """values on the ok rows, None on the error rows, as Python objects."""
        return np.where(ok, values, None).tolist()
    with np.errstate(over="ignore"):   # an error row's depth may be any float
        binding_ev = cols.depth / EV
    return list(map(SweepRow._make, zip(
        betas, cells(cols.b_star), cells(binding_ev), cells(cols.b_over_de_broglie),
        cells(mode.value), map(_SWEEP_STATUS.__getitem__, cols.status.tolist()))))
