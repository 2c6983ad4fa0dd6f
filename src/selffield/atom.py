"""Neutral-atom charge form factor, screened self-energy, and localization.

A neutral atom seen from outside is a nucleus of charge Z e whose
centre-of-mass density (Gaussian, width b) is screened by a Gaussian
electron cloud of radius gamma.  The charge form factor

    rho_ch_hat(q) = Z e exp(-b^2 q^2) [1 - exp(-gamma^2 q^2)]

vanishes at q = 0 (neutrality), and the electrostatic energy interpolates
between zero (delocalized, b >> gamma) and the bare-nucleus value
(b << gamma).  The screened energy is not of the form K/b^2 - C/b, so
centre-of-mass localization keeps a bracketed bounded search, seeded by the
bare-nucleus closed form and polished by Newton steps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .errors import InvalidVelocityError, NoLocalizationError
from .scales import (AMU_ELECTRON_RATIO, CONST, ELECTRON, PROTON,
                     ParticleSpec, derived_scales)
from .localization import (BETA_SOFT_LIMIT, LocalizationResult,
                           closed_form_radius)
from .energy_budget import BudgetMode
from .wavepacket import QUAD_ATOL, QUAD_RTOL, U_MAX


@dataclass(frozen=True)
class NeutralAtom:
    """Neutral composite: nuclear charge Z e, total mass, cloud radius gamma."""

    z_nucleus: int
    mass_total: float
    gamma: float
    label: str = ""

    def __post_init__(self):
        if self.z_nucleus < 1:
            raise ValueError("z_nucleus must be a positive integer")
        if self.gamma <= 0.0:
            raise ValueError("electron-cloud radius gamma must be positive")
        if self.mass_total <= 0.9 * self.z_nucleus * PROTON.mass:
            raise ValueError("mass_total below the nuclear mass bound")


def _bohr_radius() -> float:
    return derived_scales(ELECTRON, 0.0).bohr_like_length


def hydrogen_atom() -> NeutralAtom:
    """Hydrogen preset: proton + electron, cloud radius a_B."""
    return NeutralAtom(z_nucleus=1, mass_total=PROTON.mass + ELECTRON.mass,
                       gamma=_bohr_radius(), label="H")


def helium_atom() -> NeutralAtom:
    """Helium preset: atomic mass 4.002602 u, cloud radius a_B/1.6875
    (variational screened-charge estimate)."""
    return NeutralAtom(z_nucleus=2,
                       mass_total=4.002602 * AMU_ELECTRON_RATIO * ELECTRON.mass,
                       gamma=_bohr_radius() / 1.6875, label="He")


ATOM_PRESETS = {"H": hydrogen_atom, "He": helium_atom}


def atom_charge_density_fourier(a: NeutralAtom, b: float, q: float) -> float:
    """Charge form factor Z e exp(-b^2 q^2) [1 - exp(-gamma^2 q^2)] (C)."""
    if not 0.0 < b < math.inf:
        raise ValueError("centre-of-mass width b must be positive and finite")
    if q < 0.0:
        raise ValueError("wavenumber q must be non-negative")
    screening = -math.expm1(-(a.gamma * q) ** 2)
    return a.z_nucleus * CONST.e_charge * math.exp(-(b * q) ** 2) * screening


def _energy_prefactor(a: NeutralAtom) -> float:
    return (a.z_nucleus * CONST.e_charge) ** 2 / (
        8.0 * math.sqrt(2.0) * math.pi**1.5 * CONST.eps0)


def screened_bracket(b: float, gamma: float) -> float:
    """The length-inverse bracket 1/b - 2 sqrt(2)/sqrt(2b^2+g^2) + 1/sqrt(b^2+g^2).

    Lies in [0, 1/b] and is monotone non-decreasing in gamma at fixed b.
    """
    return (1.0 / b
            - 2.0 * math.sqrt(2.0) / math.sqrt(2.0 * b**2 + gamma**2)
            + 1.0 / math.sqrt(b**2 + gamma**2))


def _screened_bracket_derivative(b: float, gamma: float) -> float:
    """d/db of screened_bracket; negative for all b, gamma > 0."""
    return (-1.0 / b**2
            + 4.0 * math.sqrt(2.0) * b / (2.0 * b**2 + gamma**2) ** 1.5
            - b / (b**2 + gamma**2) ** 1.5)


def atom_electrostatic_energy(a: NeutralAtom, b: float) -> float:
    """Screened electrostatic self-energy of the localized atom (J).

    (Z^2 e^2 / 8 sqrt(2) pi^(3/2) eps0) * screened_bracket(b, gamma); the
    bare-nucleus 1/b form is recovered for b << gamma and the energy
    vanishes as (b/gamma)^-5 ... 0 for b >> gamma.
    """
    if not 0.0 < b < math.inf:
        raise ValueError("centre-of-mass width b must be positive and finite")
    return _energy_prefactor(a) * screened_bracket(b, a.gamma)


def atom_electrostatic_energy_quadrature(a: NeutralAtom, b: float) -> float:
    """Quadrature twin: (Z e)^2/(4 pi^2 eps0) int exp(-2 b^2 q^2)
    [1 - exp(-gamma^2 q^2)]^2 dq, in u = q*b."""
    if not 0.0 < b < math.inf:
        raise ValueError("centre-of-mass width b must be positive and finite")
    ratio_sq = (a.gamma / b) ** 2

    def integrand(u):
        return math.exp(-2.0 * u * u) * math.expm1(-ratio_sq * u * u) ** 2

    # breakpoint where the screening factor turns on, clipped into range
    turn_on = min(max(1.0 / math.sqrt(ratio_sq), 1e-12), U_MAX * 0.5)
    val, _ = quad(integrand, 0.0, U_MAX, points=[turn_on],
                  epsabs=QUAD_ATOL, epsrel=QUAD_RTOL, limit=300)
    return (a.z_nucleus * CONST.e_charge) ** 2 / (
        4.0 * math.pi**2 * CONST.eps0) * val / b


def bare_nucleus_energy(a: NeutralAtom, b: float) -> float:
    """Unscreened reference (Z e)^2 / (8 sqrt(2) pi^(3/2) eps0 b) (J)."""
    return _energy_prefactor(a) / b


def atom_minimize(a: NeutralAtom, beta: float) -> LocalizationResult:
    """Minimize 3 hbar^2/(16 M_tot b^2) - (2/3) beta^2 E_el_atom(b) over b.

    beta refers to the centre-of-mass velocity.  When screening wins (no
    interior minimum with positive depth) a NoLocalizationError is raised.
    """
    if not 0.0 <= beta < 1.0:
        raise InvalidVelocityError(f"beta = {beta} outside [0, 1)")
    if beta == 0.0:
        raise NoLocalizationError("no localization at beta = 0")
    if beta > BETA_SOFT_LIMIT:
        warnings.warn(f"beta = {beta} > {BETA_SOFT_LIMIT}: beta^4 terms are no "
                      "longer small; results are indicative only", stacklevel=2)

    kinetic_k = 3.0 * CONST.hbar**2 / (16.0 * a.mass_total)
    attraction = 2.0 / 3.0 * beta**2 * _energy_prefactor(a)

    def f(b):
        return kinetic_k / b**2 - attraction * screened_bracket(b, a.gamma)

    def fprime(b):
        return -2.0 * kinetic_k / b**3 - attraction * _screened_bracket_derivative(b, a.gamma)

    # bare-nucleus closed form seeds the search
    nucleus_like = ParticleSpec(z=a.z_nucleus, mass=a.mass_total,
                                label=a.label or f"Z={a.z_nucleus} atom")
    seed = closed_form_radius(nucleus_like, beta)

    lo, hi = 0.1 * seed, 10.0 * seed
    b_star = None
    for _ in range(6):
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-10 * seed, "maxiter": 500})
        candidate = float(res.x)
        margin = 1e-6 * (hi - lo)
        if (candidate - lo) > margin and (hi - candidate) > margin:
            b_star = candidate
            break
        lo, hi = lo / 8.0, hi * 8.0
    if b_star is None:
        raise NoLocalizationError(
            f"screening wins: no interior minimum for beta={beta}, gamma={a.gamma:.3e} m")

    for _ in range(3):
        d1 = fprime(b_star)
        h = 1e-7 * b_star
        d2 = (fprime(b_star + h) - fprime(b_star - h)) / (2.0 * h)
        if d2 <= 0.0:
            break
        step = d1 / d2
        if abs(step) > 0.5 * b_star:
            break
        b_star -= step

    depth = -f(b_star)
    if depth <= 0.0:
        raise NoLocalizationError(
            f"functional non-binding at beta={beta}: screening removes the minimum")

    neutral = ParticleSpec(z=0, mass=a.mass_total, label=a.label or "atom")
    lam = 2.0 * math.pi * CONST.hbar / (a.mass_total * beta * CONST.c)
    return LocalizationResult(
        b_star=b_star, binding_energy=depth, beta=beta, particle=neutral,
        mode=BudgetMode.PAPER_QUOTED, b_over_de_broglie=b_star / lam)
