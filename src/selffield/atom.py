"""Neutral-atom charge form factor, screened self-energy, and localization.

A neutral atom seen from outside is a nucleus of charge Z e whose
centre-of-mass density (Gaussian, width b) is screened by a Gaussian
electron cloud of radius gamma.  The charge form factor

    rho_ch_hat(q) = Z e exp(-b^2 q^2) [1 - exp(-gamma^2 q^2)]

vanishes at q = 0 (neutrality), and the electrostatic energy interpolates
between zero (delocalized, b >> gamma) and the bare-nucleus value
(b << gamma).  Centre-of-mass localization minimizes the bare nucleus's
functional K/b^2 - C/b with 1/b screened, K/b^2 - C screened_bracket(b),
taking K, C and the bare minimizer b0 = 2K/C from the localization
kernel's one-row case; the minimum is the bracketed root of the analytic
derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoLocalizationError, NoMinimumError
from .scales import (AMU_ELECTRON_RATIO, CONST, ELECTRON, PROTON,
                     ParticleSpec, derived_scales)
from .localization import LocalizationResult, _localize_one
from .energy_budget import BudgetMode
from .wavepacket import U_MAX, quad

# b/gamma where -b^3 dS/db peaks (at 0.35743 gamma); the screened
# functional has a minimum only if its derivative turns positive there
_SLOPE_PEAK = 0.5716532377261896
_SQRT_HALF = math.sqrt(0.5)


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
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("electron-cloud radius gamma must be positive and finite")
        if not 0.9 * self.z_nucleus * PROTON.mass < self.mass_total < math.inf:
            raise ValueError("mass_total must be finite and above the nuclear mass bound")


# the Bohr radius a_B (m): hydrogen's cloud radius
BOHR_RADIUS = derived_scales(ELECTRON, 0.0).bohr_like_length


def hydrogen_atom() -> NeutralAtom:
    """Hydrogen preset: proton + electron, cloud radius a_B."""
    return NeutralAtom(z_nucleus=1, mass_total=PROTON.mass + ELECTRON.mass,
                       gamma=BOHR_RADIUS, label="H")


def helium_atom() -> NeutralAtom:
    """Helium preset: atomic mass 4.002602 u, cloud radius a_B/1.6875
    (variational screened-charge estimate)."""
    return NeutralAtom(z_nucleus=2,
                       mass_total=4.002602 * AMU_ELECTRON_RATIO * ELECTRON.mass,
                       gamma=BOHR_RADIUS / 1.6875, label="He")


ATOM_PRESETS = {"H": hydrogen_atom, "He": helium_atom}


def atom_charge_density_fourier(a: NeutralAtom, b: float, q: float) -> float:
    """Charge form factor Z e exp(-b^2 q^2) [1 - exp(-gamma^2 q^2)] (C)."""
    if not 0.0 < b < math.inf:
        raise ValueError("centre-of-mass width b must be positive and finite")
    if q < 0.0:
        raise ValueError("wavenumber q must be non-negative")
    screening = -math.expm1(-(a.gamma * q) ** 2)
    return a.z_nucleus * CONST.e_charge * math.exp(-(b * q) ** 2) * screening


def _scaled_bracket(u: float) -> float:
    """b * screened_bracket(b, gamma) at u = b/gamma, in [0, 1].

    Evaluated in the all-positive form t^2 (1 + q/(p+1)) / (2 q(q+1) p(p+q)),
    t = (gamma/b)^2 = 1/u^2, p = sqrt(1+t), q = sqrt(1+t/2), scaled by u so
    that no step cancels.
    """
    u = min(u, 1e100)   # no inf/inf; past u ~ 1e78 the bracket is 0 anyway
    p_u, q_u = math.hypot(u, 1.0), math.hypot(u, _SQRT_HALF)   # u p, u q
    return (1.0 + q_u / (p_u + u)) / (2.0 * q_u * (q_u + u) * p_u * (p_u + q_u))


def screened_bracket(b: float, gamma: float) -> float:
    """The length-inverse bracket 1/b - 2 sqrt(2)/sqrt(2b^2+g^2) + 1/sqrt(b^2+g^2).

    Lies in [0, 1/b] and is monotone non-decreasing in gamma at fixed b; the
    value is finite wherever 1/b is.
    """
    return _scaled_bracket(b / gamma) / b


def _bracket_slope(u: float) -> float:
    """-b^2 d(screened_bracket)/db at u = b/gamma: 1 - 2/q^3 + 1/p^3, in [0, 1]."""
    inv_q, inv_p = u / math.hypot(u, _SQRT_HALF), u / math.hypot(u, 1.0)
    return 1.0 - 2.0 * inv_q**3 + inv_p**3


def atom_electrostatic_energy(a: NeutralAtom, b: float) -> float:
    """Screened electrostatic self-energy of the localized atom (J).

    (Z^2 e^2 / 8 sqrt(2) pi^(3/2) eps0) * screened_bracket(b, gamma); the
    bare-nucleus 1/b form is recovered for b << gamma and the energy
    vanishes as (b/gamma)^-5 ... 0 for b >> gamma.  Formed as
    bare_nucleus_energy times b * screened_bracket, finite wherever the
    energy is.
    """
    if not 0.0 < b < math.inf:
        raise ValueError("centre-of-mass width b must be positive and finite")
    return bare_nucleus_energy(a, b) * _scaled_bracket(b / a.gamma)


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
    val, _ = quad(integrand, 0.0, U_MAX, points=[turn_on], limit=300)
    return (a.z_nucleus * CONST.e_charge) ** 2 / (
        4.0 * math.pi**2 * CONST.eps0) * val / b


def bare_nucleus_energy(a: NeutralAtom, b: float) -> float:
    """Unscreened reference (Z e)^2 / (8 sqrt(2) pi^(3/2) eps0 b) (J)."""
    return (a.z_nucleus * CONST.e_charge) ** 2 / (
        8.0 * math.sqrt(2.0) * math.pi**1.5 * CONST.eps0) / b


def atom_minimize(a: NeutralAtom, beta: float) -> LocalizationResult:
    """Minimize f(b) = K/b^2 - C screened_bracket(b, gamma) over b.

    K, C and b0 = 2K/C are the bare nucleus's (Z e, M_tot), from the
    localization kernel's one-row case, which also checks beta (the
    centre-of-mass velocity).  As 0 <= -b^2 dS/db <= 1, f' < 0 at b0/2,
    and f' can turn positive only by the peak of -b^3 dS/db at 0.5717
    gamma; the root of f' is bracketed by doubling from b0 up to that peak
    and solved by brentq, which is imported here, so that only this solve
    loads scipy.optimize.
    NoLocalizationError when screening wins (no root, or no positive depth).
    """
    from scipy.optimize import brentq

    nucleus = ParticleSpec(z=a.z_nucleus, mass=a.mass_total,
                           label=a.label or f"Z={a.z_nucleus} atom")
    try:
        bare = _localize_one(nucleus, beta, BudgetMode.PAPER_QUOTED)
    except NoMinimumError as exc:
        raise NoLocalizationError(str(exc)) from exc
    k_coeff, c_coeff, b0 = bare.k_coeff, bare.c_coeff, bare.b_star

    def slope(b):   # b^3 f'(b) / 2K: the sign of f'
        return b / b0 * _bracket_slope(b / a.gamma) - 1.0

    peak = _SLOPE_PEAK * a.gamma
    if not slope(peak) > 0.0:
        raise NoLocalizationError(
            f"screening wins: no interior minimum for beta={beta}, gamma={a.gamma:.3e} m")
    lo, hi = 0.5 * b0, b0
    while not slope(hi) > 0.0:
        lo, hi = hi, min(2.0 * hi, peak)
    b_star = brentq(slope, lo, hi, xtol=1e-300)

    depth = c_coeff * screened_bracket(b_star, a.gamma) - k_coeff / b_star**2
    if not depth > 0.0:
        raise NoLocalizationError(
            f"functional non-binding at beta={beta}: screening removes the minimum")

    neutral = ParticleSpec(z=0, mass=a.mass_total, label=a.label or "atom")
    lam = derived_scales(nucleus, beta).de_broglie_length
    return LocalizationResult(
        b_star=b_star, binding_energy=depth, beta=beta, particle=neutral,
        mode=BudgetMode.PAPER_QUOTED, b_over_de_broglie=b_star / lam)
