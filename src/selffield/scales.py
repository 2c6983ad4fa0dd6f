"""Physical constants (SI) and per-particle derived scales.

Constants are CODATA-2018 values frozen in source (10 significant digits)
so that every derived number in this package is reproducible bit-for-bit.
All other modules obtain their dimensional inputs from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidVelocityError

CONSTANTS_VERSION = "CODATA-2018"


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants in SI units.

    hbar : reduced Planck constant (J s)
    c : speed of light in vacuum (m/s)
    eps0 : vacuum permittivity (F/m)
    e_charge : elementary charge (C), positive
    m_electron : electron mass (kg)
    """

    hbar: float = 1.054571817e-34
    c: float = 299792458.0
    eps0: float = 8.854187813e-12
    e_charge: float = 1.602176634e-19
    m_electron: float = 9.109383702e-31

    def __post_init__(self):
        for name in ("hbar", "c", "eps0", "e_charge", "m_electron"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"constant {name} must be strictly positive")


CONST = PhysicalConstants()

# electron volt in joules; derived from the frozen elementary charge
EV = CONST.e_charge

# proton/electron mass ratio, CODATA-2018
PROTON_ELECTRON_RATIO = 1836.152673

# unified atomic mass unit over electron mass, CODATA-2018
AMU_ELECTRON_RATIO = 1822.888486


@dataclass(frozen=True)
class ParticleSpec:
    """A point particle: signed charge multiple z (charge = z*e) and mass in kg.

    z = -1 is the electron, +1 the proton; z = 0 is reserved for the
    neutral composites handled by the atom module.
    """

    z: int
    mass: float
    label: str = ""

    def __post_init__(self):
        if not 0.0 < self.mass < math.inf:
            raise ValueError("particle mass must be positive and finite")
        if int(self.z) != self.z:
            raise ValueError("charge multiple z must be an integer")

    @property
    def charge(self) -> float:
        """Signed charge z*e in coulombs."""
        return self.z * CONST.e_charge


ELECTRON = ParticleSpec(z=-1, mass=CONST.m_electron, label="electron")
PROTON = ParticleSpec(z=1, mass=PROTON_ELECTRON_RATIO * CONST.m_electron, label="proton")

PARTICLE_PRESETS = {"electron": ELECTRON, "proton": PROTON}


@dataclass(frozen=True)
class ScaleSet:
    """Derived length/energy scales of a particle.

    bohr_like_length : 4 pi eps0 hbar^2 / (M (Z e)^2), in m
    rydberg_like_energy : M (Z e)^4 / (2 (4 pi eps0 hbar)^2), in J
    compton_length : hbar / (M c), in m
    de_broglie_length : 2 pi hbar / (M beta c), in m; None when beta = 0
    """

    bohr_like_length: float
    rydberg_like_energy: float
    compton_length: float
    de_broglie_length: float | None


def de_broglie_length(p: ParticleSpec, beta, constants: PhysicalConstants = CONST):
    """de Broglie length 2 pi hbar / (M beta c) (m) at speed beta c; beta
    may be an array, and is not range-checked here."""
    return 2.0 * math.pi * constants.hbar / (p.mass * beta * constants.c)


def derived_scales(p: ParticleSpec, beta: float = 0.0,
                   constants: PhysicalConstants = CONST) -> ScaleSet:
    """Compute the Bohr-like, Rydberg-like, Compton and de Broglie scales.

    beta is the convective speed v/c; the de Broglie length is reported as
    absent (None) at beta = 0 rather than infinite.
    """
    if not 0.0 <= beta < 1.0:
        raise InvalidVelocityError(f"beta = {beta} outside [0, 1)")
    if p.z == 0:
        raise ValueError("charge-derived scales undefined for a neutral particle")
    hbar, c, eps0 = constants.hbar, constants.c, constants.eps0
    ze = p.z * constants.e_charge
    bohr = 4.0 * math.pi * eps0 * hbar**2 / (p.mass * ze**2)
    rydberg = p.mass * ze**4 / (2.0 * (4.0 * math.pi * eps0 * hbar) ** 2)
    compton = hbar / (p.mass * c)
    de_broglie = de_broglie_length(p, beta, constants) if beta > 0.0 else None
    return ScaleSet(bohr_like_length=bohr, rydberg_like_energy=rydberg,
                    compton_length=compton, de_broglie_length=de_broglie)
