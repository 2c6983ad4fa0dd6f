"""Gaussian wave packets and general isotropic density profiles.

The model packet is a plane wave times an isotropic Gaussian envelope
phi(r) = (4 pi b^2)^(-3/4) exp(-r^2 / 8 b^2), so the probability density is
rho(r) = (4 pi b^2)^(-3/2) exp(-r^2 / 4 b^2) with form factor
rho_hat(q) = exp(-b^2 q^2).  The packet's two field-free self-terms live
here side by side: the internal kinetic energy 3 hbar^2 / (16 M b^2) and
the electrostatic self-energy E_el, of which every self-field term of the
energy budget is a multiple.  RadialProfile provides the brute-force
quadrature path for the form factor, the oracle against the Gaussian one.
The package's one adaptive quadrature, quad, lives here beside its
tolerances; it loads scipy.integrate on its first call, so commands that
only evaluate closed forms never import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidVelocityError, NormalizationError
from .scales import CONST, ParticleSpec

# Adaptive-quadrature policy: Gauss-Kronrod (QUADPACK) with these tolerances,
# integrating in the dimensionless variable u = q*b so extreme b cause no
# overflow.  u_max = 40 leaves a Gaussian tail < 1e-300.
QUAD_RTOL = 1e-12
QUAD_ATOL = 1e-300
U_MAX = 40.0


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("direction vector must be nonzero")
    return v / n


@dataclass(frozen=True)
class GaussianPacket:
    """Isotropic Gaussian packet of width b drifting at speed beta*c.

    The packet frame puts the centre at the origin; the drift enters only
    through the classical momentum p_c = M beta c * direction.
    """

    b: float
    particle: ParticleSpec
    beta: float = 0.0
    direction: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        if not 0.0 < self.b < math.inf:
            raise ValueError("packet width b must be positive and finite")
        if not 0.0 <= self.beta < 1.0:
            raise InvalidVelocityError(f"beta = {self.beta} outside [0, 1)")
        object.__setattr__(self, "direction", _unit(self.direction))

    @property
    def momentum(self) -> np.ndarray:
        """Classical momentum vector M beta c * direction (kg m/s)."""
        return self.particle.mass * self.beta * CONST.c * self.direction

    @property
    def speed(self) -> float:
        """Convective speed beta*c (m/s)."""
        return self.beta * CONST.c


def density_fourier(p: GaussianPacket, q: float) -> float:
    """Form factor rho_hat(q) = exp(-b^2 q^2) of the Gaussian density.

    q is the radial wavenumber (1/m), q >= 0.  Dimensionless, equals 1 at
    q = 0 by normalization.
    """
    if q < 0.0:
        raise ValueError("wavenumber q must be non-negative")
    return math.exp(-(p.b * q) ** 2)


def internal_kinetic_energy(p: GaussianPacket) -> float:
    """Internal (width) kinetic energy 3 hbar^2 / (16 M b^2) in joules; b*b
    rather than b**2, so that a width too large to square gives 0, not
    OverflowError."""
    return 3.0 * CONST.hbar**2 / (16.0 * p.particle.mass * (p.b * p.b))


def electrostatic_energy(p: GaussianPacket) -> float:
    """Electrostatic self-energy E_el = (Z e)^2 / (8 sqrt(2) pi^(3/2) eps0 b)
    in joules; every self-field term of the energy budget is a multiple of it."""
    ze = p.particle.charge
    return ze**2 / (8.0 * math.sqrt(2.0) * math.pi**1.5 * CONST.eps0 * p.b)


def internal_kinetic_energy_numeric(p: GaussianPacket) -> float:
    """Oracle for internal_kinetic_energy: radial quadrature of the gradient.

    Evaluates (hbar^2 / 2M) * 4 pi int r^2 |d phi/dr|^2 dr for
    phi = (4 pi b^2)^(-3/4) exp(-r^2/8b^2), in the scaled variable s = r/b.
    """
    b, mass = p.b, p.particle.mass
    norm = (4.0 * math.pi) ** (-1.5)  # |phi|^2 prefactor in s-units times b^3

    def integrand(s):
        # |dphi/dr|^2 = (r / 4 b^2)^2 |phi|^2
        return s**2 * (s / 4.0) ** 2 * norm * math.exp(-(s**2) / 4.0)

    val, _ = quad(integrand, 0.0, U_MAX, epsabs=QUAD_ATOL, epsrel=QUAD_RTOL)
    return CONST.hbar**2 / (2.0 * mass * (b * b)) * 4.0 * math.pi * val


@dataclass(frozen=True)
class RadialProfile:
    """A general isotropic probability density rho(r), 1/m^3.

    rho is a callable of r (m); support_radius bounds the quadrature range.
    The profile must satisfy 4 pi int r^2 rho dr = 1 within 1e-10.
    """

    rho: Callable[[float], float]
    support_radius: float

    def __post_init__(self):
        if self.support_radius <= 0.0:
            raise ValueError("support_radius must be positive")
        deficit = abs(self.norm_integral() - 1.0)
        if deficit > 1e-10:
            raise NormalizationError(deficit)

    def norm_integral(self) -> float:
        """4 pi int_0^R r^2 rho(r) dr by adaptive quadrature."""
        val, _ = quad(lambda r: r**2 * self.rho(r), 0.0, self.support_radius,
                      epsabs=QUAD_ATOL, epsrel=QUAD_RTOL, limit=200)
        return 4.0 * math.pi * val


def gaussian_profile(b: float) -> RadialProfile:
    """The packet's own density as a RadialProfile (oracle path)."""
    pref = (4.0 * math.pi * b**2) ** (-1.5)

    def rho(r):
        return pref * math.exp(-(r / (2.0 * b)) ** 2)

    return RadialProfile(rho=rho, support_radius=U_MAX * b)


def uniform_ball_profile(radius: float) -> RadialProfile:
    """Uniform density inside a sphere; analytic form factor
    3 (sin x - x cos x) / x^3 with x = q*radius."""
    rho0 = 3.0 / (4.0 * math.pi * radius**3)

    def rho(r):
        return rho0 if r <= radius else 0.0

    return RadialProfile(rho=rho, support_radius=radius)


def fourier_density_numeric(prof: RadialProfile, q: float) -> float:
    """Form factor rho_hat(q) = 4 pi int r^2 rho(r) sin(qr)/(qr) dr.

    Adaptive-quadrature oracle for density_fourier; rho_hat(0) = 1 for a
    normalized profile.
    """
    if q < 0.0:
        raise ValueError("wavenumber q must be non-negative")
    if q == 0.0:
        return prof.norm_integral()

    def integrand(r):
        x = q * r
        sinc = math.sin(x) / x if x != 0.0 else 1.0
        return r**2 * prof.rho(r) * sinc

    # QUADPACK may flag roundoff on the oscillatory integrand even though the
    # requested accuracy is reached; the oracle tests pin the actual error.
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = quad(integrand, 0.0, prof.support_radius,
                      epsabs=QUAD_ATOL, epsrel=QUAD_RTOL, limit=200)
    return 4.0 * math.pi * val

