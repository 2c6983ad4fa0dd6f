"""Coherent (classical) field of a drifting packet, in Fourier space.

Conventions: the particle carries charge q_s = Z e; Fourier transforms use
f_hat(q) = int f(r) exp(-i q.r) d3r.  In the Coulomb gauge the quasi-static
vector potential is A_hat(q) = j_perp_hat(q) / (eps0 c^2 q^2), sourced by the
convective current j_hat(q) = (q_s / M) p_c rho_hat(q).  All angular
integrals are done analytically (<1 - cos^2> = 2/3, <cos^2 (1 - cos^2)> =
2/15); only the radial q-integral is numeric, evaluated in u = q*b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularWavevectorError
from .scales import CONST
from .wavepacket import GaussianPacket, U_MAX, electrostatic_energy, quad

# analytic angular averages over the unit sphere
ANGULAR_TRANSVERSE = 2.0 / 3.0        # <1 - cos^2 theta>
ANGULAR_CROSS = 2.0 / 15.0            # <cos^2 theta (1 - cos^2 theta)>


@dataclass(frozen=True)
class SpectralVector:
    """A complex 3-vector field value at one wavevector q."""

    q: np.ndarray
    value: np.ndarray

    def transversality_residual(self) -> float:
        """|q . value| / (|q| |value|); 0 for exactly transverse fields."""
        qn = np.linalg.norm(self.q)
        vn = np.linalg.norm(self.value)
        if qn == 0.0 or vn == 0.0:
            return 0.0
        return abs(np.dot(self.q, self.value)) / (qn * vn)


def transverse_project(q, v) -> np.ndarray:
    """Project v onto the plane transverse to q: v - q (q.v)/|q|^2."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v)
    q2 = float(np.dot(q, q))
    if q2 == 0.0:
        raise SingularWavevectorError("transverse projection undefined at q = 0")
    return v - q * (np.dot(q, v) / q2)


def classical_current_fourier(p: GaussianPacket, q) -> SpectralVector:
    """Convective current (q_s / M) p_c rho_hat(|q|), pre-projection (A m).

    The internal-motion current vanishes for a real envelope and is dropped;
    the diamagnetic n*A piece is handled only by the dynamics module.
    """
    q = np.asarray(q, dtype=float)
    rho = math.exp(-(p.b**2) * float(np.dot(q, q)))
    amp = p.particle.charge / p.particle.mass
    return SpectralVector(q=q, value=(amp * rho) * p.momentum.astype(complex))


def vector_potential_fourier(p: GaussianPacket, q) -> SpectralVector:
    """Quasi-static A_hat(q) = transverse current / (eps0 c^2 q^2) (V s m^2).

    Exactly transverse; singular (integrably) at q = 0.
    """
    q = np.asarray(q, dtype=float)
    q2 = float(np.dot(q, q))
    if q2 == 0.0:
        raise SingularWavevectorError("vector potential kernel singular at q = 0")
    j = classical_current_fourier(p, q).value
    a = transverse_project(q, j) / (CONST.eps0 * CONST.c**2 * q2)
    return SpectralVector(q=q, value=a)


def transverse_efield_fourier(p: GaussianPacket, q) -> SpectralVector:
    """Quasi-static transverse E-field i (q . v_c) A_hat(q) (V m^2).

    Follows from E = -dA/dt with the form factor rigidly advected at v_c;
    the width-breathing contribution is not modelled.
    """
    a = vector_potential_fourier(p, q)
    v_c = p.speed * p.direction
    phase = 1j * float(np.dot(a.q, v_c))
    return SpectralVector(q=a.q, value=phase * a.value)


def _radial_i2(p: GaussianPacket) -> float:
    """int_0^inf rho_hat(q)^2 dq = (1/b) int exp(-2 u^2) du by quadrature."""
    val, _ = quad(lambda u: math.exp(-2.0 * u * u), 0.0, U_MAX)
    return val / p.b


def mean_vector_potential(p: GaussianPacket) -> np.ndarray:
    """Packet-averaged vector potential <A> = int rho A d3r (V s/m).

    Evaluated by the quadrature path
    <A> = (q_s / (3 pi^2 M c^2 eps0)) * int rho_hat^2 dq * p_c,
    whose closed form is q_s <A> = (4/3) (E_el / M c^2) p_c.
    """
    amp = p.particle.charge / (3.0 * math.pi**2 * p.particle.mass
                               * CONST.c**2 * CONST.eps0) * _radial_i2(p)
    return amp * p.momentum


def mean_potential_coefficient(p: GaussianPacket) -> float:
    """Dimensionless kappa in e <A> = kappa (E_el / M c^2) p_c, with e the
    positive elementary charge (so kappa = -4/3 for the electron).

    Uses the quadrature <A> against the closed-form E_el, making the ratio
    an independent check of the 4/3 structure.
    """
    if p.beta == 0.0:
        raise ValueError("coefficient undefined for a packet at rest")
    mean_a = mean_vector_potential(p)
    e_el = electrostatic_energy(p)
    p_c = p.momentum
    scale = e_el / (p.particle.mass * CONST.c**2)
    return float(np.dot(mean_a, p.direction)) * CONST.e_charge / (
        scale * float(np.linalg.norm(p_c)))


def renormalized_momentum(p: GaussianPacket) -> np.ndarray:
    """Classical momentum M (1 + (4/3) E_el / (M c^2)) v_c (kg m/s).

    The packet drags its own field: the mean self-potential renormalizes the
    mass by the classical 4/3 factor.
    """
    e_el = electrostatic_energy(p)
    factor = 1.0 + 4.0 / 3.0 * e_el / (p.particle.mass * CONST.c**2)
    return p.particle.mass * factor * p.speed * p.direction


def field_momentum(p: GaussianPacket) -> np.ndarray:
    """Momentum stored in the transverse field, quadrature path (kg m/s).

    eps0 (2 pi)^-3 int q (q.v_c) |A_hat|^2 d3q reduces to
    (4/15) beta^2 (E_el / M c^2) p_c after the analytic angular integral.
    """
    amp = (p.particle.charge**2 * p.beta**2
           / (15.0 * math.pi**2 * p.particle.mass * CONST.c**2 * CONST.eps0)
           * _radial_i2(p))
    return amp * p.momentum


def total_momentum(p: GaussianPacket) -> np.ndarray:
    """Conserved momentum p_c [1 + (4/15) beta^2 E_el / (M c^2)] (kg m/s)."""
    return p.momentum + field_momentum(p)


def momentum_coefficient(p: GaussianPacket) -> float:
    """Dimensionless (|P|/|p_c| - 1) / (beta^2 E_el / M c^2); equals 4/15.

    Evaluated from the field part alone (which is parallel to p_c), so no
    cancellation spoils the extraction at small beta.
    """
    if p.beta == 0.0:
        raise ValueError("coefficient undefined for a packet at rest")
    e_el = electrostatic_energy(p)
    scale = p.beta**2 * e_el / (p.particle.mass * CONST.c**2)
    along = float(np.dot(field_momentum(p), p.direction))
    return along / (float(np.linalg.norm(p.momentum)) * scale)

