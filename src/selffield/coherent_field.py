"""Coherent (classical) field of a drifting packet, in Fourier space.

Conventions: the particle carries charge q_s = Z e; Fourier transforms use
f_hat(q) = int f(r) exp(-i q.r) d3r.  In the Coulomb gauge the quasi-static
vector potential is A_hat(q) = j_perp_hat(q) / (eps0 c^2 q^2), sourced by the
convective current j_hat(q) = (q_s / M) p_c rho_hat(q).  All angular
integrals are done analytically (<1 - cos^2> = 2/3, <cos^2 (1 - cos^2)> =
2/15); only the radial q-integral is numeric, evaluated in u = q*b.

The spectral kernels (current_spectrum, transverse_project,
potential_spectrum, efield_spectrum, transversality_residuals) take stacks:
vectors have shape (..., 3) with the vector axis last, and wavevectors,
widths b (shape (...)), momenta p_c and velocities v_c broadcast against
each other, so a batch of packets and wavevectors is one call.  The
GaussianPacket functions (classical_current_fourier, ...) are their
one-row case: one q of shape (3,) gives a (3,) SpectralVector value and a
float residual.
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
        return float(transversality_residuals(self.q, self.value))


def _dot(u, v):
    """sum_i u_i v_i over the vector (last) axis."""
    return np.multiply(u, v).sum(axis=-1)


def _nonzero_q2(q, what: str):
    """|q|^2 over the vector axis, or SingularWavevectorError if any is 0."""
    q2 = _dot(q, q)
    if np.any(q2 == 0.0):
        raise SingularWavevectorError(f"{what} at q = 0")
    return q2


def transverse_project(q, v) -> np.ndarray:
    """Project v onto the plane transverse to q: v - q (q.v)/|q|^2."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v)
    q2 = _nonzero_q2(q, "transverse projection undefined")
    return v - q * (_dot(q, v) / q2)[..., None]


def current_spectrum(q, b, momentum, charge_to_mass) -> np.ndarray:
    """Convective current (q_s / M) p_c rho_hat(|q|) of packets of width b
    and classical momentum p_c, as complex vectors (A m)."""
    rho = np.exp(-(b * b) * _dot(q, q))
    return ((charge_to_mass * rho)[..., None] * momentum).astype(complex)


def potential_spectrum(q, b, momentum, charge_to_mass) -> np.ndarray:
    """A_hat(q) = P_perp j_hat(q) / (eps0 c^2 q^2) of current_spectrum
    (V s m^2); SingularWavevectorError at q = 0."""
    q = np.asarray(q, dtype=float)
    q2 = _nonzero_q2(q, "vector potential kernel singular")
    j = current_spectrum(q, b, momentum, charge_to_mass)
    return transverse_project(q, j) / (CONST.eps0 * CONST.c**2 * q2)[..., None]


def efield_spectrum(q, potential, velocity) -> np.ndarray:
    """Transverse E-field i (q . v_c) A_hat(q) of a field rigidly advected
    at v_c (V m^2)."""
    return 1j * _dot(q, velocity)[..., None] * potential


def transversality_residuals(q, value) -> np.ndarray:
    """|q . value| / (|q| |value|) over the vector axis; 0 where q or value
    is zero (then q . value is exactly 0)."""
    qn = np.linalg.norm(q, axis=-1)
    vn = np.linalg.norm(value, axis=-1)
    zero = (qn == 0.0) | (vn == 0.0)
    return np.abs(_dot(q, value)) / np.where(zero, 1.0, qn * vn)


def classical_current_fourier(p: GaussianPacket, q) -> SpectralVector:
    """Convective current (q_s / M) p_c rho_hat(|q|), pre-projection (A m).

    The internal-motion current vanishes for a real envelope and is dropped;
    the diamagnetic n*A piece is handled only by the dynamics module.
    """
    q = np.asarray(q, dtype=float)
    return SpectralVector(q=q, value=current_spectrum(
        q, p.b, p.momentum, p.particle.charge / p.particle.mass))


def vector_potential_fourier(p: GaussianPacket, q) -> SpectralVector:
    """Quasi-static A_hat(q) = transverse current / (eps0 c^2 q^2) (V s m^2).

    Exactly transverse; singular (integrably) at q = 0.
    """
    q = np.asarray(q, dtype=float)
    return SpectralVector(q=q, value=potential_spectrum(
        q, p.b, p.momentum, p.particle.charge / p.particle.mass))


def transverse_efield_fourier(p: GaussianPacket, q) -> SpectralVector:
    """Quasi-static transverse E-field i (q . v_c) A_hat(q) (V m^2).

    Follows from E = -dA/dt with the form factor rigidly advected at v_c;
    the width-breathing contribution is not modelled.
    """
    a = vector_potential_fourier(p, q)
    return SpectralVector(q=a.q, value=efield_spectrum(a.q, a.value, p.velocity))


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

