"""Tests for the neutral-atom form factor, screened energy, and localization."""

import math

import numpy as np
import pytest

from selffield.errors import InvalidVelocityError, NoLocalizationError
from selffield.scales import CONST, ELECTRON, EV, PROTON, ParticleSpec, derived_scales
from selffield.localization import minimize_radius, scale_to_particle
from selffield.atom import (_SLOPE_PEAK, NeutralAtom, _bracket_slope,
                            atom_charge_density_fourier,
                            atom_electrostatic_energy,
                            atom_electrostatic_energy_quadrature,
                            atom_minimize, bare_nucleus_energy,
                            helium_atom, hydrogen_atom, screened_bracket)

A_B = derived_scales(ELECTRON, 0.0).bohr_like_length


def test_atom_validation():
    with pytest.raises(ValueError):
        NeutralAtom(z_nucleus=0, mass_total=PROTON.mass, gamma=A_B)
    with pytest.raises(ValueError):
        NeutralAtom(z_nucleus=1, mass_total=PROTON.mass, gamma=0.0)
    with pytest.raises(ValueError):
        NeutralAtom(z_nucleus=2, mass_total=PROTON.mass, gamma=A_B)


def test_form_factor_neutrality():
    atom = hydrogen_atom()
    assert atom_charge_density_fourier(atom, A_B, 0.0) == 0.0


def test_form_factor_pointlike_cloud_limit():
    atom = NeutralAtom(z_nucleus=1, mass_total=PROTON.mass + ELECTRON.mass,
                       gamma=1e-20)
    value = atom_charge_density_fourier(atom, A_B, 1.0 / A_B)
    assert abs(value) / CONST.e_charge < 1e-15    # point cloud cancels nucleus


def test_form_factor_value():
    # b = gamma, q = 1/gamma: Z e exp(-1) (1 - exp(-1))
    atom = hydrogen_atom()
    g = atom.gamma
    expected = CONST.e_charge * math.exp(-1.0) * (1.0 - math.exp(-1.0))
    assert atom_charge_density_fourier(atom, g, 1.0 / g) == pytest.approx(
        expected, rel=1e-12, abs=0)
    assert expected / CONST.e_charge == pytest.approx(0.23254, rel=1e-4, abs=0)


def test_energy_bracket_value_at_b_equals_gamma():
    # 1 - 2 sqrt(2)/sqrt(3) + 1/sqrt(2) = 0.0741136
    assert screened_bracket(1.0, 1.0) == pytest.approx(0.07411362, rel=1e-6, abs=0)
    atom = hydrogen_atom()
    expected = bare_nucleus_energy(atom, atom.gamma) * 0.07411362
    assert atom_electrostatic_energy(atom, atom.gamma) == pytest.approx(
        expected, rel=1e-6, abs=0)


def test_energy_delocalized_limit():
    atom = hydrogen_atom()
    b = 1e3 * atom.gamma
    assert atom_electrostatic_energy(atom, b) <= 1e-5 * bare_nucleus_energy(atom, b)


def test_energy_bare_nucleus_limit():
    atom = hydrogen_atom()
    b = 1e-3 * atom.gamma
    rel = abs(atom_electrostatic_energy(atom, b) - bare_nucleus_energy(atom, b)) \
        / bare_nucleus_energy(atom, b)
    assert rel <= 2e-3


def test_energy_quadrature_twin():
    atom = hydrogen_atom()
    for b in (1e-3 * atom.gamma, 0.3 * atom.gamma, atom.gamma, 5 * atom.gamma,
              1e3 * atom.gamma):
        closed = atom_electrostatic_energy(atom, b)
        numeric = atom_electrostatic_energy_quadrature(atom, b)
        assert numeric == pytest.approx(closed, rel=1e-10, abs=0)


def test_bracket_bounds_and_monotonicity():
    # bracket in [0, 1/b], non-decreasing in gamma: 50 x 50 log grid
    b_grid = np.logspace(-2, 2, 50)
    g_grid = np.logspace(-2, 2, 50)
    for b in b_grid:
        vals = [screened_bracket(float(b), float(g)) for g in g_grid]
        assert min(vals) >= -1e-12 / b
        assert max(vals) <= (1.0 + 1e-12) / b
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-12 / b


def test_energy_continuity_at_crossover():
    atom = hydrogen_atom()
    bs = np.linspace(0.8 * atom.gamma, 1.25 * atom.gamma, 200)
    vals = np.array([atom_electrostatic_energy(atom, float(b)) for b in bs])
    steps = np.abs(np.diff(vals)) / vals[:-1]
    assert steps.max() < 1e-2    # smooth at the resolution of the scan


def test_atom_minimize_hydrogen_b_star():
    # b* within 2% of the bare-nucleus prediction at Z=1, M = m_p + m_e
    # (screening by the a_B cloud moves it out by 1.66%)
    atom = hydrogen_atom()
    res = atom_minimize(atom, 0.1)
    electron_res = minimize_radius(ELECTRON, 0.1)
    bare = scale_to_particle(electron_res, 1, atom.mass_total)
    assert res.b_star == pytest.approx(bare.b_star, rel=0.02, abs=0)
    assert res.b_star == pytest.approx(8.1e-12, rel=0.02, abs=0)


def test_atom_minimize_deep_bare_regime():
    # with a very diffuse cloud (b* << gamma) both radius and binding match
    # the bare-nucleus scaling to 1%
    atom = NeutralAtom(z_nucleus=1, mass_total=PROTON.mass + ELECTRON.mass,
                       gamma=300.0 * A_B)
    res = atom_minimize(atom, 0.1)
    bare = scale_to_particle(minimize_radius(ELECTRON, 0.1), 1, atom.mass_total)
    assert res.b_star == pytest.approx(bare.b_star, rel=0.01, abs=0)
    assert res.binding_energy == pytest.approx(bare.binding_energy, rel=0.01, abs=0)


def test_atom_minimize_gamma_infinite_is_bare():
    atom = NeutralAtom(z_nucleus=1, mass_total=PROTON.mass + ELECTRON.mass,
                       gamma=1e6 * A_B)
    res = atom_minimize(atom, 0.1)
    bare = scale_to_particle(minimize_radius(ELECTRON, 0.1), 1, atom.mass_total)
    assert res.b_star == pytest.approx(bare.b_star, rel=1e-6, abs=0)
    assert res.binding_energy == pytest.approx(bare.binding_energy, rel=1e-6, abs=0)


def test_atom_minimize_no_localization_cases():
    with pytest.raises(NoLocalizationError):
        atom_minimize(hydrogen_atom(), 0.0)
    # tight cloud screens the nucleus before the bare minimum is reached
    screened = NeutralAtom(z_nucleus=1, mass_total=PROTON.mass + ELECTRON.mass,
                           gamma=1e-3 * A_B)
    with pytest.raises(NoLocalizationError):
        atom_minimize(screened, 0.1)


def test_presets():
    h = hydrogen_atom()
    assert h.z_nucleus == 1
    assert h.mass_total == pytest.approx(1837.15 * ELECTRON.mass, rel=1e-5, abs=0)
    assert h.gamma == pytest.approx(A_B, rel=1e-12, abs=0)
    he = helium_atom()
    assert he.z_nucleus == 2
    assert he.mass_total == pytest.approx(4.0026 * 1822.89 * ELECTRON.mass, rel=1e-4, abs=0)


# --- the shared functional and its bracketed root ---------------------------------

def _mp_reference(atom, beta, guess):
    """40-digit b* and depth of K/b^2 - C S(b, gamma): the root of the
    analytic f' next to guess, checked to be a minimum."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        hbar, eps0 = mp.mpf("1.054571817e-34"), mp.mpf("8.854187813e-12")
        ze = atom.z_nucleus * mp.mpf("1.602176634e-19")
        g = mp.mpf(atom.gamma)
        k = 3 * hbar**2 / (16 * mp.mpf(atom.mass_total))
        c = mp.mpf(2) / 3 * mp.mpf(beta)**2 * ze**2 / (8 * mp.sqrt(2) * mp.pi**1.5 * eps0)

        def bracket(b):
            return 1 / b - 2 * mp.sqrt(2) / mp.sqrt(2 * b * b + g * g) + 1 / mp.sqrt(b * b + g * g)

        def fprime(b):
            dbracket = (-1 / b**2 + 4 * mp.sqrt(2) * b / (2 * b * b + g * g) ** 1.5
                        - b / (b * b + g * g) ** 1.5)
            return -2 * k / b**3 - c * dbracket

        b0 = 2 * k / c
        b_star = b0 * mp.findroot(lambda x: fprime(x * b0) * b0**3 / k, guess / b0)
        assert fprime(b_star * (1 - mp.mpf("1e-9"))) < 0 < fprime(b_star * (1 + mp.mpf("1e-9")))
        return float(b_star), float(c * bracket(b_star) - k / b_star**2)


@pytest.mark.parametrize("atom,beta", [
    (hydrogen_atom(), 0.1),
    (helium_atom(), 0.2),
    # shallow minima that a bounded search on [0.1, 10] x seed missed
    (NeutralAtom(z_nucleus=1, mass_total=2 * PROTON.mass, gamma=1.5875316e-11), 0.1),
    (NeutralAtom(z_nucleus=1, mass_total=PROTON.mass, gamma=0.1 * A_B), 0.25),
    (NeutralAtom(z_nucleus=3, mass_total=6 * PROTON.mass, gamma=0.01 * A_B), 0.1),
], ids=["H", "He", "shallow-z1", "shallow-z1-b025", "shallow-z3"])
def test_atom_minimize_matches_extended_precision(atom, beta):
    res = atom_minimize(atom, beta)
    b_ref, depth_ref = _mp_reference(atom, beta, res.b_star)
    assert res.b_star == pytest.approx(b_ref, rel=1e-14, abs=0)
    assert res.binding_energy == pytest.approx(depth_ref, rel=1e-12, abs=0)


def test_atom_minimize_localizes_shallow_minimum():
    # b* = 4.4102e-12 m, depth 0.03284 eV (40-digit reference); the bounded
    # search this replaced reported "screening wins" here
    atom = NeutralAtom(z_nucleus=1, mass_total=3.34524384e-27, gamma=1.5875316e-11)
    res = atom_minimize(atom, 0.1)
    assert res.b_star == pytest.approx(4.41023466806e-12, rel=1e-11, abs=0)
    assert res.binding_energy / EV == pytest.approx(0.0328419646662, rel=1e-11, abs=0)


def test_atom_minimize_uses_bare_nucleus_coefficients():
    # gamma -> infinity leaves the bare nucleus: the same b* and depth as
    # minimize_radius on ParticleSpec(z=Z, mass=M_tot), to rounding
    atom = NeutralAtom(z_nucleus=2, mass_total=4 * PROTON.mass, gamma=1e300)
    bare = minimize_radius(ParticleSpec(z=2, mass=4 * PROTON.mass), 0.1)
    res = atom_minimize(atom, 0.1)
    assert res.b_star == pytest.approx(bare.b_star, rel=4e-16, abs=0)
    assert res.binding_energy == pytest.approx(bare.binding_energy, rel=4e-15, abs=0)
    assert res.b_over_de_broglie == pytest.approx(bare.b_over_de_broglie, rel=4e-16, abs=0)


def test_atom_minimize_beta_checks_are_shared():
    with pytest.raises(InvalidVelocityError):
        atom_minimize(hydrogen_atom(), 1.0)
    with pytest.raises(InvalidVelocityError):
        atom_minimize(hydrogen_atom(), float("nan"))
    with pytest.warns(UserWarning, match="beta = 0.5 > 0.3"):
        atom_minimize(helium_atom(), 0.5)
    # a bare-nucleus depth below the normal float range is no localization
    with pytest.raises(NoLocalizationError, match="float range"):
        atom_minimize(NeutralAtom(z_nucleus=1, mass_total=PROTON.mass, gamma=1e300), 1e-74)


def test_slope_peak_is_the_existence_threshold():
    # u * _bracket_slope(u) at u = b/gamma is -b^3 dS/db / gamma; it peaks at _SLOPE_PEAK
    def phi(u):
        return u * _bracket_slope(u)
    peak = phi(_SLOPE_PEAK)
    assert peak == pytest.approx(0.35743022691345611, rel=1e-15, abs=0)
    for u in np.linspace(0.05, 5.0, 2000):
        assert phi(float(u)) <= peak * (1.0 + 1e-15)
    # f' turns positive only while b0 = 2K/C is below 0.35743 gamma; just
    # above that the minimum exists but lies above zero
    mass = hydrogen_atom().mass_total
    b0 = minimize_radius(ParticleSpec(z=1, mass=mass), 0.1).b_star
    with pytest.raises(NoLocalizationError, match="screening wins"):
        atom_minimize(NeutralAtom(z_nucleus=1, mass_total=mass, gamma=0.999 * b0 / peak), 0.1)
    with pytest.raises(NoLocalizationError, match="non-binding"):
        atom_minimize(NeutralAtom(z_nucleus=1, mass_total=mass, gamma=1.001 * b0 / peak), 0.1)


# --- the cancellation-free bracket --------------------------------------------------

def test_screened_bracket_matches_extended_precision():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    with mp.workdps(60):   # the three-term form cancels (b/gamma)^4: 32 digits at 1e8
        for ratio in np.concatenate([np.logspace(-8, 8, 161),
                                     10.0 ** rng.uniform(-8, 8, 200)]):
            b = float(10.0 ** rng.uniform(-14, 2))
            g = b * float(ratio)
            bm, gm = mp.mpf(b), mp.mpf(g)
            ref = (1 / bm - 2 * mp.sqrt(2) / mp.sqrt(2 * bm**2 + gm**2)
                   + 1 / mp.sqrt(bm**2 + gm**2))
            assert screened_bracket(b, g) == pytest.approx(float(ref), rel=1e-14, abs=0)


def test_screened_energy_positive_far_outside_the_cloud():
    # b = 1e4 a_B: the three-term form printed -6.69e-20 eV here
    atom = hydrogen_atom()
    energy = atom_electrostatic_energy(atom, 5.29177210903e-7) / EV
    assert energy == pytest.approx(1.01772865233e-20, rel=1e-11, abs=0)


@pytest.mark.parametrize("b,g", [(1e-300, 1e300), (1e300, 1e-300), (1e-308, 1.0),
                                 (1.0, 5e-324), (1e308, 1e308), (1e-10, 1e300),
                                 (1e300, 1.0)])
def test_screened_bracket_finite_at_extremes(b, g):
    value = screened_bracket(b, g)
    assert math.isfinite(value)
    assert 0.0 <= value <= (1.0 + 1e-15) / b


@pytest.mark.parametrize("kwargs", [
    {"gamma": float("nan")}, {"gamma": math.inf}, {"mass_total": float("nan")},
    {"mass_total": math.inf}])
def test_atom_rejects_non_finite_inputs(kwargs):
    base = {"z_nucleus": 1, "mass_total": PROTON.mass + ELECTRON.mass, "gamma": A_B}
    with pytest.raises(ValueError):
        NeutralAtom(**{**base, **kwargs})


@pytest.mark.parametrize("b", [1e-310, 5e-324])
def test_screened_energy_finite_at_subnormal_width(b):
    # the bracket alone (about 1/b) overflows, the energy does not: b << gamma
    # leaves the bare nucleus
    atom = hydrogen_atom()
    energy = atom_electrostatic_energy(atom, b)
    assert math.isfinite(energy)
    assert energy == pytest.approx(bare_nucleus_energy(atom, b), rel=1e-15, abs=0)
