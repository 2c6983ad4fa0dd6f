"""Metamorphic tests of the coupled dynamics: exact symmetries of the model
on the periodic grid serve as oracles that need no reference code.

Each test evolves a state and its image under a symmetry, and checks that
the image of the first run's final psi, A and every record field matches
the second run to a few 1e-15 relative:
- a cyclic permutation of the axes (psi, the components of A, and the
  momentum permute with them);
- a lattice translation by np.roll (every record field is unchanged);
- charge conjugation z = -1 -> +1 at the same mass (psi is unchanged and
  A -> -A: the coupling goes as q^2, the current and the field as q);
- a mirror reflection i -> (-i) mod n along one axis (that component of A
  and of the momentum changes sign; on the torus the point i = 0 and the
  Nyquist plane i = n/2 are fixed).
The initial psi is a drifting packet plus a seeded perturbation of relative
size 1e-6 that fills every mode up to the Nyquist planes, so that a fault
confined to a few modes still shows.

Time reversal is the fifth symmetry: k steps, then psi -> psi* and
A -> -A, k steps more and a conjugation return psi0.  With coupling off
this holds to roundoff.  The coupled step is not time-reversible (ROADMAP
item 1): its measured first-order defect is pinned, an error that halves
as dt halves, and the pin moves when a reversible coupled step lands.
"""

import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from selffield.dynamics import (GridSpec, GridState, evolve, init_grid,  # noqa: E402
                                solve_vector_potential)
from selffield.scales import ELECTRON, ParticleSpec  # noqa: E402
from selffield.wavepacket import GaussianPacket  # noqa: E402

N, B, DT, STEPS = 32, 3e-11, 2e-19, 3
TOL = 5e-15

SEEDS = st.integers(0, 2**32 - 1)
DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 0.1)
# no shrinking: every example is two grid runs, and a smaller seed or a
# rounder direction explains a failure no better
SETTINGS = settings(max_examples=3, deadline=None, database=None,
                    phases=[Phase.explicit, Phase.generate])


def _spec(include_diagonal_na, particle=ELECTRON):
    return GridSpec(n=N, box=8 * B, dt=DT, particle=particle,
                    include_diagonal_na=include_diagonal_na)


def _initial(spec, seed, direction):
    packet = GaussianPacket(b=B, particle=spec.particle, beta=0.1,
                            direction=np.array(direction))
    psi = init_grid(spec, packet).psi
    noise = np.random.default_rng(seed).standard_normal((2, N, N, N))
    psi = psi + 1e-6 * np.abs(psi).max() * (noise[0] + 1j * noise[1])
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * spec.dx**3)
    state = GridState(psi=psi, a_field=np.zeros((3, N, N, N)), t=0.0)
    state.a_field = solve_vector_potential(state, spec)
    return state


def _scales(records):
    """Comparison scale of each record field: the largest magnitude it takes
    over the run, except for the differences of much larger numbers.  The
    a2_rate_term (a second difference of int A^2 over dt^2) is taken on the
    scale of the energy it corrects, the powers current_dot_e and
    flux_residual on the scale field_energy / dt of the difference quotient
    in flux_residual."""
    top = {f.name: max(float(np.max(np.abs(getattr(r, f.name)))) for r in records)
           for f in dataclasses.fields(records[0])}
    top["a2_rate_term"] = top["energy"]
    top["current_dot_e"] = top["flux_residual"] = top["field_energy"] / DT
    return top


def _assert_image(run, image, psi_map, a_map, momentum_map=lambda p: p):
    """image is the run of the mapped initial state; the maps carry the
    first run's psi, A and momentum over to it."""
    for got, want in ((image.final_state.psi, psi_map(run.final_state.psi)),
                      (image.final_state.a_field, a_map(run.final_state.a_field))):
        assert np.abs(got - want).max() <= TOL * np.abs(want).max()
    scale = _scales(run.records)
    assert len(image.records) == len(run.records)
    for got, want in zip(image.records, run.records):
        assert (got.step, got.t) == (want.step, want.t)
        for field in dataclasses.fields(want):
            name = field.name
            if name not in ("step", "t"):
                value = getattr(want, name)
                if name == "momentum":
                    value = momentum_map(value)
                assert np.abs(getattr(got, name) - value).max() <= TOL * scale[name], name


@pytest.mark.parametrize("diagonal_na", [False, True])
@SETTINGS
@given(seed=SEEDS, direction=DIRECTIONS, perm=st.sampled_from([(1, 2, 0), (2, 0, 1)]))
def test_cyclic_axis_permutation(diagonal_na, seed, direction, perm):
    spec = _spec(diagonal_na)
    state = _initial(spec, seed, direction)

    def psi_map(psi):
        return np.transpose(psi, perm)

    def a_map(a):
        return np.transpose(a[list(perm)], (0,) + tuple(p + 1 for p in perm))

    image = GridState(psi=psi_map(state.psi), a_field=a_map(state.a_field), t=0.0)
    _assert_image(evolve(state, spec, STEPS), evolve(image, spec, STEPS),
                  psi_map, a_map, lambda p: p[list(perm)])


@pytest.mark.parametrize("diagonal_na", [False, True])
@SETTINGS
@given(seed=SEEDS, direction=DIRECTIONS, shift=st.tuples(*[st.integers(0, N - 1)] * 3))
def test_lattice_translation(diagonal_na, seed, direction, shift):
    spec = _spec(diagonal_na)
    state = _initial(spec, seed, direction)

    def psi_map(psi):
        return np.roll(psi, shift, axis=(0, 1, 2))

    def a_map(a):
        return np.roll(a, shift, axis=(1, 2, 3))

    image = GridState(psi=psi_map(state.psi), a_field=a_map(state.a_field), t=0.0)
    _assert_image(evolve(state, spec, STEPS), evolve(image, spec, STEPS),
                  psi_map, a_map)


@pytest.mark.parametrize("diagonal_na", [False, True])
@SETTINGS
@given(seed=SEEDS, direction=DIRECTIONS)
def test_charge_conjugation(diagonal_na, seed, direction):
    spec = _spec(diagonal_na)
    state = _initial(spec, seed, direction)
    conjugate = _spec(diagonal_na, ParticleSpec(z=1, mass=ELECTRON.mass))
    image = GridState(psi=state.psi, a_field=-state.a_field, t=0.0)
    _assert_image(evolve(state, spec, STEPS), evolve(image, conjugate, STEPS),
                  lambda psi: psi, lambda a: -a)


@pytest.mark.parametrize("diagonal_na", [False, True])
@SETTINGS
@given(seed=SEEDS, direction=DIRECTIONS, axis=st.integers(0, 2))
def test_mirror_reflection(diagonal_na, seed, direction, axis):
    spec = _spec(diagonal_na)
    state = _initial(spec, seed, direction)
    mirror = -np.arange(N) % N
    sign = np.ones((3, 1, 1, 1))
    sign[axis] = -1.0

    def psi_map(psi):
        return np.take(psi, mirror, axis=axis)

    def a_map(a):
        return sign * np.take(a, mirror, axis=axis + 1)

    image = GridState(psi=psi_map(state.psi), a_field=a_map(state.a_field), t=0.0)
    _assert_image(evolve(state, spec, STEPS), evolve(image, spec, STEPS),
                  psi_map, a_map, lambda p: sign[:, 0, 0, 0] * p)


def _reversal_error(particle, coupling, k, span=16 * DT):
    """Relative L2 distance from psi0 of k steps over span, psi -> psi*,
    A -> -A, k steps and a conjugation."""
    spec = GridSpec(n=N, box=8 * B, dt=span / k, particle=particle, coupling=coupling)
    packet = GaussianPacket(b=B, particle=particle, beta=0.1,
                            direction=np.array([1.0, 2.0, 2.0]) / 3.0)
    start = init_grid(spec, packet)
    forward = evolve(start, spec, k, record_stride=k).final_state
    mirrored = GridState(psi=np.conj(forward.psi), a_field=-forward.a_field, t=0.0)
    back = np.conj(evolve(mirrored, spec, k, record_stride=k).final_state.psi)
    return float(np.linalg.norm(back - start.psi) / np.linalg.norm(start.psi))


def test_time_reversal():
    for k in (16, 32):
        assert _reversal_error(ELECTRON, False, k) < 1e-14
    # coupled: measured 6.31e-11 -> 3.16e-11 for the electron and
    # 6.33e-7 -> 3.16e-7 at z = -10, first order in dt
    for particle, low, high in ((ELECTRON, 5e-11, 8e-11),
                                (ParticleSpec(z=-10, mass=ELECTRON.mass), 5e-7, 8e-7)):
        coarse, fine = (_reversal_error(particle, True, k) for k in (16, 32))
        assert low < coarse < high
        assert 1.9 < coarse / fine < 2.1
