"""The localization kernel against the scalar code it replaced.

_old_minimize is the per-beta scalar minimize_radius/functional_coefficients
that sweep used to call once per row, restated in Python floats.  The
kernel's one-row case (minimize_radius, functional_coefficients) and every
row of a sweep must give its bits, its exception and its status, for edge
speeds, charges z in {-2, -1, 1, 2, 3} and masses from 1e-300 to 1e300 kg.
"""

import contextlib
import math
import sys
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from selffield import localization  # noqa: E402
from selffield.coherent_field import ANGULAR_CROSS, ANGULAR_TRANSVERSE  # noqa: E402
from selffield.energy_budget import BudgetMode  # noqa: E402
from selffield.errors import InvalidVelocityError, NoMinimumError  # noqa: E402
from selffield.localization import (RADIUS_PREFACTOR, SweepRow,  # noqa: E402
                                    functional_coefficients, minimize_radius, sweep)
from selffield.scales import CONST, ELECTRON, EV, ParticleSpec, derived_scales  # noqa: E402
from selffield.wavepacket import GaussianPacket  # noqa: E402


def _old_objective(b, p, beta, mode):
    """localization_objective of GaussianPacket(b, p, beta), scalar."""
    GaussianPacket(b=b, particle=p, beta=beta)   # its width check
    kinetic = 3.0 * CONST.hbar**2 / (16.0 * p.mass * (b * b))
    e_el = p.charge**2 / (8.0 * math.sqrt(2.0) * math.pi**1.5 * CONST.eps0 * b)
    value = kinetic + -ANGULAR_TRANSVERSE * beta**2 * e_el
    if mode is BudgetMode.ASSEMBLED:
        value += 2.0 * ANGULAR_CROSS * beta**4 * e_el
    return value


def _old_minimize(p, beta, mode):
    """(K, C, b*, depth, b*/lambda) of the scalar closed-form minimizer, or
    the exception it raises (the soft-limit warning is left to the caller)."""
    if p.z == 0:
        raise ValueError("charged-particle minimization needs z != 0; use the atom module")
    if not 0.0 <= beta < 1.0:
        raise InvalidVelocityError(f"beta = {beta} outside [0, 1)")
    if beta == 0.0:
        raise NoMinimumError("functional is monotone at beta = 0: no localization")
    where = f"beta={beta} for particle {p.label or p.z}"
    try:
        seed = RADIUS_PREFACTOR * derived_scales(p, beta).bohr_like_length / beta**2
        GaussianPacket(b=seed, particle=p, beta=beta)
        kinetic = 3.0 * CONST.hbar**2 / (16.0 * p.mass * (seed * seed))
        k_coeff = kinetic * seed**2
        c_coeff = (kinetic - _old_objective(seed, p, beta, mode)) * seed
    except (ArithmeticError, ValueError) as exc:
        raise NoMinimumError(f"minimum outside the float range at {where}") from exc
    if not c_coeff > 0.0:
        raise NoMinimumError(f"functional non-binding at {where}")
    b_star = 2.0 * k_coeff / c_coeff
    if not (0.0 < b_star * b_star < math.inf
            and c_coeff / (2.0 * b_star) >= sys.float_info.min):
        raise NoMinimumError(f"minimum outside the float range at {where}")
    depth = -_old_objective(b_star, p, beta, mode)
    lam = derived_scales(p, beta).de_broglie_length
    return k_coeff, c_coeff, b_star, depth, b_star / lam


def _outcome(fn, *args):
    """fn(*args) as hex strings of its floats, or (exception type, message)."""
    try:
        return tuple(x.hex() for x in fn(*args))
    except (InvalidVelocityError, NoMinimumError, ValueError) as exc:
        return type(exc), str(exc)


def _new_minimize(p, beta, mode):
    res = minimize_radius(p, beta, mode)
    return (*functional_coefficients(p, beta, mode), res.b_star, res.binding_energy,
            res.b_over_de_broglie)


EDGE_BETAS = [0.0, -0.0, -0.1, 1.0, 1.5, math.inf, math.nan, 1e-170, 5e-324, 1e-80,
              1e-155, 0.3, math.nextafter(0.3, 1.0), math.nextafter(1.0, 0.0),
              0.999999]
BETAS = (st.sampled_from(EDGE_BETAS) | st.floats(0.0, 1.0, exclude_max=True)
         | st.floats())
PARTICLES = st.builds(
    ParticleSpec, z=st.sampled_from([-2, -1, 1, 2, 3]),
    mass=(st.sampled_from([1e-300, 1e300, ELECTRON.mass])
          | st.floats(-300.0, 300.0).map(lambda e: 10.0**e)))
MODES = st.sampled_from(list(BudgetMode))


@settings(max_examples=400, deadline=None, database=None)
@given(p=PARTICLES, beta=BETAS, mode=MODES)
@example(p=ELECTRON, beta=1e-170, mode=BudgetMode.PAPER_QUOTED)
@example(p=ELECTRON, beta=5e-324, mode=BudgetMode.ASSEMBLED)
@example(p=ELECTRON, beta=1e-80, mode=BudgetMode.PAPER_QUOTED)   # non-binding
@example(p=ParticleSpec(z=1, mass=1e-300), beta=0.1, mode=BudgetMode.PAPER_QUOTED)
@example(p=ParticleSpec(z=1, mass=1e300), beta=0.1, mode=BudgetMode.ASSEMBLED)
@example(p=ParticleSpec(z=-2, mass=1e250), beta=1e-155, mode=BudgetMode.ASSEMBLED)
# only the de Broglie length's divisor M beta c underflows to zero
@example(p=ParticleSpec(z=3 * 10**85, mass=1e-300), beta=5e-33,
         mode=BudgetMode.PAPER_QUOTED)
# (Z e)^2 overflows: the particle's own scales raise
@example(p=ParticleSpec(z=10**200, mass=1.0), beta=0.1, mode=BudgetMode.PAPER_QUOTED)
def test_one_row_matches_the_scalar_code(p, beta, mode):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        new = _outcome(_new_minimize, p, beta, mode)
    assert new == _outcome(_old_minimize, p, beta, mode)
    # one soft-limit warning wherever beta passes its range checks
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.suppress(InvalidVelocityError, NoMinimumError):
            minimize_radius(p, beta, mode)
    assert [str(w.message) for w in caught] == (
        [f"beta = {beta} > 0.3: beta^4 terms are no longer small; results are "
         "indicative only"] if 0.3 < beta < 1.0 else [])


@settings(max_examples=200, deadline=None, database=None)
@given(p=PARTICLES, grid=st.lists(BETAS, max_size=8), mode=MODES)
@example(p=ELECTRON, grid=[0.0, 1e-170, 0.1, 2.0], mode=BudgetMode.PAPER_QUOTED)
@example(p=ParticleSpec(z=3 * 10**85, mass=1e-300), grid=[5e-33, 0.1, -1.0],
         mode=BudgetMode.ASSEMBLED)
@example(p=ParticleSpec(z=10**200, mass=1.0), grid=[0.1, 0.0, 1.0],
         mode=BudgetMode.PAPER_QUOTED)
def test_sweep_rows_are_minimize_radius_rows(p, grid, mode):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = sweep(p, grid, mode)
    assert caught == []
    assert [row.beta.hex() for row in rows] == [float(beta).hex() for beta in grid]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for beta, row in zip(grid, rows):
            # == on the nonzero finite floats of a result is bitwise
            try:
                res = minimize_radius(p, beta, mode)
                want = SweepRow(row.beta, res.b_star, res.binding_energy / EV,
                                res.b_over_de_broglie, mode.value, "ok")
            except InvalidVelocityError:
                want = SweepRow(row.beta, None, None, None, None, "invalid-velocity")
            except NoMinimumError:
                want = SweepRow(row.beta, None, None, None, None, "no-minimum")
            assert row == want
            # Python floats and strs, as the CSV templates and JSON take them
            assert all(type(cell) in (float, str, type(None)) for cell in row)


def test_neutral_particle_still_raises():
    neutral = ParticleSpec(z=0, mass=ELECTRON.mass)
    for call in (minimize_radius, functional_coefficients):
        with pytest.raises(ValueError, match="z != 0"):
            call(neutral, 0.1)
    with pytest.raises(ValueError, match="z != 0"):
        sweep(neutral, [0.1, 0.2])


def test_sweep_evaluates_the_objective_twice_whatever_its_length(monkeypatch):
    calls = []
    objective = localization.localization_objective

    def counted(*args):
        calls.append(args)
        return objective(*args)
    monkeypatch.setattr(localization, "localization_objective", counted)
    grid = [0.01 + 0.28 * i / 999 for i in range(1000)]
    for mode in BudgetMode:
        calls.clear()
        rows = sweep(ELECTRON, grid, mode)
        assert [row.status for row in rows] == ["ok"] * 1000
        assert len(calls) == 2
