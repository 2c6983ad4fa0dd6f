"""Tests of the self-validation suite itself."""

import dataclasses
import time

import numpy as np
import pytest

from selffield import coherent_field, validate
from selffield.atom import BOHR_RADIUS
from selffield.scales import CONST, ELECTRON
from selffield.validate import (check_field_transversality,
                                check_projector_idempotence,
                                check_snapshot_roundtrip, parse_report,
                                report_to_json, run_validation)
from selffield.wavepacket import GaussianPacket

SEED = 20230527


def test_fresh_build_all_pass_and_fast():
    start = time.monotonic()
    report = run_validation()
    elapsed = time.monotonic() - start
    assert report["all_passed"] is True
    assert elapsed < 60.0
    assert len(report["entries"]) >= 17


def test_tampered_constants_named_failure():
    # each shifted constant must break the closed-form radius check, and the
    # report names the failing entry
    for name in ("e_charge", "hbar", "eps0", "m_electron"):
        tampered = dataclasses.replace(CONST, **{name: getattr(CONST, name) * (1.0 + 1e-6)})
        report = run_validation(constants=tampered, include_dynamics=False)
        assert report["all_passed"] is False, name
        failing = [e["name"] for e in report["entries"] if not e["passed"]]
        assert failing == ["localization-reference-values"], name


def test_report_roundtrips_through_parser():
    report = run_validation(include_dynamics=False)
    text = report_to_json(report)
    parsed = parse_report(text)
    assert parsed["all_passed"] == report["all_passed"]
    assert [e["name"] for e in parsed["entries"]] == \
        [e["name"] for e in report["entries"]]


def test_parser_rejects_malformed():
    with pytest.raises(ValueError):
        parse_report('{"entries": []}')
    with pytest.raises(ValueError):
        parse_report('{"tool_version": "x", "constants_version": "y", '
                     '"entries": [{"name": "a"}], "all_passed": true}')


@pytest.mark.parametrize("field", ["box", "dt"])
def test_snapshot_roundtrip_check_compares_whole_spec(monkeypatch, tmp_path, field):
    # a loader that restores psi, A and t but loses part of the GridSpec
    # must fail the round-trip check
    load = validate.load_snapshot

    def lossy_load(path, label=""):
        state, spec = load(path, label=label)
        return state, dataclasses.replace(spec, **{field: 2.0 * getattr(spec, field)})

    assert check_snapshot_roundtrip(tmpdir=tmp_path).passed
    monkeypatch.setattr(validate, "load_snapshot", lossy_load)
    assert not check_snapshot_roundtrip(tmpdir=tmp_path).passed


# --- the batched sampled checks ------------------------------------------------

def _old_projector_draws(rng):
    # the per-sample loop the batched projector check replaced
    return [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(200)]


def _old_field_draws(rng):
    # the per-sample loop the batched transversality check replaced
    draws = []
    for _ in range(1000):
        b = BOHR_RADIUS * 10.0 ** rng.uniform(-1, 1)
        beta = rng.uniform(0.01, 0.3)
        direction = rng.standard_normal(3)
        pkt = GaussianPacket(b=b, particle=ELECTRON, beta=beta, direction=direction)
        draws.append((pkt, rng.standard_normal(3) / b))
    return draws


def _spy(monkeypatch, name):
    calls, fn = [], getattr(validate, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(validate, name, spy)
    return calls


def test_batched_checks_draw_the_old_samples_and_leave_the_same_state(monkeypatch):
    projections = _spy(monkeypatch, "transverse_project")
    potentials = _spy(monkeypatch, "potential_spectrum")
    efields = _spy(monkeypatch, "efield_spectrum")
    rng, old_rng = np.random.default_rng(SEED), np.random.default_rng(SEED)
    assert check_projector_idempotence(rng).passed
    assert check_field_transversality(rng).passed
    old_projector = _old_projector_draws(old_rng)
    old_field = _old_field_draws(old_rng)
    assert rng.bit_generator.state == old_rng.bit_generator.state

    q, v = projections[0]
    assert np.array_equal(q, [qi for qi, _ in old_projector])
    assert np.array_equal(v, [vi for _, vi in old_projector])
    q, b, momentum, charge_to_mass = potentials[0]
    assert np.array_equal(q, [qi for _, qi in old_field])
    assert np.array_equal(b, [p.b for p, _ in old_field])
    assert np.array_equal(momentum, [p.momentum for p, _ in old_field])
    assert charge_to_mass == ELECTRON.charge / ELECTRON.mass
    assert np.array_equal(efields[0][2], [p.speed * p.direction for p, _ in old_field])
    assert (len(projections), len(potentials), len(efields)) == (2, 1, 1)


def test_leaky_projector_fails_both_sampled_checks(monkeypatch):
    # a projector that keeps 1e-9 of the longitudinal part is neither
    # idempotent nor yields a transverse field
    project = coherent_field.transverse_project

    def leaky(q, v):
        v = np.asarray(v)
        kept = project(q, v)
        return kept + 1e-9 * (v - kept)
    monkeypatch.setattr(coherent_field, "transverse_project", leaky)
    monkeypatch.setattr(validate, "transverse_project", leaky)
    assert not check_projector_idempotence(np.random.default_rng(SEED)).passed
    assert not check_field_transversality(np.random.default_rng(SEED)).passed
