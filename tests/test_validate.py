"""Tests of the self-validation suite itself."""

import dataclasses
import time

import pytest

from selffield import validate
from selffield.scales import CONST
from selffield.validate import (check_snapshot_roundtrip, parse_report,
                                report_to_json, run_validation)


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
