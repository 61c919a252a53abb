"""The registry of paper claims, evaluated on the ``ci`` laboratory."""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness import EXPERIMENTS, claims, experiments_doc
from repro.harness.claims import ABLATIONS, CLAIMS, HOLDS
from repro.harness.lab import SCALES

CI_CLAIMS = [claim for claim in CLAIMS if claim.min_scale == "ci"]


@pytest.mark.parametrize("claim", CI_CLAIMS, ids=lambda claim: claim.name)
def test_claim_holds_at_ci(claim, ci_lab):
    assert claim.verdict(ci_lab) == HOLDS, claim.detail


def test_registry_is_well_formed():
    assert len({claim.name for claim in CLAIMS}) == len(CLAIMS)
    for claim in CLAIMS:
        assert claim.min_scale in SCALES, claim.name
        assert claim.experiment in EXPERIMENTS or claim.experiment in ABLATIONS, claim.name


def test_small_claim_is_not_checked_on_a_ci_lab(ci_lab):
    claim = next(claim for claim in CLAIMS if claim.min_scale == "small")
    assert claim.verdict(ci_lab) == "not checked below `small`"
    document = experiments_doc.build_document(ci_lab)
    (line,) = [row for row in document.splitlines() if f"`{claim.name}`" in row]
    assert "not checked below `small`" in line
    assert "HOLDS" not in line and "FAILS" not in line


def test_main_exits_1_when_a_ci_claim_fails(ci_lab, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(experiments_doc, "Laboratory", lambda: ci_lab)
    monkeypatch.chdir(tmp_path)
    assert experiments_doc.main() == 0
    broken = dataclasses.replace(CI_CLAIMS[0], holds=lambda result: False)
    monkeypatch.setattr(
        claims,
        "CLAIMS",
        tuple(broken if claim is CI_CLAIMS[0] else claim for claim in CLAIMS),
    )
    assert experiments_doc.main() == 1
    assert broken.name in capsys.readouterr().err
    assert f"**FAILS** — {broken.detail}" in (tmp_path / "EXPERIMENTS.md").read_text(
        encoding="utf-8"
    )
