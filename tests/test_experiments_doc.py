"""Tests for the EXPERIMENTS.md generator and CLI experiment runs."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.harness.experiments_doc import PAPER_TABLE1, build_document


class TestExperimentsDoc:
    @pytest.fixture(scope="class")
    def document(self, ci_lab):
        return build_document(ci_lab)

    def test_all_sections_present(self, document):
        for heading in (
            "## Figure 1", "## Figure 2", "## Figure 3", "## Figure 4",
            "## Figure 5", "## Figure 6", "## Figure 7", "## Figure 8",
            "## Table 1", "significance screen", "headline predictions",
            "## Known deviations",
        ):
            assert heading.lower() in document.lower(), heading

    def test_paper_reference_values_present(self, document):
        # Spot-check that the paper's numbers appear as comparisons.
        assert "0.02799" in document   # perlbench slope
        assert "1.387" in document     # suite real CPI
        assert "6.306" in document     # real predictor MPKI
        assert "20 of 23" in document

    def test_measured_values_rendered(self, document):
        assert "measured" in document
        assert "HOLDS" in document

    def test_paper_table1_reference_complete(self):
        assert len(PAPER_TABLE1) == 20
        assert PAPER_TABLE1["400.perlbench"][0] == pytest.approx(0.028)


class TestCliScale:
    def test_scale_flag_runs_experiment(self, capsys):
        assert main(["--scale", "ci", "headline"]) == 0
        out = capsys.readouterr().out
        assert "scale: ci" in out
        assert "perfect prediction" in out
