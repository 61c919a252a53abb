"""Tests for the CSV figure exporter."""

from __future__ import annotations

import csv

import pytest

from repro.harness import EXPERIMENT_TABLE, export_csv


@pytest.fixture(scope="module")
def exported(lab, tmp_path_factory):
    directory = tmp_path_factory.mktemp("export")
    paths = export_csv(lab, list(EXPERIMENT_TABLE), directory)
    return directory, paths


def _read(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestExport:
    def test_all_files_written(self, exported):
        directory, paths = exported
        names = {p.name for p in paths}
        for expected in (
            "fig1_violins.csv",
            "fig2_400_perlbench_points.csv",
            "fig2_400_perlbench_band.csv",
            "fig3_cache_points.csv",
            "fig4_errors.csv",
            "fig5_points.csv",
            "fig6_blame.csv",
            "fig7_mpki.csv",
            "fig8_cpi.csv",
            "table1.csv",
        ):
            assert expected in names
        for path in paths:
            assert path.exists()

    def test_fig1_long_format(self, exported):
        directory, _ = exported
        rows = _read(directory / "fig1_violins.csv")
        assert rows[0] == ["benchmark", "percent_deviation", "density"]
        benchmarks = {row[0] for row in rows[1:]}
        assert len(benchmarks) == 23
        assert all(float(row[2]) >= 0.0 for row in rows[1:])

    def test_fig2_band_ordering(self, exported):
        directory, _ = exported
        rows = _read(directory / "fig2_400_perlbench_band.csv")
        assert len(rows) - 1 == 40
        for row in rows[1:]:
            _, line, ci_low, ci_high, pi_low, pi_high = map(float, row)
            assert pi_low <= ci_low <= line <= ci_high <= pi_high

    def test_fig2_points_match_campaign(self, exported, lab):
        directory, _ = exported
        rows = _read(directory / "fig2_400_perlbench_points.csv")
        assert len(rows) - 1 == lab.scale.n_layouts

    def test_fig7_predictor_coverage(self, exported):
        directory, _ = exported
        rows = _read(directory / "fig7_mpki.csv")
        predictors = {row[1] for row in rows[1:]}
        assert {"real", "GAs-2KB", "GAs-16KB", "L-TAGE", "perfect"} <= predictors

    def test_fig8_intervals(self, exported):
        directory, _ = exported
        rows = _read(directory / "fig8_cpi.csv")
        for row in rows[1:]:
            cpi, low, high = float(row[2]), float(row[3]), float(row[4])
            assert low <= cpi <= high

    def test_table1_columns(self, exported):
        directory, _ = exported
        rows = _read(directory / "table1.csv")
        assert rows[0][:3] == ["benchmark", "slope", "intercept"]
        assert all(float(row[1]) > 0 for row in rows[1:])
