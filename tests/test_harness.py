"""Tests for the experiment harness and CLI."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, main
from repro.errors import ConfigurationError
from repro.harness import SCALES, Laboratory
from repro.harness import (
    fig1,
    fig2,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    headline,
    significance,
    table1,
)
from repro.harness.lab import scale_from_env
from repro.harness.report import format_table
from repro.mase.linearity import LinearityStudy


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [("a", 1.23456), ("bb", 2)])
        lines = text.splitlines()
        assert "name" in lines[0]
        assert "1.235" in text
        assert len(lines) == 4

    def test_title(self):
        text = format_table(["x"], [(1,)], title="T")
        assert text.splitlines()[0] == "T"

    def test_bool_rendering(self):
        assert "yes" in format_table(["x"], [(True,)])


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) == {"ci", "small", "paper"}
        assert SCALES["paper"].n_layouts == 100

    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "ci")
        assert scale_from_env().name == "ci"

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(ConfigurationError):
            scale_from_env()

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_from_env().name == "small"


class TestLaboratory:
    def test_observations_cached(self, lab):
        a = lab.observations("456.hmmer")
        b = lab.observations("456.hmmer")
        assert a is b
        assert len(a) == lab.scale.n_layouts

    def test_model(self, lab):
        model = lab.model("456.hmmer")
        assert model.benchmark == "456.hmmer"

    def test_significant_benchmarks_excludes_insensitive(self, lab):
        significant = lab.significant_benchmarks()
        assert "470.lbm" not in significant
        assert "456.hmmer" in significant

    def test_mase_only_benchmark_lookup(self, lab):
        assert lab.benchmark("252.eon").name == "252.eon"


class TestFigures:
    def test_fig1(self, lab):
        result = fig1.run(lab)
        assert len(result.rows) == 23
        text = result.render()
        assert "Figure 1" in text
        assert "400.perlbench" in text

    def test_fig1_violin_data(self, lab):
        result = fig1.run(lab)
        row = next(r for r in result.rows if r.benchmark == "445.gobmk")
        assert row.profile.density.size > 0
        assert row.min_pct <= 0 <= row.max_pct

    def test_fig2(self, lab):
        result = fig2.run(lab)
        assert [p.benchmark for p in result.panels] == [
            "400.perlbench",
            "471.omnetpp",
        ]
        text = result.render()
        assert "CPI =" in text
        assert "pi_low" in text

    def test_fig2_bands_ordered(self, lab):
        panel = fig2.run(lab).panels[0]
        assert (panel.pi_low <= panel.ci_low).all()
        assert (panel.ci_high <= panel.pi_high).all()

    def test_fig3(self, lab):
        result = fig3.run(lab)
        assert result.benchmark == "454.calculix"
        assert "L1 data cache" in result.render()

    def test_fig5_from_study(self, lab):
        study = LinearityStudy(trace_events=2000, n_configs=12).run(
            [lab.benchmark(n) for n in (
                "473.astar", "401.bzip2", "458.sjeng",
                "456.hmmer", "252.eon", "178.galgel",
            )]
        )
        result = fig5.from_study(study)
        assert len(result.linear) == 3
        assert len(result.nonlinear) == 3
        assert "Figure 5" in result.render()

    def test_fig6(self, lab):
        result = fig6.run(lab)
        assert len(result.reports) == 23
        assert 0.0 <= result.mean_branch_r2 <= 1.0
        assert "combined" in result.render()

    def test_fig7(self, lab):
        result = fig7.run(lab)
        assert len(result.evaluations) == len(lab.significant_benchmarks())
        assert "Figure 7" in result.render()

    def test_fig8(self, lab):
        result = fig8.run(lab)
        assert len(result.evaluations) == len(lab.significant_benchmarks())
        assert "Figure 8" in result.render()

    def test_fig7_fig8_share_campaign(self, lab):
        """Both figures consume the same cached evaluations."""
        a = fig7.run(lab).evaluations
        b = fig8.run(lab).evaluations
        assert a == b

    def test_table1(self, lab):
        result = table1.run(lab)
        names = [row.benchmark for row in result.rows]
        assert "470.lbm" not in names
        assert result.row_for(names[0]).benchmark == names[0]
        assert "Table 1" in result.render()

    def test_significance(self, lab):
        result = significance.run(lab)
        assert len(result.rows) == 23
        # The 20-of-23 split and which benchmarks miss it are claims in
        # repro.harness.claims (significance.*), checked per scale tier;
        # at the tiny test scale (n=8 layouts) one borderline benchmark
        # (429.mcf, memory-dominated CPI) may miss the cut, so only the
        # bookkeeping against each personality's expectation is checked.
        assert result.matches_expectation >= 20
        by_name = {row.benchmark: row for row in result.rows}
        assert by_name["445.gobmk"].significant
        assert "reject the null" in result.render()

    def test_significance_marks_significant_benchmarks(self, lab):
        result = significance.run(lab)
        marked = [row.benchmark for row in result.rows if row.significant]
        assert marked == lab.significant_benchmarks()

    def test_headline(self, lab):
        result = headline.run(lab)
        assert result.benchmark == "400.perlbench"
        assert "perfect prediction" in result.render()


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "table1" in out

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "table1", "significance", "headline", "extended",
        }

    def test_unknown_experiment(self, capsys):
        assert main(["not-a-fig"]) == 2

    def test_negative_workers(self, capsys):
        assert main(["headline", "--workers", "-1"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_export_without_experiments_errors(self, capsys, tmp_path):
        """--export with no experiments used to silently hit the --list
        early return and drop the export; now it errors clearly."""
        assert main(["--export", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--export" in err
        assert not sorted(tmp_path.iterdir())

    def test_export_with_experiments_writes_csv(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["fig3", "--scale", "ci", "--export", str(out_dir)]) == 0
        assert (out_dir / "fig3_cache_points.csv").exists()
        assert "exported 1 CSV" in capsys.readouterr().out

    def test_cached_second_invocation_measures_nothing(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["headline", "--scale", "ci", "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert "1 measured" in first
        assert main(["headline", "--scale", "ci", "--cache-dir", cache]) == 0
        second = capsys.readouterr().out
        assert "0 layouts measured" in second
        assert "1 hits" in second

    def test_no_cache_flag_disables_store(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(
            ["headline", "--scale", "ci", "--cache-dir", str(cache), "--no-cache"]
        ) == 0
        assert not cache.exists()


class TestSignificantBenchmarksErrors:
    def test_unexpected_errors_propagate(self, monkeypatch):
        """Only the zero-variance ModelError is screened out; real
        failures must not be silently hidden as 'not significant'."""
        from repro.errors import ModelError
        from tests.conftest import TEST_SCALE

        fresh = Laboratory(scale=TEST_SCALE, machine_seed=7)

        def boom(name):
            raise RuntimeError("measurement infrastructure broke")

        monkeypatch.setattr(fresh, "model", boom)
        with pytest.raises(RuntimeError):
            fresh.significant_benchmarks()

    def test_model_error_screens_out(self, monkeypatch):
        from repro.errors import ModelError
        from tests.conftest import TEST_SCALE

        fresh = Laboratory(scale=TEST_SCALE, machine_seed=7)

        def zero_variance(name):
            raise ModelError("regressor has zero variance")

        monkeypatch.setattr(fresh, "model", zero_variance)
        assert fresh.significant_benchmarks() == []
