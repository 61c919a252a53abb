"""Last-mile integration checks across the newest subsystems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.program.tracegen import generate_trace

from tests.test_indirect import make_dispatch_spec


class TestIndirectTraceRoundTrip:
    def test_truncation_preserves_target_alignment(self):
        spec = make_dispatch_spec()
        trace = generate_trace(spec, seed=5, n_events=600)
        short = trace.truncated(300)
        assert (short.targets == trace.targets[:300]).all()
        # Indirect events stay attached to their dispatch site.
        dispatch_gid = 0  # first site of the first procedure
        mask = short.site_ids == dispatch_gid
        assert (short.targets[mask] >= 0).all()
        assert (short.targets[~mask] == -1).all()


class TestCliMulti:
    def test_multiple_experiments_one_lab(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "ci")
        assert main(["headline", "table1"]) == 0
        out = capsys.readouterr().out
        assert "=== headline" in out
        assert "=== table1" in out

    def test_each_run_reads_its_own_scale(self, capsys, monkeypatch):
        """Every call builds its own laboratory from its flags and env."""
        for scale in ("ci", "small"):
            monkeypatch.setenv("REPRO_SCALE", scale)
            assert main(["headline"]) == 0
            assert f"scale: {scale} (" in capsys.readouterr().out

    def test_clean_run_after_a_failed_one_succeeds(self, capsys, monkeypatch):
        """A failed run's failure report does not outlive its run."""
        monkeypatch.setenv("REPRO_SCALE", "ci")
        assert main([
            "headline", "--max-retries", "0", "--deadline", "0.4",
            "--fault-plan",
            "seed=1,worker_hang=1.0,only_benchmarks=400.perlbench,hang_seconds=3",
        ]) == 1
        capsys.readouterr()
        assert main(["headline"]) == 0

    def test_no_experiment_runs_twice(self, capsys, monkeypatch, tmp_path):
        """Fig. 5 and --export reuse Fig. 4's stored linearity study."""
        from repro.mase.linearity import LinearityStudy

        calls = []
        original = LinearityStudy.run

        def counted(study, *args, **kwargs):
            calls.append(study)
            return original(study, *args, **kwargs)

        monkeypatch.setattr(LinearityStudy, "run", counted)
        out_dir = tmp_path / "out"
        assert main(["--scale", "ci", "fig4", "fig5", "--export", str(out_dir)]) == 0
        assert len(calls) == 1
        assert (out_dir / "fig4_errors.csv").exists()
        assert (out_dir / "fig5_points.csv").exists()


class TestEndToEndNormality:
    def test_most_benchmark_residuals_roughly_normal(self, lab):
        """§5.8: 'the observed CPI of most of the benchmarks roughly
        follow a normal distribution'."""
        normal = 0
        names = lab.significant_benchmarks()[:8]
        for name in names:
            result = lab.model(name).residual_normality()
            if result.looks_normal(alpha=0.01):
                normal += 1
        assert normal >= len(names) - 2
