"""Tests for the sample-escalation protocol (§6.3): ``Laboratory.escalate``."""

from __future__ import annotations

import pytest

from repro import faults
from repro.core.escalation import ALPHA, MAX_ROUNDS
from repro.core.supervise import ShutdownHandler
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.harness.lab import Laboratory
from repro.persistence import dump_campaign

from tests.conftest import TEST_SCALE
from tests.test_store import TINY

#: At TINY scale (machine seed 7) none of these passes the t-test in
#: round 1; 429.mcf crashes its pool worker under the ``flaky`` plan.
ESCALATING = ["429.mcf", "410.bwaves", "433.milc"]


@pytest.fixture(scope="module")
def escalated():
    # Longer traces than the store tests use: at very short trace
    # lengths even the branch-insensitive benchmarks show spurious
    # correlation.
    lab = Laboratory(scale=TEST_SCALE, machine_seed=7)
    return lab, lab.escalate(["445.gobmk", "470.lbm", "410.bwaves"])


def _bits(results):
    """Everything an escalation produced, as comparable bytes."""
    return {
        name: (result.p_values, dump_campaign(result.observations))
        for name, result in results.items()
    }


class TestEscalation:
    def test_sensitive_benchmark_stops_early(self, escalated):
        _, results = escalated
        result = results["445.gobmk"]
        assert result.significant
        assert result.samples_used == TEST_SCALE.n_layouts
        assert result.rounds == 1

    def test_insensitive_benchmark_exhausts_budget(self, escalated):
        _, results = escalated
        result = results["470.lbm"]
        assert not result.significant
        assert result.samples_used == MAX_ROUNDS * TEST_SCALE.n_layouts
        assert result.rounds == MAX_ROUNDS

    def test_all_data_kept(self, escalated):
        lab, results = escalated
        result = results["410.bwaves"]
        indices = [obs.layout_index for obs in result.observations]
        assert indices == list(range(result.samples_used))
        # The ordinary campaign is the first round, unchanged.
        head = result.observations.observations[: TEST_SCALE.n_layouts]
        assert head == lab.observations("410.bwaves").observations

    def test_p_values_recorded(self, escalated):
        _, results = escalated
        result = results["470.lbm"]
        assert len(result.p_values) == result.rounds
        assert all(0.0 <= p <= 1.0 for p in result.p_values)

    def test_validation(self):
        lab = Laboratory(scale=TINY, machine_seed=7)
        with pytest.raises(ReproError, match="unknown benchmark"):
            lab.escalate(["nope"])

    def test_rounds_are_logged_at_their_size(self, escalated):
        lab, _ = escalated
        rounds = [
            (r.n_layouts, r.measured)
            for r in lab.campaign_log
            if r.benchmark == "470.lbm"
        ]
        n = TEST_SCALE.n_layouts
        # No store: each round resumes from the campaign in memory.
        assert rounds == [(n, n), (2 * n, n), (3 * n, n)]
        # Every export still reads exactly the scale's layouts.
        assert len(lab.observations("470.lbm")) == n

    def test_first_round_verdicts_match_significant_benchmarks(self):
        lab = Laboratory(scale=TINY, machine_seed=7)
        results = lab.escalate()
        first_round = [n for n, r in results.items() if r.p_values[0] <= ALPHA]
        assert first_round == lab.significant_benchmarks()
        assert first_round == Laboratory(
            scale=TINY, machine_seed=7
        ).significant_benchmarks()
        assert all(r.rounds == 1 for n, r in results.items() if n in first_round)


class TestEscalatedCampaignsAreOrdinary:
    """Escalation rounds run on the one campaign path, with everything
    that path guarantees."""

    def test_workers_bit_identical(self):
        serial = Laboratory(scale=TINY, machine_seed=7).escalate(ESCALATING)
        pooled = Laboratory(scale=TINY, machine_seed=7, workers=2).escalate(
            ESCALATING
        )
        assert _bits(pooled) == _bits(serial)
        assert any(r.rounds > 1 for r in serial.values())

    def test_flaky_fault_plan_equals_clean_run(self, tmp_path):
        clean = _bits(Laboratory(scale=TINY, machine_seed=7).escalate(ESCALATING))
        lab = Laboratory(scale=TINY, machine_seed=7, workers=2, cache_dir=tmp_path)
        with faults.injected(FaultPlan.from_spec("flaky")):
            flaky = _bits(lab.escalate(ESCALATING))
        assert flaky == clean
        assert any(i.status == "degraded" for i in lab.failure_report.incidents)
        # A torn write is quarantined on the next read and re-measured.
        rerun = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        with faults.injected(None):
            assert _bits(rerun.escalate(ESCALATING)) == clean
        assert rerun.store.stats.quarantined >= 1

    def test_rerun_on_same_store_measures_nothing(self, tmp_path):
        # Intact writes only: a torn one is re-measured on the rerun
        # (the flaky-plan test above covers that path).
        with faults.injected(None):
            first = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
            results = first.escalate(ESCALATING)
            again = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
            assert _bits(again.escalate(ESCALATING)) == _bits(results)
        assert again.store.stats.layouts_measured == 0
        assert all(record.measured == 0 for record in again.campaign_log)

    def test_drain_during_a_round_starts_no_further_round(self):
        shutdown = ShutdownHandler()
        lab = Laboratory(scale=TINY, machine_seed=7, shutdown=shutdown)

        def drain_at_last_campaign(record):
            if len(lab.campaign_log) == len(ESCALATING):
                shutdown.request()

        lab.on_campaign = drain_at_last_campaign
        results = lab.escalate(ESCALATING)
        assert list(results) == ESCALATING
        assert all(r.rounds == 1 and not r.significant for r in results.values())
        assert {r.n_layouts for r in lab.campaign_log} == {TINY.n_layouts}

    def test_drain_mid_round_keeps_only_completed_campaigns(self):
        shutdown = ShutdownHandler()
        lab = Laboratory(scale=TINY, machine_seed=7, shutdown=shutdown)
        lab.on_campaign = lambda record: shutdown.request()
        results = lab.escalate(ESCALATING)
        assert list(results) == ESCALATING[:1]
        assert len(lab.campaign_log) == 1
