"""Fault-injection matrix: every injected failure mode is recovered
bit-identically, and exhausted budgets yield structured reports, not
tracebacks.

The load-bearing invariant: every measurement is a pure function of
(machine seed, benchmark, layout index), so a retried read, a retried
campaign, a degraded (parallel->serial) campaign, and a re-measured
quarantined cache entry all reproduce the exact bits a fault-free run
would have produced.  These tests assert that equality literally.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import faults
from repro.core import park as park_module
from repro.core.interferometer import Interferometer
from repro.core.park import MachinePark
from repro.errors import (
    CampaignExecutionError,
    ConfigurationError,
    CorruptCampaignError,
    MeasurementTimeout,
    SuiteExecutionError,
    TransientError,
    TransientMeasurementError,
)
from repro.faults import CANNED_PLANS, FailureReport, FaultPlan, RetryPolicy
from repro.harness.lab import Laboratory, Scale
from repro.machine.counters import Counter, validate_reading
from repro.machine.pmc import CounterGroupPlan, CounterSession, PAPER_EVENTS
from repro.persistence import load_campaign
from repro.store import CampaignKey, CampaignStore, config_digest
from repro.workloads.suite import get_benchmark

from tests.test_model import _synthetic_observations

#: Tiny scale so every measured campaign is a handful of layouts.
TINY = Scale(
    name="tiny",
    n_layouts=4,
    trace_events=2500,
    mase_trace_events=2000,
    mase_configs=5,
    ltage_layouts=4,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test leaves the process-wide plan as it found the env."""
    yield
    faults.clear()


@pytest.fixture(scope="module")
def park():
    return MachinePark(n_machines=2, base_seed=9, trace_events=2500)


def assert_bit_identical(a, b):
    """Two observation sets carry literally the same measured bits."""
    assert len(a) == len(b)
    assert (a.cpis == b.cpis).all()
    assert (a.mpkis == b.mpkis).all()
    for x, y in zip(a, b):
        assert x.layout_index == y.layout_index
        assert x.layout_seed == y.layout_seed
        assert dict(x.measurement.counters) == dict(y.measurement.counters)


def _store_key(seed=7, benchmark="456.hmmer"):
    from repro.machine.system import XeonE5440

    return CampaignKey(
        benchmark=benchmark,
        trace_events=2500,
        runs_per_group=5,
        machine_seed=seed,
        config_digest=config_digest(XeonE5440(seed=seed).config),
        randomize_heap=False,
    )


class TestFaultPlanParsing:
    def test_canned_profiles(self):
        plan = FaultPlan.from_spec("flaky")
        assert plan.flaky_read == pytest.approx(0.10)
        assert FaultPlan.from_spec("chaos").worker_crash > 0
        hung = FaultPlan.from_spec("hung")
        assert hung.worker_hang > 0
        assert hung.hang_seconds == pytest.approx(20.0)
        assert set(CANNED_PLANS) == {"flaky", "chaos", "hung"}

    @pytest.mark.parametrize("spec", ["", "  ", "none", "off", "NONE"])
    def test_disabled_specs(self, spec):
        assert FaultPlan.from_spec(spec) is None

    def test_field_value_pairs(self):
        plan = FaultPlan.from_spec(
            "seed=0x7,flaky_read=0.25,hard_crash=yes,"
            "crash_benchmarks=456.hmmer+470.lbm,stall_seconds=0.5"
        )
        assert plan.seed == 7
        assert plan.flaky_read == pytest.approx(0.25)
        assert plan.hard_crash is True
        assert plan.crash_benchmarks == ("456.hmmer", "470.lbm")
        assert plan.stall_seconds == pytest.approx(0.5)

    def test_hang_fields_parsed(self):
        plan = FaultPlan.from_spec(
            "seed=2,worker_hang=0.5,hang_benchmarks=470.lbm,hang_seconds=1.5"
        )
        assert plan.worker_hang == pytest.approx(0.5)
        assert plan.hang_benchmarks == ("470.lbm",)
        assert plan.hang_seconds == pytest.approx(1.5)

    def test_forced_hang_fires_once_per_process(self):
        plan = FaultPlan(seed=1, hang_benchmarks=("470.lbm",))
        assert plan.hangs_worker("470.lbm")
        assert not plan.hangs_worker("470.lbm")  # second draw: recovered
        assert not plan.hangs_worker("456.hmmer")
        # A pickled copy — what a pool worker inherits — draws afresh.
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.hangs_worker("470.lbm")

    def test_hang_rate_is_occurrence_keyed(self):
        plan = FaultPlan(seed=3, worker_hang=0.5)
        draws = [plan.hangs_worker("456.hmmer") for _ in range(32)]
        assert any(draws) and not all(draws)
        # The same schedule replays identically in a fresh plan.
        replay = FaultPlan(seed=3, worker_hang=0.5)
        assert draws == [replay.hangs_worker("456.hmmer") for _ in range(32)]

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault plan field"):
            FaultPlan.from_spec("bogus=1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError, match="bad value"):
            FaultPlan.from_spec("flaky_read=lots")

    def test_missing_value_rejected(self):
        with pytest.raises(ConfigurationError, match="field=value"):
            FaultPlan.from_spec("flaky_read")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="must be in"):
            FaultPlan(flaky_read=1.5)
        with pytest.raises(ConfigurationError, match="must be in"):
            FaultPlan.from_spec("torn_write=-0.1")


class TestFaultPlanDecisions:
    def test_schedule_deterministic_across_instances(self):
        a = FaultPlan(seed=11, flaky_read=0.5)
        b = FaultPlan(seed=11, flaky_read=0.5)
        draws_a = [a.read_fault("k") for _ in range(64)]
        draws_b = [b.read_fault("k") for _ in range(64)]
        assert draws_a == draws_b
        assert "flaky" in draws_a  # the rate actually fires

    def test_different_seed_different_schedule(self):
        a = [FaultPlan(seed=1, flaky_read=0.5).read_fault(f"k{i}") for i in range(64)]
        b = [FaultPlan(seed=2, flaky_read=0.5).read_fault(f"k{i}") for i in range(64)]
        assert a != b

    def test_retry_draws_fresh_occurrence(self):
        """A retried operation is not doomed to refail: the occurrence
        number advances, so under a fractional rate some key eventually
        flips between consecutive draws."""
        plan = FaultPlan(seed=3, flaky_read=0.5)
        flips = sum(
            plan.read_fault("same-key") != plan.read_fault("same-key")
            for _ in range(64)
        )
        assert flips > 0

    def test_only_benchmarks_gates_faults(self):
        plan = FaultPlan(seed=1, flaky_read=1.0, only_benchmarks=("470.lbm",))
        assert plan.read_fault("k", benchmark="456.hmmer") is None
        assert plan.read_fault("k", benchmark="470.lbm") == "flaky"
        # Unknown context is fair game.
        assert plan.read_fault("k", benchmark=None) == "flaky"

    def test_crash_benchmarks_forced_and_stable(self):
        plan = FaultPlan(seed=1, crash_benchmarks=("456.hmmer",))
        assert plan.crashes_worker("456.hmmer")
        assert not plan.crashes_worker("470.lbm")
        # Rate-based crashing is per-benchmark stable (not occurrence-keyed).
        chaotic = FaultPlan(seed=5, worker_crash=0.5)
        first = [chaotic.crashes_worker(f"b{i}") for i in range(16)]
        again = [chaotic.crashes_worker(f"b{i}") for i in range(16)]
        assert first == again
        assert any(first) and not all(first)

    def test_pickled_plan_starts_fresh_schedule(self):
        plan = FaultPlan(seed=11, flaky_read=0.5)
        for _ in range(8):
            plan.read_fault("k")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone._counts == {}
        assert clone == plan  # _counts excluded from comparison

    def test_invalid_stall_seconds(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(stall_seconds=-1.0)


class TestActivePlan:
    def test_env_var_installs_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "flaky")
        faults.clear()
        plan = faults.active_plan()
        assert plan is not None
        assert plan.flaky_read == pytest.approx(0.10)

    def test_no_env_no_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        faults.clear()
        assert faults.active_plan() is None

    def test_injected_restores_prior(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        faults.clear()
        outer = FaultPlan(seed=1)
        faults.install(outer)
        with faults.injected(FaultPlan(seed=2)) as inner:
            assert faults.active_plan() is inner
        assert faults.active_plan() is outer

    def test_plan_scope_keeps_inherited_when_none(self):
        inherited = FaultPlan(seed=9)
        with faults.injected(inherited):
            with faults.plan_scope(None):
                assert faults.active_plan() is inherited
            travelling = FaultPlan(seed=10)
            with faults.plan_scope(travelling):
                assert faults.active_plan() is travelling

    def test_max_retries_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        assert faults.max_retries_from_env() == 5
        assert RetryPolicy.from_env().max_retries == 5
        monkeypatch.setenv("REPRO_MAX_RETRIES", "many")
        with pytest.raises(ConfigurationError):
            faults.max_retries_from_env()
        monkeypatch.setenv("REPRO_MAX_RETRIES", "-1")
        with pytest.raises(ConfigurationError):
            faults.max_retries_from_env()

    def test_backoff_schedule(self):
        policy = RetryPolicy(max_retries=4, backoff_base=0.1, backoff_cap=0.3)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.3)  # capped
        assert policy.delay(10) == pytest.approx(0.3)


class TestSeededJitter:
    def test_zero_jitter_preserves_legacy_schedule(self):
        policy = RetryPolicy(max_retries=4, backoff_base=0.1, backoff_cap=0.3)
        # The key is ignored without jitter: same exact exponential.
        assert policy.delay(1, key="456.hmmer") == pytest.approx(0.2)

    def test_jittered_schedule_is_deterministic(self):
        a = RetryPolicy(jitter=0.5)
        b = RetryPolicy(jitter=0.5)
        schedule = [a.delay(i, key="456.hmmer") for i in range(5)]
        assert schedule == [b.delay(i, key="456.hmmer") for i in range(5)]

    def test_different_campaigns_desynchronize(self):
        policy = RetryPolicy(jitter=1.0)
        xs = [policy.delay(i, key="456.hmmer") for i in range(6)]
        ys = [policy.delay(i, key="470.lbm") for i in range(6)]
        assert xs != ys

    def test_jittered_delays_stay_bounded(self):
        policy = RetryPolicy(jitter=1.0, backoff_base=0.05, backoff_cap=2.0)
        for attempt in range(12):
            delay = policy.delay(attempt, key="456.hmmer")
            assert policy.backoff_base <= delay <= policy.backoff_cap

    def test_jitter_seed_changes_the_schedule(self):
        a = RetryPolicy(jitter=1.0, jitter_seed=1)
        b = RetryPolicy(jitter=1.0, jitter_seed=2)
        assert [a.delay(i, key="x") for i in range(6)] != [
            b.delay(i, key="x") for i in range(6)
        ]

    def test_jitter_validated(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_total_cap=-1.0)

    def test_total_backoff_cap_clips_cumulative_sleep(self):
        policy = RetryPolicy(
            backoff_base=10.0, backoff_cap=10.0, backoff_total_cap=0.0
        )
        assert policy.sleep(0, key="x") == 0.0
        partial = RetryPolicy(
            backoff_base=10.0, backoff_cap=10.0, backoff_total_cap=0.02
        )
        assert partial.sleep(0, key="x") == pytest.approx(0.02)
        assert partial.sleep(0, key="x", already_slept=0.02) == 0.0


class TestReadValidation:
    def test_validate_reading_accepts_plausible(self):
        validate_reading(
            {Counter.CYCLES: 100, Counter.INSTRUCTIONS: 80,
             Counter.BRANCH_MISPREDICTS: 3}
        )

    @pytest.mark.parametrize(
        "reading",
        [
            {Counter.INSTRUCTIONS: 80},  # missing cycles
            {Counter.CYCLES: 0, Counter.INSTRUCTIONS: 80},
            {Counter.CYCLES: 100},  # missing instructions
            {Counter.CYCLES: 100, Counter.INSTRUCTIONS: -1},
            {Counter.CYCLES: 100, Counter.INSTRUCTIONS: 80,
             Counter.L2_MISSES: -4},
        ],
    )
    def test_validate_reading_rejects_impossible(self, reading):
        with pytest.raises(TransientMeasurementError):
            validate_reading(reading)


class TestReadLevelRecovery:
    """CounterSession absorbs transient read faults bit-identically."""

    @pytest.fixture(scope="class")
    def executable(self, machine):
        interferometer = Interferometer(machine, trace_events=2500)
        return interferometer.build_executable(get_benchmark("456.hmmer"), 0)

    @pytest.fixture(scope="class")
    def group(self):
        return CounterGroupPlan.for_events(PAPER_EVENTS).groups[0]

    def test_flaky_reads_rereads_bit_identically(self, machine, executable, group):
        clean = CounterSession(machine, benchmark="456.hmmer").read(
            executable, group, run_key="g0/r0"
        )
        with faults.injected(FaultPlan(seed=11, flaky_read=0.5)):
            session = CounterSession(machine, benchmark="456.hmmer")
            faulty = [
                session.read(executable, group, run_key="g0/r0")
                for _ in range(8)
            ]
        assert session.retried_reads > 0  # faults actually fired
        assert all(dict(r) == dict(clean) for r in faulty)

    def test_garbled_reads_rejected_and_reread(self, machine, executable, group):
        clean = CounterSession(machine, benchmark="456.hmmer").read(
            executable, group, run_key="g0/r0"
        )
        with faults.injected(FaultPlan(seed=4, garbled_read=0.5)):
            session = CounterSession(machine, benchmark="456.hmmer")
            faulty = [
                session.read(executable, group, run_key="g0/r0")
                for _ in range(8)
            ]
        assert session.retried_reads > 0
        assert all(dict(r) == dict(clean) for r in faulty)

    def test_stalled_read_raises_timeout(self, machine, executable, group):
        with faults.injected(FaultPlan(seed=2, stalled_read=1.0)):
            session = CounterSession(
                machine, max_read_retries=2, benchmark="456.hmmer"
            )
            with pytest.raises(TransientMeasurementError) as err:
                session.read(executable, group, run_key="g0/r0")
        assert isinstance(err.value.__cause__, MeasurementTimeout)

    def test_exhausted_rereads_escalate(self, machine, executable, group):
        with faults.injected(FaultPlan(seed=2, flaky_read=1.0)):
            session = CounterSession(
                machine, max_read_retries=3, benchmark="456.hmmer"
            )
            with pytest.raises(TransientMeasurementError, match="re-reads"):
                session.read(executable, group, run_key="g0/r0")
        assert session.retried_reads == 4  # initial + 3 re-reads, all failed

    def test_negative_retry_budget_rejected(self, machine):
        from repro.errors import MeasurementError

        with pytest.raises(MeasurementError):
            CounterSession(machine, max_read_retries=-1)

    def test_campaign_under_flaky_plan_bit_identical(self, machine):
        bench = get_benchmark("456.hmmer")
        clean = Interferometer(machine, trace_events=2500).observe(
            bench, n_layouts=2
        )
        with faults.injected(
            FaultPlan(seed=17, flaky_read=0.15, garbled_read=0.05)
        ):
            faulty = Interferometer(machine, trace_events=2500).observe(
                bench, n_layouts=2
            )
        assert_bit_identical(clean, faulty)


class TestStoreHardening:
    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.save(_store_key(), _synthetic_observations(n=4, benchmark="456.hmmer"))
        assert not sorted(tmp_path.glob("*.tmp.*"))

    def test_torn_write_quarantined_on_load(self, tmp_path):
        store = CampaignStore(tmp_path)
        key = _store_key()
        original = _synthetic_observations(n=4, benchmark="456.hmmer")
        with faults.injected(FaultPlan(seed=1, torn_write=1.0)):
            store.save(key, original)
        # The torn payload parses as nothing useful: quarantined, a miss.
        assert store.load(key) is None
        assert store.stats.quarantined == 1
        assert sorted(tmp_path.glob("*.corrupt-*"))
        assert not store.path_for(key).exists()
        # A clean re-save round-trips.
        store.save(key, original)
        reloaded = store.load(key)
        assert reloaded is not None
        assert (reloaded.cpis == original.cpis).all()

    def test_checksum_catches_inplace_edit(self, tmp_path):
        """Corruption that still parses as JSON is caught by the payload
        checksum, quarantined, and re-measured — never served."""
        store = CampaignStore(tmp_path)
        key = _store_key()
        store.save(key, _synthetic_observations(n=4, benchmark="456.hmmer"))
        path = store.path_for(key)
        payload = json.loads(path.read_text())
        payload["observations"][0]["counters"][Counter.CYCLES.value] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptCampaignError, match="checksum"):
            load_campaign(path)
        assert store.load(key) is None
        assert store.stats.quarantined == 1

    def test_garbage_file_is_a_miss_not_a_crash(self, tmp_path):
        store = CampaignStore(tmp_path)
        key = _store_key()
        store.path_for(key).write_text("}} not json {{")
        assert store.load(key) is None  # no JSONDecodeError escapes
        quarantined = sorted(tmp_path.glob("*.corrupt-*"))
        assert len(quarantined) == 1
        # The campaign is then a miss, re-measured and persisted cleanly.
        assert len(store.load_prefix(key, 4)) == 0
        store.save(key, _synthetic_observations(n=4, benchmark="456.hmmer"))
        assert store.load(key) is not None

    def test_quarantine_round_trip_through_laboratory(self, tmp_path):
        """Satellite: a corrupted cache entry surfaces as a re-measured,
        bit-identical campaign — Laboratory.observations never sees the
        JSONDecodeError."""
        first = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        baseline = first.observations("456.hmmer")
        key = first._campaign_key("456.hmmer", heap=False)
        path = first.store.path_for(key)
        path.write_text(path.read_text()[: path.stat().st_size // 2])

        lab = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        recovered = lab.observations("456.hmmer")
        assert lab.store.stats.quarantined == 1
        assert lab.store.stats.misses == 1
        assert_bit_identical(baseline, recovered)
        # The quarantined artifact is preserved for forensics...
        assert sorted(tmp_path.glob("*.corrupt-*"))
        # ...and the re-measured campaign was re-persisted cleanly.
        assert lab.store.load(key) is not None


class TestCampaignSupervision:
    def test_transient_failure_recovered_bit_identically(self, monkeypatch):
        baseline = Laboratory(scale=TINY, machine_seed=7).observations("456.hmmer")
        lab = Laboratory(scale=TINY, machine_seed=7, max_retries=2)
        lab.retry_policy = RetryPolicy(max_retries=2, backoff_base=0.0)
        original = park_module._run_campaign
        failures = iter([True, False])

        def flaky_once(spec):
            if next(failures):
                raise TransientMeasurementError("injected campaign fault")
            return original(spec)

        monkeypatch.setattr(park_module, "_run_campaign", flaky_once)
        recovered = lab.observations("456.hmmer")
        assert_bit_identical(baseline, recovered)
        assert [i.status for i in lab.failure_report.incidents] == ["recovered"]
        assert lab.failure_report.recovered[0].attempts == 2
        assert lab.failure_report.ok

    def test_exhausted_budget_raises_structured_error(self):
        lab = Laboratory(scale=TINY, machine_seed=7, max_retries=1)
        lab.retry_policy = RetryPolicy(max_retries=1, backoff_base=0.0)
        with faults.injected(FaultPlan(seed=3, flaky_read=1.0)):
            with pytest.raises(CampaignExecutionError) as err:
                lab.observations("456.hmmer")
        assert err.value.benchmark == "456.hmmer"
        assert err.value.attempts == 2  # initial + 1 retry
        report = lab.failure_report
        assert not report.ok
        assert report.failed[0].benchmark == "456.hmmer"
        assert "456.hmmer" in report.render()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_fail_fast_prefetch_raises_suite_error(self, workers):
        """A fail-fast prefetch raises the same error with or without
        worker processes."""
        lab = Laboratory(
            scale=TINY, machine_seed=7, fail_fast=True, workers=workers
        )
        lab.retry_policy = RetryPolicy(max_retries=0, backoff_base=0.0)
        plan = FaultPlan(seed=3, flaky_read=1.0, only_benchmarks=("456.hmmer",))
        with faults.injected(plan):
            with pytest.raises(SuiteExecutionError) as err:
                lab.prefetch(["456.hmmer", "470.lbm"])
        assert [i.benchmark for i in err.value.report.failed] == ["456.hmmer"]

    def test_suite_failure_names_every_campaign(self, park):
        plan = FaultPlan(seed=1, flaky_read=1.0, only_benchmarks=("470.lbm",))
        with faults.injected(plan):
            with pytest.raises(SuiteExecutionError) as err:
                park.observe_suite(
                    ["456.hmmer", "470.lbm"], n_layouts=2, max_retries=0
                )
        report = err.value.report
        assert [i.benchmark for i in report.failed] == ["470.lbm"]
        assert "failed" in str(err.value)

    def test_suite_with_report_returns_survivors(self, park):
        plan = FaultPlan(seed=1, flaky_read=1.0, only_benchmarks=("470.lbm",))
        report = FailureReport()
        with faults.injected(plan):
            results = park.observe_suite(
                ["456.hmmer", "470.lbm"], n_layouts=2, max_retries=0,
                report=report,
            )
        assert set(results) == {"456.hmmer"}  # the casualty is absent, not fatal
        assert [i.benchmark for i in report.failed] == ["470.lbm"]

    def test_fail_fast_aborts_immediately(self, park):
        plan = FaultPlan(seed=1, flaky_read=1.0)
        with faults.injected(plan):
            with pytest.raises(SuiteExecutionError):
                park.observe_suite(
                    ["456.hmmer"], n_layouts=2, max_retries=0, fail_fast=True
                )

    def test_incident_statuses_validated(self):
        with pytest.raises(ConfigurationError):
            FailureReport().record("x", "exploded", attempts=1, error="boom")

    def test_report_rendering(self):
        report = FailureReport()
        report.record("456.hmmer", "recovered", attempts=2, error="flaky")
        report.record("470.lbm", "failed", attempts=3, error="dead", heap=True)
        text = report.render()
        assert "1 recovered, 0 degraded, 1 failed" in text
        assert "RECOVERED 456.hmmer" in text
        assert "FAILED 470.lbm (heap)" in text
        assert not report.ok and bool(report)


class TestGracefulDegradation:
    def test_worker_crash_degrades_to_serial(self, park):
        baseline = park.observe_suite(["456.hmmer", "445.gobmk"], n_layouts=3)
        plan = FaultPlan(seed=1, crash_benchmarks=("445.gobmk",))
        report = FailureReport()
        with faults.injected(plan):
            results = park.observe_suite(
                ["456.hmmer", "445.gobmk"], n_layouts=3, workers=2,
                report=report,
            )
        assert report.ok
        assert [i.benchmark for i in report.degraded] == ["445.gobmk"]
        for name in baseline:
            assert_bit_identical(baseline[name], results[name])

    def test_hard_crash_breaks_pool_but_not_suite(self, park):
        """os._exit in a worker kills the pool (BrokenProcessPool); every
        affected campaign re-runs serially and the suite still completes
        bit-identically."""
        baseline = park.observe_suite(["456.hmmer", "470.lbm"], n_layouts=2)
        plan = FaultPlan(
            seed=1, crash_benchmarks=("456.hmmer",), hard_crash=True
        )
        report = FailureReport()
        with faults.injected(plan):
            results = park.observe_suite(
                ["456.hmmer", "470.lbm"], n_layouts=2, workers=1,
                report=report,
            )
        assert report.degraded  # at least the crashed campaign degraded
        assert report.ok
        assert set(results) == {"456.hmmer", "470.lbm"}
        for name in baseline:
            assert_bit_identical(baseline[name], results[name])

    def test_broken_pool_with_multiple_campaigns_in_flight(self, park):
        """Two hard crashers among three campaigns: each pool break is
        attributed to its offender (degraded + serial recovery), the
        bystander keeps its parallelism in a fresh pool, and the whole
        suite completes bit-identically."""
        names = ["456.hmmer", "445.gobmk", "470.lbm"]
        baseline = park.observe_suite(names, n_layouts=3)
        plan = FaultPlan(
            seed=1, crash_benchmarks=("456.hmmer", "445.gobmk"),
            hard_crash=True,
        )
        report = FailureReport()
        with faults.injected(plan):
            results = park.observe_suite(
                names, n_layouts=3, workers=2, report=report
            )
        assert report.ok
        assert set(results) == set(names)
        assert {i.benchmark for i in report.degraded} == {
            "456.hmmer", "445.gobmk",
        }
        # Two consecutive pool failures stay under the default threshold.
        assert report.breaker_tripped is None
        for name in names:
            assert_bit_identical(baseline[name], results[name])


class TestAcceptanceMatrix:
    def test_flaky_reads_worker_crash_and_corrupt_cache(self, tmp_path):
        """The issue's acceptance scenario: >=10% flaky counter reads, one
        worker crash, and one corrupted cache file — observe_suite over 3
        benchmarks completes, bit-identical to a fault-free run."""
        names = ["456.hmmer", "445.gobmk", "470.lbm"]
        baseline_lab = Laboratory(scale=TINY, machine_seed=7)
        baseline = {name: baseline_lab.observations(name) for name in names}

        # Seed the cache with one campaign, then corrupt it in place
        # (the others stay unstored so the park actually measures them).
        seeder = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        seeder.observations("470.lbm")
        victim = seeder.store.path_for(
            seeder._campaign_key("470.lbm", heap=False)
        )
        victim.write_text(victim.read_text()[:40])

        plan = FaultPlan(
            seed=0xACCE, flaky_read=0.12, crash_benchmarks=("445.gobmk",)
        )
        lab = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path, workers=2)
        with faults.injected(plan):
            lab.prefetch(names)
            results = {name: lab.observations(name) for name in names}

        for name in names:
            assert_bit_identical(baseline[name], results[name])
        assert lab.store.stats.quarantined == 1
        assert lab.failure_report.ok
        assert [i.benchmark for i in lab.failure_report.degraded] == ["445.gobmk"]
        # The re-measured campaign replaced the corrupt cache entry.
        reloaded = lab.store.load(lab._campaign_key("470.lbm", heap=False))
        assert reloaded is not None
        assert_bit_identical(baseline["470.lbm"], reloaded)


class TestCliFaults:
    def test_bad_fault_plan_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["headline", "--fault-plan", "bogus=1"]) == 2
        assert "--fault-plan" in capsys.readouterr().err

    def test_negative_max_retries_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["headline", "--max-retries", "-1"]) == 2
        assert "--max-retries" in capsys.readouterr().err

    def test_help_documents_exit_codes(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "partial failure" in out

    def test_flaky_profile_absorbed_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["headline", "--scale", "ci", "--fault-plan", "flaky"]) == 0

    def test_exhausted_budget_exits_one_with_report(self, capsys):
        from repro.cli import main

        code = main(
            [
                "headline", "--scale", "ci", "--max-retries", "0",
                "--fault-plan",
                "seed=3,flaky_read=1.0,only_benchmarks=400.perlbench",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.out
        assert "400.perlbench" in captured.out
        assert "partial failure" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_plan_does_not_leak_out_of_main(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        faults.clear()
        assert main(["headline", "--scale", "ci", "--fault-plan", "flaky"]) == 0
        assert faults.active_plan() is None
