"""Fault-injection matrix: every injected failure mode is recovered
bit-identically, and exhausted budgets yield structured reports, not
tracebacks.

The load-bearing invariant: every measurement is a pure function of
(machine seed, benchmark, layout index), so a retried campaign, a
degraded (parallel->serial) campaign, and a re-measured quarantined
cache entry all reproduce the exact bits a fault-free run would have
produced.  These tests assert that equality literally.
"""

from __future__ import annotations

import json
import logging
import pickle
import re

import pytest

from repro import faults
from repro.core import park as park_module
from repro.core.park import observe_suite
from repro.errors import (
    CampaignExecutionError,
    ConfigurationError,
    SuiteExecutionError,
    TransientError,
)
from repro.faults import CANNED_PLANS, FailureReport, FaultPlan, RetryPolicy
from repro.harness.lab import Laboratory, Scale
from repro.machine.config import XeonE5440Config
from repro.machine.counters import Counter
from repro.store import CampaignKey, CampaignStore

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

#: A hang long enough that any test deadline sees a genuine hang, short
#: enough that abandoned watchdog threads cannot outlive the test run.
HANG = 3.0
DEADLINE = 0.4


def hang_plan(*benchmarks: str) -> FaultPlan:
    """A plan that hangs every execution of *benchmarks*' campaigns
    (of every campaign when none is named)."""
    return FaultPlan(
        seed=3, worker_hang=1.0, only_benchmarks=benchmarks, hang_seconds=HANG
    )


#: Retry policy under which one hung execution fails its campaign.
NO_RETRY_DEADLINE = RetryPolicy(
    max_retries=0, backoff_base=0.0, deadline_seconds=DEADLINE
)

#: Lines of CLI output that carry host timings (as perfbench normalises).
TIMING_LINE = re.compile(r"layouts/s|\([0-9.]+s\)")


def rendered_results(stdout: str) -> str:
    """The experiment results of a CLI run: timing lines, the run header
    and the run summary (store counts, failure report) dropped."""
    text = "".join(
        line
        for line in stdout.splitlines(keepends=True)
        if not TIMING_LINE.search(line)
    )
    return "\n\n".join(
        paragraph
        for paragraph in text.split("\n\n")
        if paragraph.strip()
        and not paragraph.startswith(("scale:", "campaign", "failure report"))
    )


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test leaves the process-wide plan as it found the env."""
    yield
    faults.clear()


def campaign_keys(*names, seed=9, heap=False, config=None):
    """The keys of *names*' campaigns on one machine at ``TINY``'s trace
    length."""
    return [
        CampaignKey(
            benchmark=name,
            trace_events=TINY.trace_events,
            runs_per_group=5,
            machine_seed=seed,
            config=XeonE5440Config() if config is None else config,
            randomize_heap=heap,
        )
        for name in names
    ]


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
    [key] = campaign_keys(benchmark, seed=seed)
    return key


class TestFaultPlanParsing:
    def test_canned_profiles(self):
        plan = FaultPlan.from_spec("flaky")
        assert plan.torn_write == pytest.approx(0.10)
        assert plan.worker_crash == pytest.approx(0.10)
        chaos = FaultPlan.from_spec("chaos")
        assert chaos.torn_write > plan.torn_write
        assert chaos.worker_crash > plan.worker_crash
        hung = FaultPlan.from_spec("hung")
        assert hung.worker_hang > 0
        assert hung.hang_seconds == pytest.approx(20.0)
        assert set(CANNED_PLANS) == {"flaky", "chaos", "hung"}

    @pytest.mark.parametrize("spec", ["", "  ", "none", "off", "NONE"])
    def test_disabled_specs(self, spec):
        assert FaultPlan.from_spec(spec) is None

    def test_field_value_pairs(self):
        plan = FaultPlan.from_spec(
            "seed=0x7,torn_write=0.25,hard_crash=yes,"
            "crash_benchmarks=456.hmmer+470.lbm,only_benchmarks=252.eon"
        )
        assert plan.seed == 7
        assert plan.torn_write == pytest.approx(0.25)
        assert plan.hard_crash is True
        assert plan.crash_benchmarks == ("456.hmmer", "470.lbm")
        assert plan.only_benchmarks == ("252.eon",)  # MASE-only names count

    @pytest.mark.parametrize(
        "value, expected",
        [("1", True), ("TRUE", True), ("on", True),
         ("0", False), ("false", False), ("No", False), ("off", False)],
    )
    def test_hard_crash_spellings(self, value, expected):
        assert FaultPlan.from_spec(f"hard_crash={value}").hard_crash is expected

    def test_misspelt_boolean_rejected(self):
        with pytest.raises(ConfigurationError, match="hard_crash"):
            FaultPlan.from_spec("hard_crash=ture")

    @pytest.mark.parametrize(
        "field", ["crash_benchmarks", "hang_benchmarks", "only_benchmarks"]
    )
    def test_unknown_benchmark_rejected(self, field):
        """A misspelt name would otherwise parse and never fire."""
        with pytest.raises(ConfigurationError, match="400.perlbnch"):
            FaultPlan.from_spec(f"{field}=470.lbm+400.perlbnch")

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
            FaultPlan.from_spec("torn_write=lots")

    def test_missing_value_rejected(self):
        with pytest.raises(ConfigurationError, match="field=value"):
            FaultPlan.from_spec("torn_write")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="must be in"):
            FaultPlan(worker_crash=1.5)
        with pytest.raises(ConfigurationError, match="must be in"):
            FaultPlan.from_spec("torn_write=-0.1")


PAYLOAD = "{" + "x" * 62 + "}"


def tears(plan: FaultPlan, key: str, benchmark: str | None = None) -> bool:
    """One torn-write decision: whether *plan* tears this store write."""
    return plan.torn_payload(PAYLOAD, key, benchmark=benchmark) != PAYLOAD


class TestFaultPlanDecisions:
    def test_schedule_deterministic_across_instances(self):
        a = FaultPlan(seed=11, torn_write=0.5)
        b = FaultPlan(seed=11, torn_write=0.5)
        draws_a = [tears(a, "k") for _ in range(64)]
        draws_b = [tears(b, "k") for _ in range(64)]
        assert draws_a == draws_b
        assert any(draws_a)  # the rate actually fires

    def test_different_seed_different_schedule(self):
        a = [tears(FaultPlan(seed=1, torn_write=0.5), f"k{i}") for i in range(64)]
        b = [tears(FaultPlan(seed=2, torn_write=0.5), f"k{i}") for i in range(64)]
        assert a != b

    def test_retry_draws_fresh_occurrence(self):
        """A retried operation is not doomed to refail: the occurrence
        number advances, so under a fractional rate some key eventually
        flips between consecutive draws."""
        plan = FaultPlan(seed=3, torn_write=0.5)
        flips = sum(
            tears(plan, "same-key") != tears(plan, "same-key")
            for _ in range(64)
        )
        assert flips > 0

    def test_only_benchmarks_gates_faults(self):
        plan = FaultPlan(
            seed=1, torn_write=1.0, worker_crash=1.0, worker_hang=1.0,
            only_benchmarks=("470.lbm",),
        )
        assert not tears(plan, "k", benchmark="456.hmmer")
        assert not plan.crashes_worker("456.hmmer")
        assert not plan.hangs_worker("456.hmmer")
        assert tears(plan, "k", benchmark="470.lbm")
        assert plan.crashes_worker("470.lbm")
        assert plan.hangs_worker("470.lbm")
        # Unknown context is fair game.
        assert tears(plan, "k", benchmark=None)

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
        plan = FaultPlan(seed=11, torn_write=0.5)
        for _ in range(8):
            tears(plan, "k")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone._counts == {}
        assert clone == plan  # _counts excluded from comparison

    def test_invalid_hang_seconds(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(hang_seconds=-1.0)


class TestActivePlan:
    def test_env_var_installs_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "flaky")
        faults.clear()
        plan = faults.active_plan()
        assert plan is not None
        assert plan == FaultPlan.from_spec(CANNED_PLANS["flaky"])

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

    def test_backoff_schedule(self):
        policy = RetryPolicy(max_retries=4, backoff_base=0.1, backoff_cap=0.3)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.3)  # capped
        assert policy.delay(10) == pytest.approx(0.3)

    def test_total_backoff_cap_clips_cumulative_sleep(self, monkeypatch):
        policy = RetryPolicy(backoff_base=10.0, backoff_cap=10.0)
        monkeypatch.setattr(faults, "BACKOFF_TOTAL_CAP", 0.0)
        assert policy.sleep(0) == 0.0
        monkeypatch.setattr(faults, "BACKOFF_TOTAL_CAP", 0.02)
        assert policy.sleep(0) == pytest.approx(0.02)
        assert policy.sleep(0, already_slept=0.02) == 0.0


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

    def test_checksum_catches_inplace_edit(self, tmp_path, caplog):
        """Corruption that still parses as JSON is caught by the payload
        checksum, quarantined, and re-measured — never served."""
        store = CampaignStore(tmp_path)
        key = _store_key()
        store.save(key, _synthetic_observations(n=4, benchmark="456.hmmer"))
        path = store.path_for(key)
        payload = json.loads(path.read_text())
        payload["observations"][0]["counters"][Counter.CYCLES.value] += 1
        path.write_text(json.dumps(payload))
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            assert store.load(key) is None
        assert store.stats.quarantined == 1
        [record] = caplog.records
        assert "checksum mismatch" in record.getMessage()

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
        key = first.campaign_key("456.hmmer", heap=False)
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
                raise TransientError("injected campaign fault")
            return original(spec)

        monkeypatch.setattr(park_module, "_run_campaign", flaky_once)
        recovered = lab.observations("456.hmmer")
        assert_bit_identical(baseline, recovered)
        assert [i.status for i in lab.failure_report.incidents] == ["recovered"]
        assert lab.failure_report.recovered[0].attempts == 2
        assert lab.failure_report.ok

    def test_exhausted_budget_raises_structured_error(self):
        lab = Laboratory(scale=TINY, machine_seed=7, max_retries=1)
        lab.retry_policy = RetryPolicy(
            max_retries=1, backoff_base=0.0, deadline_seconds=DEADLINE
        )
        with faults.injected(hang_plan()):
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
        lab.retry_policy = NO_RETRY_DEADLINE
        with faults.injected(hang_plan("456.hmmer")):
            with pytest.raises(SuiteExecutionError) as err:
                lab.prefetch(["456.hmmer", "470.lbm"])
        assert [i.benchmark for i in err.value.report.failed] == ["456.hmmer"]

    def test_suite_failure_names_every_campaign(self):
        with faults.injected(hang_plan("470.lbm")):
            with pytest.raises(SuiteExecutionError) as err:
                observe_suite(
                    campaign_keys("456.hmmer", "470.lbm"), 2,
                    retry_policy=NO_RETRY_DEADLINE,
                )
        report = err.value.report
        assert [i.benchmark for i in report.failed] == ["470.lbm"]
        assert "failed" in str(err.value)

    def test_suite_with_report_returns_survivors(self):
        hmmer, lbm = campaign_keys("456.hmmer", "470.lbm")
        report = FailureReport()
        with faults.injected(hang_plan("470.lbm")):
            results = observe_suite(
                [hmmer, lbm], 2,
                retry_policy=NO_RETRY_DEADLINE, report=report,
            )
        assert set(results) == {hmmer}  # the casualty is absent, not fatal
        assert [i.benchmark for i in report.failed] == ["470.lbm"]

    def test_fail_fast_aborts_immediately(self):
        with faults.injected(hang_plan()):
            with pytest.raises(SuiteExecutionError):
                observe_suite(
                    campaign_keys("456.hmmer"), 2,
                    retry_policy=NO_RETRY_DEADLINE, fail_fast=True,
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
    def test_worker_crash_degrades_to_serial(self):
        keys = campaign_keys("456.hmmer", "445.gobmk")
        baseline = observe_suite(keys, 3)
        plan = FaultPlan(seed=1, crash_benchmarks=("445.gobmk",))
        report = FailureReport()
        with faults.injected(plan):
            results = observe_suite(keys, 3, workers=2, report=report)
        assert report.ok
        assert [i.benchmark for i in report.degraded] == ["445.gobmk"]
        for key in keys:
            assert_bit_identical(baseline[key], results[key])

    def test_hard_crash_breaks_pool_but_not_suite(self):
        """os._exit in a worker kills the pool (BrokenProcessPool); every
        affected campaign re-runs serially and the suite still completes
        bit-identically."""
        keys = campaign_keys("456.hmmer", "470.lbm")
        baseline = observe_suite(keys, 2)
        plan = FaultPlan(
            seed=1, crash_benchmarks=("456.hmmer",), hard_crash=True
        )
        report = FailureReport()
        with faults.injected(plan):
            results = observe_suite(keys, 2, workers=1, report=report)
        assert report.degraded  # at least the crashed campaign degraded
        assert report.ok
        assert set(results) == set(keys)
        for key in keys:
            assert_bit_identical(baseline[key], results[key])

    def test_broken_pool_with_multiple_campaigns_in_flight(self):
        """Two hard crashers among three campaigns: each pool break is
        attributed to its offender (degraded + serial recovery), the
        bystander keeps its parallelism in a fresh pool, and the whole
        suite completes bit-identically."""
        keys = campaign_keys("456.hmmer", "445.gobmk", "470.lbm")
        baseline = observe_suite(keys, 3)
        plan = FaultPlan(
            seed=1, crash_benchmarks=("456.hmmer", "445.gobmk"),
            hard_crash=True,
        )
        report = FailureReport()
        with faults.injected(plan):
            results = observe_suite(keys, 3, workers=2, report=report)
        assert report.ok
        assert set(results) == set(keys)
        assert {i.benchmark for i in report.degraded} == {
            "456.hmmer", "445.gobmk",
        }
        # Two consecutive pool failures stay under the default threshold.
        assert report.breaker_tripped is None
        for key in keys:
            assert_bit_identical(baseline[key], results[key])


class TestAcceptanceMatrix:
    def test_torn_writes_worker_crash_and_corrupt_cache(self, tmp_path):
        """The acceptance scenario: torn store writes, one worker crash,
        and one corrupted cache file — observe_suite over 3 benchmarks
        completes bit-identical to a fault-free run, and a rerun on the
        same store quarantines the torn writes and re-measures them
        bit-identically."""
        names = ["456.hmmer", "445.gobmk", "470.lbm"]
        baseline_lab = Laboratory(scale=TINY, machine_seed=7)
        baseline = {name: baseline_lab.observations(name) for name in names}

        # Seed the cache with one campaign, then corrupt it in place
        # (the others stay unstored so the suite actually measures them).
        seeder = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        with faults.injected(None):
            seeder.observations("470.lbm")
        victim = seeder.store.path_for(
            seeder.campaign_key("470.lbm", heap=False)
        )
        victim.write_text(victim.read_text()[:40])

        plan = FaultPlan(
            seed=0xACCE, torn_write=0.5, crash_benchmarks=("445.gobmk",)
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

        # The rerun loads every campaign once: the torn writes are
        # quarantined and re-measured, the rest are served from disk.
        rerun = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        with faults.injected(None):
            reloaded = {name: rerun.observations(name) for name in names}
        stats = rerun.store.stats
        assert stats.quarantined >= 1  # the plan actually tore a write
        assert stats.quarantined + stats.hits == len(names)
        assert len(sorted(tmp_path.glob("*.corrupt-*"))) == 1 + stats.quarantined
        for name in names:
            assert_bit_identical(baseline[name], reloaded[name])


class TestCliFaults:
    def test_bad_fault_plan_is_usage_error(self, capsys):
        from repro.cli import main

        for spec in (
            "bogus=1", "hard_crash=ture", "hang_benchmarks=400.perlbnch"
        ):
            assert main(["headline", "--fault-plan", spec]) == 2
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

    def test_flaky_profile_absorbed_exit_zero(self, capsys, tmp_path):
        """The canned flaky profile fires on a pooled, stored run: the
        first run degrades the campaign whose worker crashes, the second
        quarantines the writes the first one tore, and both exit 0 with
        the results of a clean run."""
        from repro.cli import main

        run = ["table1", "--scale", "ci", "--workers", "2"]
        assert main(run + ["--no-cache", "--fault-plan", "none"]) == 0
        clean = rendered_results(capsys.readouterr().out)
        assert "Table 1" in clean

        store = tmp_path / "store"
        flaky = run + ["--cache-dir", str(store), "--fault-plan", "flaky"]
        assert main(flaky) == 0
        first = capsys.readouterr().out
        assert "DEGRADED" in first
        assert rendered_results(first) == clean

        assert main(flaky) == 0
        second = capsys.readouterr().out
        assert re.search(r"campaign store: .* [1-9]\d* quarantined", second)
        assert sorted(store.glob("*.corrupt-*"))
        assert rendered_results(second) == clean

    def test_exhausted_budget_exits_one_with_report(self, capsys):
        from repro.cli import main

        code = main(
            [
                "headline", "--scale", "ci", "--max-retries", "0",
                "--deadline", str(DEADLINE), "--fault-plan",
                f"seed=3,worker_hang=1.0,only_benchmarks=400.perlbench,"
                f"hang_seconds={HANG}",
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
