"""Supervised execution: deadlines, circuit breaker, shutdown.

The supervision layer decides *when and where* a campaign runs, never
*what* it measures, so every killed-and-retried, degraded, drained, or
resumed campaign must reproduce the exact bits a fault-free run would
have produced.  These tests assert that equality literally — including
across a ``kill -9`` and a plain rerun on the same campaign store.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro import faults, telemetry
from repro.core import park as park_module
from repro.core.park import observe_suite
from repro.core.supervise import (
    DEFAULT_BREAKER_THRESHOLD,
    CircuitBreaker,
    ShutdownHandler,
    run_with_deadline,
)
from repro.errors import (
    CampaignTimeoutError,
    ConfigurationError,
    ShutdownRequested,
)
from repro.faults import FailureReport, FaultPlan, RetryPolicy
from repro.harness.lab import Laboratory
from repro.store import CampaignStore

from tests.test_faults import (  # noqa: F401
    DEADLINE,
    HANG,
    TINY,
    assert_bit_identical,
    campaign_keys,
)


class TestRunWithDeadline:
    def test_no_deadline_is_a_plain_call(self):
        calls = []

        def fn():
            calls.append(threading.current_thread())
            return 42

        assert run_with_deadline(fn, None) == 42
        # Zero supervision overhead: same thread, no watchdog.
        assert calls == [threading.main_thread()]

    def test_returns_value_within_deadline(self):
        assert run_with_deadline(lambda: "ok", 30.0) == "ok"

    def test_propagates_error_within_deadline(self):
        def boom():
            raise ConfigurationError("inner failure")

        with pytest.raises(ConfigurationError, match="inner failure"):
            run_with_deadline(boom, 30.0)

    def test_expiry_raises_campaign_timeout(self):
        start = telemetry.tick_seconds()
        with pytest.raises(CampaignTimeoutError) as err:
            run_with_deadline(
                lambda: time.sleep(HANG), DEADLINE, describe="456.hmmer"
            )
        elapsed = telemetry.tick_seconds() - start
        assert DEADLINE <= elapsed < HANG
        assert err.value.benchmark == "456.hmmer"
        assert err.value.deadline_seconds == pytest.approx(DEADLINE)
        assert "deadline" in str(err.value)

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            run_with_deadline(lambda: 1, 0.0)
        with pytest.raises(ConfigurationError):
            run_with_deadline(lambda: 1, -3.0)


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3)
        assert not breaker.record_failure("crash a")
        assert not breaker.record_failure("crash b")
        assert breaker.record_failure("timeout c")
        assert breaker.tripped
        assert "3 consecutive" in breaker.reason
        assert "timeout c" in breaker.reason

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("x")
        breaker.record_success()
        assert not breaker.record_failure("y")
        assert breaker.record_failure("z")

    def test_stays_tripped(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure("x")
        breaker.record_success()
        assert breaker.tripped

    def test_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(threshold=0)

    def test_default_threshold(self):
        assert CircuitBreaker().threshold == DEFAULT_BREAKER_THRESHOLD


class TestShutdownHandler:
    def test_programmatic_request_and_check(self):
        handler = ShutdownHandler()
        assert not handler.requested
        handler.check()  # no-op before a request
        handler.request("test")
        assert handler.requested
        with pytest.raises(ShutdownRequested) as err:
            handler.check()
        assert err.value.signal_name == "test"

    def test_first_signal_requests_drain(self):
        before = signal.getsignal(signal.SIGTERM)
        with ShutdownHandler() as handler:
            os.kill(os.getpid(), signal.SIGTERM)
            # Signal delivery happens at the next bytecode boundary.
            deadline = telemetry.tick_seconds() + 5.0
            while not handler.requested:
                assert telemetry.tick_seconds() < deadline
            assert handler.signal_name == "SIGTERM"
        # The previous handler is restored on exit.
        assert signal.getsignal(signal.SIGTERM) == before

    def test_second_signal_escalates(self):
        handler = ShutdownHandler()
        with handler:
            handler.request("SIGINT")
            with pytest.raises(KeyboardInterrupt):
                handler._handle(signal.SIGINT, None)

    def test_install_outside_main_thread_is_noop(self):
        outcome = {}

        def body():
            with ShutdownHandler() as handler:
                outcome["installed"] = bool(handler._previous)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert outcome["installed"] is False


class TestShutdownWatchdogInterleaving:
    """The stress scenario: a drain request lands from other threads
    while the serial watchdog is timing out a hung campaign.  Neither
    side holds a lock the other needs — the Event-based handler and the
    join-polling watchdog must interleave freely — so the test asserts
    progress (everything finishes well under the hang bound, i.e. no
    deadlock) and that the measurement closure stayed untouched (a
    post-stress run exports bit-identical results)."""

    def test_drain_during_watchdog_expiry(self):
        [lbm] = campaign_keys("470.lbm")
        baseline = observe_suite([lbm], 3)
        handler = ShutdownHandler()
        errors: list[str] = []
        done: list[int] = []

        def requester() -> None:
            # Land the drain request mid-deadline, then hammer the
            # read paths the supervisors use while the watchdog is
            # still join-polling the hung work thread.
            time.sleep(DEADLINE / 2)
            handler.request("SIGTERM")
            for _ in range(200):
                if not handler.requested:
                    errors.append("request lost")
                    return
                try:
                    handler.check()
                except ShutdownRequested as exc:
                    if exc.signal_name != "SIGTERM":
                        errors.append(f"wrong name {exc.signal_name!r}")
                        return
                else:
                    errors.append("check() missed the drain")
                    return
            done.append(1)

        threads = [
            threading.Thread(target=requester, daemon=True) for _ in range(4)
        ]
        start = telemetry.tick_seconds()
        for thread in threads:
            thread.start()
        with pytest.raises(CampaignTimeoutError):
            run_with_deadline(
                lambda: time.sleep(HANG), DEADLINE, describe="stress"
            )
        for thread in threads:
            thread.join(HANG)
        elapsed = telemetry.tick_seconds() - start
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(done) == len(threads)
        # Progress, not deadlock: the watchdog expired on time and the
        # requesters drained their loops well under the hang bound.
        assert elapsed < HANG

        # The drain semantics survived the interleaving: nothing new
        # starts under the handler...
        assert observe_suite([lbm], 3, shutdown=handler) == {}
        # ...and the stress left the measurement closure untouched.
        results = observe_suite([lbm], 3)
        assert_bit_identical(baseline[lbm], results[lbm])


class TestHangRecovery:
    """Injected hangs are killed by the supervisor and recovered
    bit-identically, in both the serial and the pool path."""

    def test_serial_watchdog_recovers_bit_identically(self):
        keys = campaign_keys("456.hmmer", "470.lbm")
        baseline = observe_suite(keys, 3)
        plan = FaultPlan(
            seed=1, hang_benchmarks=("456.hmmer",), hang_seconds=HANG
        )
        report = FailureReport()
        policy = RetryPolicy(
            max_retries=2, backoff_base=0.0, deadline_seconds=DEADLINE
        )
        start = telemetry.tick_seconds()
        with faults.injected(plan):
            results = observe_suite(
                keys, 3, retry_policy=policy, report=report
            )
        elapsed = telemetry.tick_seconds() - start
        assert report.ok
        assert [i.benchmark for i in report.timed_out] == ["456.hmmer"]
        assert [i.benchmark for i in report.recovered] == ["456.hmmer"]
        for key in keys:
            assert_bit_identical(baseline[key], results[key])
        # The hang cost ~one deadline, not the full hang duration.
        assert elapsed < HANG

    def test_pool_worker_hang_killed_and_recovered(self):
        keys = campaign_keys("456.hmmer", "470.lbm")
        baseline = observe_suite(keys, 3)
        plan = FaultPlan(
            seed=1, hang_benchmarks=("456.hmmer",), hang_seconds=HANG
        )
        report = FailureReport()
        policy = RetryPolicy(
            max_retries=2, backoff_base=0.0, deadline_seconds=DEADLINE
        )
        with faults.injected(plan):
            results = observe_suite(
                keys, 3, workers=2, retry_policy=policy, report=report
            )
        assert report.ok
        assert report.breaker_tripped is None
        # One expiry in the pool, one in the serial re-run (the forced
        # hang fires once per process), then recovery.
        timed_out = [i.benchmark for i in report.timed_out]
        assert timed_out and set(timed_out) == {"456.hmmer"}
        assert [i.benchmark for i in report.recovered] == ["456.hmmer"]
        assert set(results) == set(keys)
        for key in keys:
            assert_bit_identical(baseline[key], results[key])

    def test_unbounded_run_still_completes(self):
        """Without a deadline an injected hang merely stalls (bounded by
        hang_seconds) — results are unchanged."""
        [lbm] = campaign_keys("470.lbm")
        baseline = observe_suite([lbm], 3)
        plan = FaultPlan(
            seed=1, hang_benchmarks=("470.lbm",), hang_seconds=0.05
        )
        with faults.injected(plan):
            results = observe_suite([lbm], 3)
        assert_bit_identical(baseline[lbm], results[lbm])

    def test_budget_exhaustion_records_failure(self):
        # worker_hang rate 1.0 hangs every execution; with a short
        # deadline and no retries the campaign fails structurally.
        plan = FaultPlan(seed=1, worker_hang=1.0, hang_seconds=HANG)
        report = FailureReport()
        policy = RetryPolicy(
            max_retries=0, backoff_base=0.0, deadline_seconds=DEADLINE
        )
        with faults.injected(plan):
            results = observe_suite(
                campaign_keys("470.lbm"), 3, retry_policy=policy, report=report
            )
        assert results == {}
        assert not report.ok
        assert [i.benchmark for i in report.failed] == ["470.lbm"]
        assert [i.benchmark for i in report.timed_out] == ["470.lbm"]


class TestCircuitBreakerIntegration:
    def test_breaker_trips_and_degrades_remainder(self, monkeypatch):
        keys = campaign_keys("456.hmmer", "470.lbm")
        baseline = observe_suite(keys, 3)
        plan = FaultPlan(
            seed=1, hang_benchmarks=("456.hmmer",), hang_seconds=HANG
        )
        report = FailureReport()
        policy = RetryPolicy(
            max_retries=2, backoff_base=0.0, deadline_seconds=DEADLINE
        )
        monkeypatch.setattr(park_module, "DEFAULT_BREAKER_THRESHOLD", 1)
        with faults.injected(plan):
            results = observe_suite(
                keys, 3, workers=2, retry_policy=policy, report=report
            )
        assert report.breaker_tripped is not None
        assert "serial" in report.breaker_tripped
        assert "TRIPPED" in report.render()
        assert bool(report)
        # The remainder still completed — serially — bit-identically.
        assert set(results) == set(keys)
        for key in keys:
            assert_bit_identical(baseline[key], results[key])

    def test_serial_path_never_trips(self, monkeypatch):
        plan = FaultPlan(
            seed=1, hang_benchmarks=("470.lbm",), hang_seconds=HANG
        )
        report = FailureReport()
        policy = RetryPolicy(
            max_retries=2, backoff_base=0.0, deadline_seconds=DEADLINE
        )
        monkeypatch.setattr(park_module, "DEFAULT_BREAKER_THRESHOLD", 1)
        with faults.injected(plan):
            observe_suite(
                campaign_keys("470.lbm"), 3, retry_policy=policy, report=report
            )
        assert report.breaker_tripped is None


class TestDrain:
    def test_park_drains_between_campaigns(self):
        shutdown = ShutdownHandler()
        shutdown.request("SIGTERM")
        results = observe_suite(
            campaign_keys("456.hmmer", "470.lbm"), 3, shutdown=shutdown
        )
        assert results == {}  # nothing new starts once draining

    def test_lab_prefetch_drains(self, tmp_path):
        shutdown = ShutdownHandler()
        lab = Laboratory(
            scale=TINY, machine_seed=7, cache_dir=tmp_path, shutdown=shutdown
        )
        shutdown.request("SIGINT")
        lab.prefetch(["456.hmmer", "470.lbm"])
        assert lab.store.stats.layouts_measured == 0


class TestLaboratorySupervision:
    def test_deadline_timeout_recovered_bit_identically(self, monkeypatch):
        baseline = Laboratory(scale=TINY, machine_seed=7).observations(
            "456.hmmer"
        )
        lab = Laboratory(scale=TINY, machine_seed=7, deadline_seconds=DEADLINE)
        lab.retry_policy = RetryPolicy(
            max_retries=2, backoff_base=0.0, deadline_seconds=DEADLINE
        )
        original = park_module._run_campaign
        hangs = iter([True, False])

        def hang_once(spec):
            if next(hangs):
                faults.hang(HANG)
            return original(spec)

        monkeypatch.setattr(park_module, "_run_campaign", hang_once)
        recovered = lab.observations("456.hmmer")
        assert_bit_identical(baseline, recovered)
        statuses = [i.status for i in lab.failure_report.incidents]
        assert statuses == ["timed_out", "recovered"]

    def test_serial_lab_observes_injected_hang(self):
        """Injected hangs fire on the serial path too, not only in pool
        workers: the watchdog kills the hung execution and the retry
        recovers the campaign bit-identically."""
        baseline = Laboratory(scale=TINY, machine_seed=7).observations(
            "456.hmmer"
        )
        lab = Laboratory(scale=TINY, machine_seed=7, deadline_seconds=DEADLINE)
        lab.retry_policy = RetryPolicy(
            max_retries=2, backoff_base=0.0, deadline_seconds=DEADLINE
        )
        plan = FaultPlan(
            seed=1, hang_benchmarks=("456.hmmer",), hang_seconds=HANG
        )
        with faults.injected(plan):
            recovered = lab.observations("456.hmmer")
        assert_bit_identical(baseline, recovered)
        statuses = [i.status for i in lab.failure_report.incidents]
        assert statuses == ["timed_out", "recovered"]

    @pytest.mark.parametrize("workers", [2, 0])
    def test_failed_save_stores_nothing(self, tmp_path, monkeypatch, workers):
        """A campaign whose store save fails leaves no store file and no
        cached campaign, with worker processes as without them."""

        def full_disk(fd):
            raise OSError("injected: no space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        lab = Laboratory(
            scale=TINY, machine_seed=7, cache_dir=tmp_path, workers=workers
        )
        with pytest.raises(OSError, match="no space left"):
            lab.prefetch(["456.hmmer"])
        assert sorted(tmp_path.iterdir()) == []
        assert "456.hmmer" not in lab._observations
        assert lab.campaign_log == []


_KILL_DRIVER = textwrap.dedent(
    """\
    import sys
    from repro.harness.lab import Laboratory, Scale

    TINY = Scale(name="tiny", n_layouts=4, trace_events=2500,
                 mase_trace_events=2000, mase_configs=5, ltage_layouts=4)
    lab = Laboratory(scale=TINY, machine_seed=7, cache_dir=sys.argv[1])
    print("READY", flush=True)
    lab.prefetch(["456.hmmer", "445.gobmk", "470.lbm"])
    print("DONE", flush=True)
    """
)


class TestKillResumeAcceptance:
    """``kill -9`` mid-suite, then a plain rerun on the same campaign
    store — bit-identical to an uninterrupted run, with only the
    missing campaigns re-measured."""

    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        names = ["456.hmmer", "445.gobmk", "470.lbm"]
        baseline_lab = Laboratory(scale=TINY, machine_seed=7)
        baseline = {name: baseline_lab.observations(name) for name in names}

        cache = tmp_path / "cache"
        cache.mkdir()
        import repro

        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_dir), env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_DRIVER, str(cache)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            # SIGKILL as soon as the first campaign file lands: the
            # second campaign is then mid-flight (measured, not saved).
            deadline = telemetry.tick_seconds() + 120.0
            while telemetry.tick_seconds() < deadline:
                if sorted(cache.glob("*.json")) or proc.poll() is not None:
                    break
                time.sleep(0.02)
            assert proc.poll() is None, "driver finished before the kill"
            proc.kill()
        finally:
            proc.wait()

        # The campaigns done before the kill are the complete ones in
        # the store's files.
        resumed = Laboratory(scale=TINY, machine_seed=7, cache_dir=cache)
        store = CampaignStore(cache)
        committed = [
            name for name in names
            if len(store.load_prefix(
                resumed.campaign_key(name, heap=False), TINY.n_layouts
            )) == TINY.n_layouts
        ]
        assert committed, "nothing stored before the kill"
        assert len(committed) < len(names), "everything finished pre-kill"

        resumed.prefetch(names)
        results = {name: resumed.observations(name) for name in names}
        for name in names:
            assert_bit_identical(baseline[name], results[name])
        # Only the missing campaigns were re-measured: everything the
        # interrupted run persisted was served from the store.
        total = len(names) * TINY.n_layouts
        measured = resumed.store.stats.layouts_measured
        assert measured < total
        assert measured <= (len(names) - len(committed)) * TINY.n_layouts


class TestCliSupervision:
    def test_bad_deadline_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["headline", "--deadline", "0"]) == 2
        assert "--deadline" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--cache-dir", "{store}"], "rerun with the same --cache-dir"),
            (["--no-cache"], "nothing was persisted"),
        ],
        ids=["store", "no-store"],
    )
    def test_drained_run_exits_partial(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        """A signal during the run drains it: exit 1, and the message
        says what was kept."""
        from repro import cli

        class SignalledOnEntry(ShutdownHandler):
            def __enter__(self):
                super().__enter__()
                self.request("SIGTERM")
                return self

        monkeypatch.setattr(cli, "ShutdownHandler", SignalledOnEntry)
        argv = ["headline", "--scale", "ci"] + [
            flag.format(store=tmp_path / "store") for flag in flags
        ]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "graceful shutdown (SIGTERM)" in err
        assert message in err

    def test_help_documents_supervision(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        assert "--deadline" in text
        assert "same --cache-dir" in text
        assert "graceful shutdown" in text
