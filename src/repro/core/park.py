"""The machine park: running campaigns, serially or over worker processes.

"We perform our study using four Dell systems with identical
configurations" (§5.4): each benchmark is assigned to one machine (and
pinned to one core on it), and the machines run campaigns in parallel.
Here a machine is the seed and configuration in a campaign's
:class:`~repro.store.CampaignKey`, so the paper's four-machine setup is
four machine seeds in the keys of one :func:`observe_suite` call, and
the process-level parallelism of the embarrassingly parallel layout
measurements is its ``workers``.

Determinism: results are identical whether a campaign runs serially or
across worker processes, because every observation is a pure function
of the campaign key and the layout index.  The same purity powers fault
tolerance: a retried or degraded campaign re-runs the identical pure
function, so recovered results stay bit-identical.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro import faults
from repro.core.interferometer import Interferometer
from repro.core.observations import Observation, ObservationSet
from repro.core.supervise import (
    DEFAULT_BREAKER_THRESHOLD,
    CircuitBreaker,
    ShutdownHandler,
    run_with_deadline,
)
from repro.errors import (
    CampaignTimeoutError,
    ConfigurationError,
    SuiteExecutionError,
    TransientError,
    WorkerCrashError,
)
from repro.faults import FailureReport, FaultPlan, RetryPolicy
from repro.machine.system import XeonE5440
from repro.workloads.suite import get_benchmark

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.store import CampaignKey

#: Receives each campaign's measured slice as soon as it completes:
#: ``sink(key, observations)``.
SliceSink = Callable[["CampaignKey", Sequence[Observation]], None]


@dataclass(frozen=True)
class _CampaignSpec:
    """Picklable description of one campaign's layout slice."""

    key: CampaignKey
    start_index: int
    n_layouts: int
    fault_plan: FaultPlan | None = None


def _in_worker_process() -> bool:
    """True inside a multiprocessing pool worker (not the main process)."""
    return multiprocessing.parent_process() is not None


def _run_campaign(spec: _CampaignSpec) -> list[Observation]:
    """Worker entry point: measure one campaign's layout slice."""
    key = spec.key
    with faults.plan_scope(spec.fault_plan):
        plan = faults.active_plan()
        if (
            plan is not None
            and _in_worker_process()
            and plan.crashes_worker(key.benchmark)
        ):
            if plan.hard_crash:
                # Kill the worker outright: the pool breaks and the
                # supervisor exercises the BrokenProcessPool path.
                os._exit(13)
            raise WorkerCrashError(
                f"injected crash measuring {key.benchmark!r} "
                "in a pool worker"
            )
        if plan is not None and plan.hangs_worker(key.benchmark):
            # Unlike crash injection this fires in ANY process: the
            # serial watchdog path must observe hangs too, not just the
            # pool supervisor's future.result(timeout=...).
            faults.hang(plan.hang_seconds)
        interferometer = Interferometer(
            XeonE5440(config=key.config, seed=key.machine_seed),
            trace_events=key.trace_events,
            runs_per_group=key.runs_per_group,
            randomize_heap=key.randomize_heap,
        )
        observations = interferometer.observe(
            get_benchmark(key.benchmark),
            n_layouts=spec.n_layouts,
            start_index=spec.start_index,
        )
        return observations.observations


def observe_suite(
    keys: Sequence[CampaignKey],
    n_layouts: int,
    *,
    workers: int = 0,
    start_indices: Mapping[CampaignKey, int] | None = None,
    retry_policy: RetryPolicy | None = None,
    report: FailureReport | None = None,
    fail_fast: bool = False,
    shutdown: ShutdownHandler | None = None,
    sink: SliceSink | None = None,
) -> dict[CampaignKey, ObservationSet]:
    """Run the first *n_layouts* layouts of several campaigns.

    This is the one campaign path: the
    :class:`~repro.harness.lab.Laboratory` serves every campaign
    through it.  ``workers=0`` runs serially in-process; ``workers=k``
    fans the campaigns out over *k* worker processes.  Both run the
    same pure function (``_run_campaign``) of each key under the same
    supervision, so results are identical either way.  Results map
    each completed campaign's key to its observations.

    ``start_indices`` maps keys to already-measured layout counts: each
    campaign measures layouts ``[start, n_layouts)`` only, so callers
    resuming from a persisted prefix get exactly the missing suffix
    back.

    Fault tolerance: each campaign is retried up to *retry_policy*'s
    ``max_retries`` (``RetryPolicy()`` when none is passed) on
    transient failures — a deadline expiry, a crashed worker — with
    exponential backoff; a campaign whose pool worker crashes or dies
    is re-run serially in this process (graceful degradation,
    parallel → serial) instead of aborting the suite.  Because a retry
    re-runs the same pure function of (key, layout index), every
    recovered campaign is bit-identical to a fault-free run.  Incidents
    are recorded in *report* when one is passed (failed campaigns are
    then simply absent from the result); without a report, a campaign
    that still fails after the whole budget raises
    :class:`~repro.errors.SuiteExecutionError` carrying the full
    :class:`~repro.faults.FailureReport` — after every other campaign
    has been given its chance.  ``fail_fast`` aborts at the first
    exhausted campaign instead.

    Supervision:

    * The policy's ``deadline_seconds`` bounds each campaign execution.
      A pool worker that exceeds it is killed
      (``future.result(timeout=...)``); serially the campaign runs
      under a monotonic-clock watchdog.  Either way the expiry is
      recorded as a ``timed_out`` incident and the campaign re-runs
      under the same retry budget, bit-identically on recovery.
      Injected hangs fire in either mode.
    * Pool failures (broken pool, deadline expiry, worker crash) feed a
      :class:`~repro.core.supervise.CircuitBreaker`; after
      ``DEFAULT_BREAKER_THRESHOLD`` consecutive failures the suite
      stops re-creating pools and the remainder degrades to supervised
      serial execution, recorded via
      :meth:`~repro.faults.FailureReport.trip_breaker`.
    * ``sink`` receives each campaign's measured slice as soon as it
      completes (the laboratory persists it there).
    * ``shutdown`` is polled between campaigns: once a drain is
      requested, in-flight work completes and nothing new starts (the
      missing campaigns are simply absent from the result).
    """
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    counts = collections.Counter(keys)
    duplicates = sorted(key.filename for key, count in counts.items() if count > 1)
    if duplicates:
        raise ConfigurationError(
            f"duplicate campaigns in suite: {duplicates}; "
            "each campaign must be requested once"
        )
    starts = {} if start_indices is None else dict(start_indices)
    for key, start in starts.items():
        if not 0 <= start <= n_layouts:
            raise ConfigurationError(
                f"start index {start} for {key.benchmark!r} out of range "
                f"[0, {n_layouts}]"
            )
    plan = faults.active_plan()
    specs = [
        _CampaignSpec(
            key=key,
            start_index=starts.get(key, 0),
            n_layouts=n_layouts - starts.get(key, 0),
            fault_plan=plan,
        )
        for key in keys
        if n_layouts - starts.get(key, 0) > 0
    ]
    run = _SuiteRun(
        policy=retry_policy if retry_policy is not None else RetryPolicy(),
        report=report if report is not None else FailureReport(),
        fail_fast=fail_fast,
        sink=sink,
    )
    pending = specs
    if workers > 0:
        breaker = CircuitBreaker(DEFAULT_BREAKER_THRESHOLD)
        while (
            pending
            and not breaker.tripped
            and not (shutdown is not None and shutdown.requested)
        ):
            pending = run.pool_round(pending, workers, breaker)
        if breaker.tripped:
            run.report.trip_breaker(breaker.reason)
    for spec in pending:
        # Serial mode, or the remainder after the breaker tripped:
        # supervised execution in this process.
        if shutdown is not None and shutdown.requested:
            break  # draining: nothing new starts
        run.run_serially(spec)
    results: dict[CampaignKey, ObservationSet] = {}
    for spec in specs:
        observations = run.collected.get(spec.key)
        if observations is None:
            continue  # failed, drained, or deferred; in the report
        observation_set = ObservationSet(benchmark=spec.key.benchmark)
        observation_set.extend(observations)
        results[spec.key] = observation_set
    if report is None and not run.report.ok:
        raise SuiteExecutionError(run.report)
    return results


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool sheltering a hung worker.

    A plain ``shutdown()`` would join the hung worker and inherit
    its hang, so the worker processes are killed first; the
    executor's management machinery then observes the breakage and
    resolves any remaining futures as broken or cancelled.
    """
    # _processes is private, but the executor exposes no supported
    # way to kill (rather than join) its workers.
    for process in list((pool._processes or {}).values()):
        process.kill()
    pool.shutdown(wait=False, cancel_futures=True)


@dataclass
class _SuiteRun:
    """The supervision state of one :func:`observe_suite` call.

    Every campaign of the suite, pooled or serial, ends in
    :meth:`finish`, which hands the measured slice to the caller's sink
    before collecting it.
    """

    policy: RetryPolicy
    report: FailureReport
    fail_fast: bool
    sink: SliceSink | None
    collected: dict[CampaignKey, list[Observation]] = field(default_factory=dict)

    def finish(self, spec: _CampaignSpec, observations: list[Observation]) -> None:
        """Sink one measured slice, then collect it."""
        if self.sink is not None:
            self.sink(spec.key, observations)
        self.collected[spec.key] = observations

    def run_serially(self, spec: _CampaignSpec) -> None:
        """Run one campaign in this process under the retry budget.

        With a deadline, each execution runs under the
        :func:`~repro.core.supervise.run_with_deadline` watchdog; an
        expiry is recorded as a ``timed_out`` incident and consumes one
        retry like any other transient failure.  When the budget is
        exhausted the failure is recorded in the report and the campaign
        produces no slice; with ``fail_fast`` it raises
        :class:`~repro.errors.SuiteExecutionError` immediately instead.
        """
        name = spec.key.benchmark
        attempts = 0
        slept = 0.0
        last_error: TransientError | None = None
        while True:
            try:
                observations = run_with_deadline(
                    lambda: _run_campaign(spec),
                    self.policy.deadline_seconds,
                    describe=name,
                )
                break
            except TransientError as exc:
                attempts += 1
                last_error = exc
                if isinstance(exc, CampaignTimeoutError):
                    self.report.record(
                        name, "timed_out", attempts=attempts, error=str(exc),
                        heap=spec.key.randomize_heap,
                    )
                if attempts > self.policy.max_retries:
                    self.report.record(
                        name, "failed", attempts=attempts, error=str(exc),
                        heap=spec.key.randomize_heap,
                    )
                    if self.fail_fast:
                        raise SuiteExecutionError(self.report) from exc
                    return
                slept += self.policy.sleep(attempts - 1, already_slept=slept)
        if attempts:
            self.report.record(
                name,
                "recovered",
                attempts=attempts + 1,
                error=f"transient failure(s), last: {last_error}",
                heap=spec.key.randomize_heap,
            )
        self.finish(spec, observations)

    def pool_round(
        self,
        pending: list[_CampaignSpec],
        workers: int,
        breaker: CircuitBreaker,
    ) -> list[_CampaignSpec]:
        """One pool generation: submit all pending campaigns, harvest.

        Returns the specs deferred to the next round — campaigns queued
        behind a killed or broken pool that never got to run.  The
        *offender* of a pool failure is re-run serially within the
        round, so its campaign recovers under the retry budget
        immediately; innocent bystanders keep their parallelism in the
        next pool generation (until the breaker trips).
        """
        deadline = self.policy.deadline_seconds
        deferred: list[_CampaignSpec] = []
        pool_dead = False
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [
                (spec, pool.submit(_run_campaign, spec)) for spec in pending
            ]
            for spec, future in futures:
                if pool_dead:
                    # The pool died earlier this round.  Salvage results
                    # that finished before the failure; defer the rest.
                    # (A result racing the breakage may be deferred and
                    # re-measured — purity makes that merely redundant.)
                    if (
                        future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        self.finish(spec, future.result())
                    else:
                        deferred.append(spec)
                    continue
                try:
                    result = future.result(timeout=deadline)
                except FutureTimeoutError:
                    breaker.record_failure(
                        f"deadline expiry on {spec.key.benchmark}"
                    )
                    self.report.record(
                        spec.key.benchmark,
                        "timed_out",
                        attempts=1,
                        error=(
                            f"pool worker exceeded the {deadline:g}s "
                            "deadline; pool killed, campaign re-run serially"
                        ),
                        heap=spec.key.randomize_heap,
                    )
                    _kill_pool(pool)
                    pool_dead = True
                    self.run_serially(spec)
                except BrokenProcessPool as exc:
                    breaker.record_failure(
                        f"broken pool on {spec.key.benchmark}"
                    )
                    self.report.record(
                        spec.key.benchmark,
                        "degraded",
                        attempts=1,
                        error=f"pool worker failed ({exc}); re-ran serially",
                        heap=spec.key.randomize_heap,
                    )
                    pool_dead = True
                    self.run_serially(spec)
                except TransientError as exc:
                    # The worker raised (soft crash): the pool itself is
                    # healthy, only this campaign degrades to serial.
                    breaker.record_failure(
                        f"worker crash on {spec.key.benchmark}"
                    )
                    self.report.record(
                        spec.key.benchmark,
                        "degraded",
                        attempts=1,
                        error=f"pool worker failed ({exc}); re-ran serially",
                        heap=spec.key.randomize_heap,
                    )
                    self.run_serially(spec)
                else:
                    breaker.record_success()
                    self.finish(spec, result)
        finally:
            pool.shutdown(wait=not pool_dead)
        return deferred
