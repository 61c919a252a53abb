"""The machine park: distributing campaigns over identical machines.

"We perform our study using four Dell systems with identical
configurations" (§5.4): each benchmark is assigned to one machine (and
pinned to one core on it), and the four machines run campaigns in
parallel.  :class:`MachinePark` reproduces that setup: a fixed pool of
identically configured :class:`~repro.machine.system.XeonE5440`
instances, a deterministic benchmark→machine assignment, and optional
process-level parallelism for the embarrassingly parallel layout
measurements.

Determinism: results are identical whether a campaign runs serially or
across worker processes, because every observation is a pure function
of (machine config, machine seed, benchmark, layout index).  The same
purity powers fault tolerance: a retried or degraded campaign re-runs
the identical pure function, so recovered results stay bit-identical.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

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
from repro.journal import SuiteJournal
from repro.machine.config import XeonE5440Config
from repro.machine.system import XeonE5440
from repro.rng import derive_seed
from repro.workloads.suite import Benchmark, get_benchmark

#: Receives each campaign's measured slice as soon as it completes:
#: ``sink(benchmark_name, observations)``.
SliceSink = Callable[[str, Sequence[Observation]], None]


@dataclass(frozen=True)
class _CampaignSpec:
    """Picklable description of one benchmark's campaign slice."""

    benchmark_name: str
    machine_seed: int
    machine_config: XeonE5440Config
    trace_events: int
    n_layouts: int
    start_index: int
    randomize_heap: bool
    runs_per_group: int
    fault_plan: FaultPlan | None = None


def _in_worker_process() -> bool:
    """True inside a multiprocessing pool worker (not the main process)."""
    return multiprocessing.parent_process() is not None


def _run_campaign(spec: _CampaignSpec) -> list[Observation]:
    """Worker entry point: measure one benchmark's layout slice."""
    with faults.plan_scope(spec.fault_plan):
        plan = faults.active_plan()
        if (
            plan is not None
            and _in_worker_process()
            and plan.crashes_worker(spec.benchmark_name)
        ):
            if plan.hard_crash:
                # Kill the worker outright: the pool breaks and the
                # supervisor exercises the BrokenProcessPool path.
                os._exit(13)
            raise WorkerCrashError(
                f"injected crash measuring {spec.benchmark_name!r} "
                "in a pool worker"
            )
        if plan is not None and plan.hangs_worker(spec.benchmark_name):
            # Unlike crash injection this fires in ANY process: the
            # serial watchdog path must observe hangs too, not just the
            # pool supervisor's future.result(timeout=...).
            faults.hang(plan.hang_seconds)
        machine = XeonE5440(config=spec.machine_config, seed=spec.machine_seed)
        interferometer = Interferometer(
            machine,
            trace_events=spec.trace_events,
            runs_per_group=spec.runs_per_group,
            randomize_heap=spec.randomize_heap,
        )
        benchmark = get_benchmark(spec.benchmark_name)
        observations = interferometer.observe(
            benchmark, n_layouts=spec.n_layouts, start_index=spec.start_index
        )
        return observations.observations


class MachinePark:
    """A pool of identically configured machines (the paper's four Dells).

    Parameters
    ----------
    n_machines:
        Pool size (4 in the paper).
    base_seed:
        Machine identities are derived from this; machine *k* gets seed
        ``derive_seed(base_seed, f"machine/{k}")``, so two parks with
        equal base seeds are the same lab.
    config:
        Shared machine configuration ("identical configurations").
    machine_seeds:
        Explicit machine identities; overrides ``n_machines`` and
        ``base_seed`` derivation.  A single-seed park reproduces a
        :class:`~repro.harness.lab.Laboratory`'s one-machine setup, so
        fanned-out campaigns stay bit-identical to its serial ones.
    """

    def __init__(
        self,
        n_machines: int = 4,
        base_seed: int = 1,
        config: XeonE5440Config | None = None,
        trace_events: int = 20000,
        runs_per_group: int = 5,
        machine_seeds: Sequence[int] | None = None,
    ) -> None:
        if machine_seeds is not None:
            n_machines = len(machine_seeds)
        if n_machines <= 0:
            raise ConfigurationError(f"need at least one machine, got {n_machines}")
        self.n_machines = n_machines
        self.base_seed = base_seed
        self._machine_seeds = (
            None if machine_seeds is None else tuple(machine_seeds)
        )
        self.config = config if config is not None else XeonE5440Config()
        self.trace_events = trace_events
        self.runs_per_group = runs_per_group
        self.machines = [
            XeonE5440(config=self.config, seed=self.machine_seed(k))
            for k in range(n_machines)
        ]

    def machine_seed(self, index: int) -> int:
        """Seed (identity) of machine *index*."""
        if not 0 <= index < self.n_machines:
            raise ConfigurationError(
                f"machine index {index} out of range [0, {self.n_machines})"
            )
        if self._machine_seeds is not None:
            return self._machine_seeds[index]
        return derive_seed(self.base_seed, f"machine/{index}")

    def machine_for(self, benchmark_name: str) -> int:
        """Deterministic benchmark→machine assignment.

        Like the paper's setup, a benchmark always runs on the same
        machine (and, via the interferometer, the same core of it).
        """
        return derive_seed(0xD311, benchmark_name) % self.n_machines

    def observe_suite(
        self,
        benchmarks: Sequence[Benchmark | str],
        n_layouts: int = 100,
        randomize_heap: bool = False,
        workers: int = 0,
        start_indices: Mapping[str, int] | None = None,
        max_retries: int | None = None,
        retry_policy: RetryPolicy | None = None,
        report: FailureReport | None = None,
        fail_fast: bool = False,
        deadline_seconds: float | None = None,
        journal: SuiteJournal | None = None,
        shutdown: ShutdownHandler | None = None,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        sink: SliceSink | None = None,
    ) -> Mapping[str, ObservationSet]:
        """Run full campaigns for several benchmarks across the park.

        This is the one campaign path: the
        :class:`~repro.harness.lab.Laboratory` serves every campaign
        through it.  ``workers=0`` runs serially in-process;
        ``workers=k`` fans the per-benchmark campaigns out over *k*
        worker processes.  Both run the same pure function
        (``_run_campaign``) under the same supervision, so results are
        identical either way.

        ``start_indices`` maps benchmark names to already-measured
        layout counts: each campaign measures layouts
        ``[start, n_layouts)`` only, so callers resuming from a
        persisted prefix get exactly the missing suffix back.

        Fault tolerance: each campaign is retried up to the policy's
        ``max_retries`` on transient failures (exponential backoff); a
        campaign whose pool worker crashes or dies is re-run serially
        in this process (graceful degradation, parallel → serial)
        instead of aborting the suite.  Because a retry re-runs the
        same pure function of (seed, benchmark, layout index), every
        recovered campaign is bit-identical to a fault-free run.
        Incidents are recorded in *report* when one is passed (failed
        campaigns are then simply absent from the result); without a
        report, a campaign that still fails after the whole budget
        raises :class:`~repro.errors.SuiteExecutionError` carrying the
        full :class:`~repro.faults.FailureReport` — after every other
        campaign has been given its chance.  ``fail_fast`` aborts at
        the first exhausted campaign instead.

        Supervision:

        * ``deadline_seconds`` (default: the policy's) bounds each
          campaign execution.  A pool worker that exceeds it is killed
          (``future.result(timeout=...)``); serially the campaign runs
          under a monotonic-clock watchdog.  Either way the expiry is
          recorded as a ``timed_out`` incident and the campaign re-runs
          under the same retry budget, bit-identically on recovery.
          Injected hangs fire in either mode.
        * Pool failures (broken pool, deadline expiry, worker crash)
          feed a :class:`~repro.core.supervise.CircuitBreaker`; after
          ``breaker_threshold`` consecutive failures the suite stops
          re-creating pools and the remainder degrades to supervised
          serial execution, recorded via
          :meth:`~repro.faults.FailureReport.trip_breaker`.
        * ``sink`` receives each campaign's measured slice as soon as
          it completes (the laboratory persists it there).
        * ``journal`` receives a ``begin`` entry before each slice and
          a ``commit`` once the sink has returned, so a slice is never
          journaled as durable before its caller stored it and an
          interrupted suite can be resumed.  ``shutdown`` is polled
          between campaigns: once a drain is requested, in-flight work
          completes and nothing new starts (the missing campaigns are
          simply absent from the result).
        """
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy.from_env(max_retries)
        )
        if deadline_seconds is None:
            deadline_seconds = policy.deadline_seconds
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ConfigurationError(
                f"deadline_seconds must be > 0, got {deadline_seconds}"
            )
        names = [b if isinstance(b, str) else b.name for b in benchmarks]
        counts = collections.Counter(names)
        duplicates = sorted(name for name, count in counts.items() if count > 1)
        if duplicates:
            raise ConfigurationError(
                f"duplicate benchmarks in suite campaign: {duplicates}; "
                "each benchmark's campaign must be requested once"
            )
        starts = {} if start_indices is None else dict(start_indices)
        for name, start in starts.items():
            if not 0 <= start <= n_layouts:
                raise ConfigurationError(
                    f"start index {start} for {name!r} out of range "
                    f"[0, {n_layouts}]"
                )
        plan = faults.active_plan()
        specs = [
            _CampaignSpec(
                benchmark_name=name,
                machine_seed=self.machine_seed(self.machine_for(name)),
                machine_config=self.config,
                trace_events=self.trace_events,
                n_layouts=n_layouts - starts.get(name, 0),
                start_index=starts.get(name, 0),
                randomize_heap=randomize_heap,
                runs_per_group=self.runs_per_group,
                fault_plan=plan,
            )
            for name in names
            if n_layouts - starts.get(name, 0) > 0
        ]
        run = _SuiteRun(
            policy=policy,
            report=report if report is not None else FailureReport(),
            fail_fast=fail_fast,
            deadline_seconds=deadline_seconds,
            journal=journal,
            sink=sink,
        )
        pending = specs
        if workers > 0:
            breaker = CircuitBreaker(breaker_threshold)
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
            run.begin(spec)
            run.run_serially(spec)
        results: dict[str, ObservationSet] = {}
        for spec in specs:
            observations = run.collected.get(spec.benchmark_name)
            if observations is None:
                continue  # failed, drained, or deferred; in the report
            observation_set = ObservationSet(benchmark=spec.benchmark_name)
            observation_set.extend(observations)
            results[spec.benchmark_name] = observation_set
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
    """The supervision state of one :meth:`MachinePark.observe_suite` call.

    Every campaign of the suite, pooled or serial, goes through the same
    three steps: :meth:`begin` journals the slice, a measurement runs,
    and :meth:`finish` hands the slice to the caller's sink and only
    then journals it as committed.
    """

    policy: RetryPolicy
    report: FailureReport
    fail_fast: bool
    deadline_seconds: float | None
    journal: SuiteJournal | None
    sink: SliceSink | None
    collected: dict[str, list[Observation]] = field(default_factory=dict)

    def begin(self, spec: _CampaignSpec) -> None:
        """Journal that *spec*'s slice is about to be measured."""
        if self.journal is not None:
            self.journal.record_begin(
                spec.benchmark_name,
                spec.randomize_heap,
                spec.start_index,
                spec.start_index + spec.n_layouts,
            )

    def finish(self, spec: _CampaignSpec, observations: list[Observation]) -> None:
        """Sink one measured slice, then journal it as committed.

        The commit follows the sink on every path, so a slice the caller
        failed to persist is never journaled as durable.
        """
        if self.sink is not None:
            self.sink(spec.benchmark_name, observations)
        self.collected[spec.benchmark_name] = observations
        if self.journal is not None:
            self.journal.record_commit(
                spec.benchmark_name,
                spec.randomize_heap,
                spec.start_index + spec.n_layouts,
            )

    def run_serially(self, spec: _CampaignSpec) -> None:
        """Run one begun campaign in this process under the retry budget.

        With a deadline, each execution runs under the
        :func:`~repro.core.supervise.run_with_deadline` watchdog; an
        expiry is recorded as a ``timed_out`` incident and consumes one
        retry like any other transient failure.  When the budget is
        exhausted the failure is recorded in the report and the campaign
        produces no slice; with ``fail_fast`` it raises
        :class:`~repro.errors.SuiteExecutionError` immediately instead.
        """
        name = spec.benchmark_name
        attempts = 0
        slept = 0.0
        last_error: TransientError | None = None
        while True:
            try:
                observations = run_with_deadline(
                    lambda: _run_campaign(spec),
                    self.deadline_seconds,
                    describe=name,
                )
                break
            except TransientError as exc:
                attempts += 1
                last_error = exc
                if isinstance(exc, CampaignTimeoutError):
                    self.report.record(
                        name, "timed_out", attempts=attempts, error=str(exc),
                        heap=spec.randomize_heap,
                    )
                if attempts > self.policy.max_retries:
                    self.report.record(
                        name, "failed", attempts=attempts, error=str(exc),
                        heap=spec.randomize_heap,
                    )
                    if self.fail_fast:
                        raise SuiteExecutionError(self.report) from exc
                    return
                slept += self.policy.sleep(
                    attempts - 1, key=name, already_slept=slept
                )
        if attempts:
            self.report.record(
                name,
                "recovered",
                attempts=attempts + 1,
                error=f"transient failure(s), last: {last_error}",
                heap=spec.randomize_heap,
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
        deferred: list[_CampaignSpec] = []
        pool_dead = False
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            for spec in pending:
                self.begin(spec)
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
                    result = future.result(timeout=self.deadline_seconds)
                except FutureTimeoutError:
                    breaker.record_failure(
                        f"deadline expiry on {spec.benchmark_name}"
                    )
                    self.report.record(
                        spec.benchmark_name,
                        "timed_out",
                        attempts=1,
                        error=(
                            f"pool worker exceeded the {self.deadline_seconds:g}s "
                            "deadline; pool killed, campaign re-run serially"
                        ),
                        heap=spec.randomize_heap,
                    )
                    _kill_pool(pool)
                    pool_dead = True
                    self.run_serially(spec)
                except BrokenProcessPool as exc:
                    breaker.record_failure(
                        f"broken pool on {spec.benchmark_name}"
                    )
                    self.report.record(
                        spec.benchmark_name,
                        "degraded",
                        attempts=1,
                        error=f"pool worker failed ({exc}); re-ran serially",
                        heap=spec.randomize_heap,
                    )
                    pool_dead = True
                    self.run_serially(spec)
                except TransientError as exc:
                    # The worker raised (soft crash): the pool itself is
                    # healthy, only this campaign degrades to serial.
                    breaker.record_failure(
                        f"worker crash on {spec.benchmark_name}"
                    )
                    self.report.record(
                        spec.benchmark_name,
                        "degraded",
                        attempts=1,
                        error=f"pool worker failed ({exc}); re-ran serially",
                        heap=spec.randomize_heap,
                    )
                    self.run_serially(spec)
                else:
                    breaker.record_success()
                    self.finish(spec, result)
        finally:
            pool.shutdown(wait=not pool_dead)
        return deferred
