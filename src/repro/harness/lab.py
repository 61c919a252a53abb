"""The laboratory: shared machines, scale configuration, and caches.

Scales trade fidelity for wall-clock time.  ``paper`` mirrors the
paper's 100-reordering campaigns; ``small`` (the default) keeps every
experiment's shape at ~40% of the sampling cost; ``ci`` is for fast
test runs.  Select with the ``REPRO_SCALE`` environment variable.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro import telemetry
from repro.core.evaluate import PredictorEvaluation, PredictorEvaluator
from repro.core.interferometer import Interferometer
from repro.core.model import PerformanceModel
from repro.core.observations import Observation, ObservationSet
from repro.core.park import MachinePark
from repro.core.supervise import ShutdownHandler
from repro.errors import CampaignExecutionError, ConfigurationError, ModelError
from repro.faults import FailureReport, RetryPolicy
from repro.journal import JournalState, SuiteJournal
from repro.machine.system import XeonE5440
from repro.store import CampaignKey, CampaignStore
from repro.uarch.predictors.gas import gas_hybrid_family
from repro.uarch.predictors.tage import LTagePredictor
from repro.workloads.suite import Benchmark, get_benchmark, mase_suite, spec2006


@dataclass(frozen=True)
class Scale:
    """Sampling sizes of one scale tier."""

    name: str
    n_layouts: int
    trace_events: int
    mase_trace_events: int
    mase_configs: int | None  # None = the full 145
    ltage_layouts: int

    def __post_init__(self) -> None:
        if self.n_layouts <= 3:
            raise ConfigurationError("need more than 3 layouts per campaign")


SCALES: dict[str, Scale] = {
    "ci": Scale("ci", n_layouts=10, trace_events=6000, mase_trace_events=4000,
                mase_configs=29, ltage_layouts=4),
    "small": Scale("small", n_layouts=40, trace_events=20000, mase_trace_events=6000,
                   mase_configs=None, ltage_layouts=12),
    "paper": Scale("paper", n_layouts=100, trace_events=20000, mase_trace_events=8000,
                   mase_configs=None, ltage_layouts=100),
}


def scale_from_env(default: str = "small") -> Scale:
    """Resolve the scale selected by ``REPRO_SCALE``."""
    name = os.environ.get("REPRO_SCALE", default)
    if name not in SCALES:
        raise ConfigurationError(
            f"unknown REPRO_SCALE {name!r}; choose from {sorted(SCALES)}"
        )
    return SCALES[name]


@dataclass(frozen=True)
class CampaignRecord:
    """Timing/provenance of one campaign the laboratory served."""

    benchmark: str
    heap: bool
    n_layouts: int
    measured: int
    seconds: float

    @property
    def layouts_per_second(self) -> float:
        """Measurement throughput (0 when nothing was measured)."""
        if self.measured == 0 or self.seconds <= 0:
            return 0.0
        return self.measured / self.seconds

    @property
    def source(self) -> str:
        """Where the campaign came from: ``cache`` or ``measured``."""
        return "cache" if self.measured == 0 else "measured"

    def render(self) -> str:
        """One progress line for CLI output."""
        kind = "heap campaign" if self.heap else "campaign"
        if self.measured == 0:
            return (
                f"{kind} {self.benchmark}: {self.n_layouts} layouts "
                f"from cache ({self.seconds:.2f}s)"
            )
        return (
            f"{kind} {self.benchmark}: {self.measured}/{self.n_layouts} "
            f"layouts measured in {self.seconds:.2f}s "
            f"({self.layouts_per_second:.1f} layouts/s)"
        )


class Laboratory:
    """Shared state for all experiment regenerators.

    Observation sets are cached per benchmark, so experiments that
    consume the same campaign (Fig. 1, Fig. 2, Fig. 6, Table 1, Figs.
    7-8) measure each layout exactly once per process — and, with a
    ``cache_dir``, exactly once across processes: campaigns are served
    from the disk-backed :class:`~repro.store.CampaignStore` keyed by
    (benchmark, scale, machine seed, heap flag, format version) before
    anything is measured.

    Every campaign, lazy or prefetched, serial or parallel, takes one
    path: memory cache, one store-prefix step, then
    :meth:`MachinePark.observe_suite` on a one-machine park carrying
    this laboratory's machine seed and configuration.  ``workers``
    sets that call's process-level fan-out (0 = in-process); results
    are bit-identical either way (every observation is a pure function
    of machine config, machine seed, benchmark, and layout index).

    Fault tolerance: every campaign runs under the park's retry budget
    (``max_retries``, default ``REPRO_MAX_RETRIES`` or 2) with
    exponential backoff; transient failures — flaky counter reads that
    outlast the read-level re-reads, crashed workers, corrupt cache
    files — are retried, and because retries re-run the same pure
    function, recovered campaigns stay bit-identical.  All incidents
    accumulate in ``failure_report``; a lazily requested campaign that
    exhausts its budget raises
    :class:`~repro.errors.CampaignExecutionError`.  ``fail_fast``
    aborts suite prefetches at the first such failure instead of
    continuing with the remaining campaigns.

    Supervision: ``deadline_seconds`` bounds every campaign execution
    (hung campaigns are killed, recorded as *timed_out*, and re-run
    under the retry budget); with a ``cache_dir`` the lab keeps a
    crash-safe :class:`~repro.journal.SuiteJournal` beside the store,
    committing each campaign only after its store save, and
    ``resume=True`` replays it (into ``resumed``) so an interrupted
    suite re-measures exactly the missing slices via the store's prefix
    step.  A :class:`~repro.core.supervise.ShutdownHandler` passed as
    ``shutdown`` is polled between prefetched campaigns: once a drain
    is requested, in-flight campaigns finish and nothing new starts.
    """

    def __init__(
        self,
        scale: Scale | None = None,
        machine_seed: int = 1,
        cache_dir: str | Path | None = None,
        workers: int = 0,
        max_retries: int | None = None,
        fail_fast: bool = False,
        deadline_seconds: float | None = None,
        resume: bool = False,
        shutdown: ShutdownHandler | None = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if resume and cache_dir is None:
            raise ConfigurationError(
                "resume requires a cache_dir: the suite journal and the "
                "campaign store live there"
            )
        self.scale = scale if scale is not None else scale_from_env()
        self.machine_seed = machine_seed
        self.workers = workers
        self.retry_policy = RetryPolicy.from_env(max_retries, deadline_seconds)
        self.fail_fast = fail_fast
        self.shutdown = shutdown
        self.failure_report = FailureReport()
        self.journal = (
            None
            if cache_dir is None
            else SuiteJournal(Path(cache_dir) / "suite-journal.json")
        )
        #: Replayed journal state when resuming (None otherwise); the
        #: store's prefix machinery remains the data truth — the journal
        #: only reports what the interrupted run was doing.
        self.resumed: JournalState | None = None
        if self.journal is not None:
            if resume:
                self.resumed = self.journal.replay()
            else:
                # A fresh (non-resumed) suite starts with a clean
                # journal; the campaign store is untouched either way.
                self.journal.clear()
        self.machine = XeonE5440(seed=machine_seed)
        self.interferometer = Interferometer(
            self.machine, trace_events=self.scale.trace_events
        )
        self.heap_interferometer = Interferometer(
            self.machine, trace_events=self.scale.trace_events, randomize_heap=True
        )
        #: The one-machine park every campaign is measured on: it
        #: carries this laboratory's machine seed and configuration.
        self.park = MachinePark(
            machine_seeds=[machine_seed],
            config=self.machine.config,
            trace_events=self.scale.trace_events,
            runs_per_group=self.interferometer.runs_per_group,
        )
        self.store = None if cache_dir is None else CampaignStore(cache_dir)
        self.suite = spec2006()
        self.mase_suite = mase_suite()
        self.campaign_log: list[CampaignRecord] = []
        #: Optional observer called after every campaign (CLI progress).
        self.on_campaign: Callable[[CampaignRecord], None] | None = None
        self._observations: dict[str, ObservationSet] = {}
        self._heap_observations: dict[str, ObservationSet] = {}
        # The campaign serving layer (repro.serve) calls observations()
        # from executor threads while the owning process may touch the
        # same memoization dicts from its main thread; the lock keeps
        # the dict updates race-free (ASYNC003's discipline).
        self._memory_lock = threading.Lock()
        self._evaluations: dict[str, PredictorEvaluation] = {}
        self._significant: list[str] | None = None

    def benchmark(self, name: str) -> Benchmark:
        """Look up a benchmark (suite member or MASE-only)."""
        return self.suite.get(name) or get_benchmark(name)

    # ------------------------------------------------------------------
    # Campaign plumbing: memory cache -> store prefix -> machine park.
    # ------------------------------------------------------------------

    def _interferometer_for(self, heap: bool) -> Interferometer:
        return self.heap_interferometer if heap else self.interferometer

    def _campaign_key(self, name: str, heap: bool) -> CampaignKey:
        """The store key of one benchmark's campaign at this lab's scale."""
        return CampaignKey.for_interferometer(self._interferometer_for(heap), name)

    def _record(
        self, name: str, heap: bool, measured: int, seconds: float
    ) -> None:
        record = CampaignRecord(
            benchmark=name,
            heap=heap,
            n_layouts=self.scale.n_layouts,
            measured=measured,
            seconds=seconds,
        )
        self.campaign_log.append(record)
        if self.on_campaign is not None:
            self.on_campaign(record)

    def _serve(
        self,
        names: Sequence[str],
        heap: bool,
        fail_fast: bool,
        shutdown: ShutdownHandler | None,
    ) -> None:
        """Bring campaigns into the memory cache: the one campaign path.

        Campaigns already in memory are skipped.  Each other campaign
        takes one store-prefix step: a fully stored campaign is served
        as a hit; otherwise its stored prefix (possibly empty) sets the
        start index of a single :meth:`MachinePark.observe_suite` call,
        which measures only the missing suffixes — serially or over
        ``workers`` processes, under the retry budget, the deadline,
        the journal and *shutdown*.  Each measured campaign is saved to
        the store (a miss), cached and logged as soon as it completes,
        and only then journaled as committed.  A campaign that exhausts
        its budget stays uncached; its incidents are in
        ``failure_report``.
        """
        memory = self._heap_observations if heap else self._observations
        with self._memory_lock:
            missing = [n for n in dict.fromkeys(names) if n not in memory]
        prefixes: dict[str, ObservationSet] = {}
        for name in missing:
            start = telemetry.tick_seconds()
            prefix = (
                ObservationSet(benchmark=name)
                if self.store is None
                else self.store.load_prefix(
                    self._campaign_key(name, heap), self.scale.n_layouts
                )
            )
            if len(prefix) < self.scale.n_layouts:
                prefixes[name] = prefix
                continue
            with self._memory_lock:
                memory[name] = prefix
            self._record(name, heap, 0, telemetry.tick_seconds() - start)
        if not prefixes:
            return
        last = telemetry.tick_seconds()

        def keep(name: str, suffix: Sequence[Observation]) -> None:
            nonlocal last
            prefix = prefixes[name]
            result = ObservationSet(benchmark=name)
            result.extend(prefix.observations)
            result.extend(suffix)
            if self.store is not None:
                self.store.save(self._campaign_key(name, heap), result)
                self.store.stats.record_miss(
                    loaded=len(prefix), measured=len(suffix)
                )
            with self._memory_lock:
                memory[name] = result
            now = telemetry.tick_seconds()
            self._record(name, heap, len(suffix), now - last)
            last = now

        self.park.observe_suite(
            list(prefixes),
            n_layouts=self.scale.n_layouts,
            randomize_heap=heap,
            workers=self.workers,
            start_indices={name: len(p) for name, p in prefixes.items()},
            retry_policy=self.retry_policy,
            report=self.failure_report,
            fail_fast=fail_fast,
            journal=self.journal,
            shutdown=shutdown,
            sink=keep,
        )

    def _campaign(self, name: str, heap: bool) -> ObservationSet:
        """One campaign from memory, or served now.

        A lazy request always completes its campaign: a drain stops
        only new suite work, and a single campaign has nothing to fail
        fast over.  Exhausting the retry budget raises
        :class:`~repro.errors.CampaignExecutionError` naming the
        campaign.
        """
        memory = self._heap_observations if heap else self._observations
        with self._memory_lock:
            cached = memory.get(name)
        if cached is None:
            self._serve([name], heap, fail_fast=False, shutdown=None)
            with self._memory_lock:
                cached = memory.get(name)
        if cached is None:
            failure = next(
                incident
                for incident in reversed(self.failure_report.failed)
                if incident.benchmark == name and incident.heap == heap
            )
            raise CampaignExecutionError(
                f"campaign {name!r} failed after {failure.attempts} "
                f"attempt(s): {failure.error}",
                benchmark=name,
                attempts=failure.attempts,
            )
        return cached

    def observations(self, name: str) -> ObservationSet:
        """The code-reordering campaign for one benchmark (cached)."""
        return self._campaign(name, heap=False)

    def heap_observations(self, name: str) -> ObservationSet:
        """The code+heap randomization campaign (cached)."""
        return self._campaign(name, heap=True)

    def prefetch(
        self, names: Sequence[str] | None = None, heap: bool = False
    ) -> None:
        """Warm the campaign caches for several benchmarks at once.

        The suite form of the one campaign path (default: the whole
        suite).  Campaigns already in memory or fully present in the
        disk store are loaded in place; the rest are measured by one
        :meth:`MachinePark.observe_suite` call over this laboratory's
        ``workers`` (in-process when 0), on a single-machine park
        carrying this laboratory's machine seed and configuration.
        Partially stored campaigns are resumed: only the missing layout
        suffix is measured.  Once a ``shutdown`` drain is requested no
        new campaign starts.  A campaign that exhausts its budget is
        left uncached and recorded in ``failure_report``; with
        ``fail_fast`` the first one raises
        :class:`~repro.errors.SuiteExecutionError` instead.
        """
        names = list(self.suite) if names is None else names
        self._serve(names, heap, fail_fast=self.fail_fast, shutdown=self.shutdown)

    def model(self, name: str) -> PerformanceModel:
        """The CPI-on-MPKI model of one benchmark."""
        return PerformanceModel.from_observations(self.observations(name))

    def significant_benchmarks(self, alpha: float = 0.05) -> list[str]:
        """Benchmarks whose CPI/MPKI correlation passes the t-test (§6.4)."""
        if self._significant is None:
            names = []
            for name in self.suite:
                try:
                    if self.model(name).is_significant(alpha):
                        names.append(name)
                except ModelError:
                    # Zero-variance MPKI: no line can be fit, so the
                    # benchmark cannot be significant.  Anything else
                    # (measurement failures, bad configs) propagates —
                    # swallowing it would silently hide regressions.
                    continue
            self._significant = names
        return self._significant

    def evaluation(self, name: str) -> PredictorEvaluation:
        """The §7 predictor evaluation for one benchmark (cached).

        L-TAGE is expensive to simulate per layout; at reduced scales it
        is evaluated on the first ``ltage_layouts`` reorderings while
        the cheaper predictors use the full campaign (documented
        scale-reduction; at ``paper`` scale everything uses all 100).
        """
        cached = self._evaluations.get(name)
        if cached is not None:
            return cached
        observations = self.observations(name)
        benchmark = self.benchmark(name)
        fast = PredictorEvaluator(self.interferometer, gas_hybrid_family())
        evaluation = fast.evaluate(benchmark, observations)
        # L-TAGE on a layout subset.
        subset = ObservationSet(benchmark=name)
        subset.extend(observations.observations[: self.scale.ltage_layouts])
        slow = PredictorEvaluator(self.interferometer, [LTagePredictor()])
        ltage_eval = slow.evaluate(benchmark, subset)
        ltage_outcome = ltage_eval.outcomes[0]
        # Re-predict CPI with the *full* model for consistency.
        merged = PredictorEvaluation(
            benchmark=evaluation.benchmark,
            real_mean_mpki=evaluation.real_mean_mpki,
            real_mean_cpi=evaluation.real_mean_cpi,
            real_cpi_confidence=evaluation.real_cpi_confidence,
            outcomes=evaluation.outcomes
            + (
                type(ltage_outcome)(
                    predictor=ltage_outcome.predictor,
                    mean_mpki=ltage_outcome.mean_mpki,
                    predicted_cpi=evaluation.model.predict(ltage_outcome.mean_mpki),
                ),
            ),
            model=evaluation.model,
        )
        self._evaluations[name] = merged
        return merged


_GLOBAL_LAB: Laboratory | None = None


def get_lab() -> Laboratory:
    """The process-wide laboratory (created on first use)."""
    global _GLOBAL_LAB
    if _GLOBAL_LAB is None:
        _GLOBAL_LAB = Laboratory()
    return _GLOBAL_LAB


def reset_lab() -> None:
    """Drop the process-wide laboratory and its caches."""
    global _GLOBAL_LAB
    _GLOBAL_LAB = None
