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
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

from repro import telemetry
from repro.core.escalation import ALPHA, MAX_ROUNDS, EscalationResult, p_value
from repro.core.evaluate import PredictorEvaluation, PredictorEvaluator
from repro.core.interferometer import Interferometer
from repro.core.model import PerformanceModel
from repro.core.observations import Observation, ObservationSet
from repro.core.park import observe_suite
from repro.core.supervise import ShutdownHandler
from repro.errors import CampaignExecutionError, ConfigurationError
from repro.faults import DEFAULT_MAX_RETRIES, FailureReport, RetryPolicy
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
    from the disk-backed :class:`~repro.store.CampaignStore` by their
    :meth:`campaign_key` before anything is measured.

    Every campaign, lazy, prefetched or escalated (§6.3's rounds,
    :meth:`escalate`), serial or parallel, takes one path: memory
    cache, one store-prefix step, then
    :func:`~repro.core.park.observe_suite` on the campaigns' keys,
    which carry this laboratory's machine seed and configuration.
    ``workers`` sets that call's process-level fan-out (0 =
    in-process); results are bit-identical either way (every
    observation is a pure function of its campaign key and layout
    index).

    Fault tolerance: every campaign runs under the suite's retry budget
    (``max_retries``, default 2) with exponential backoff; transient
    failures — crashed or hung workers — are retried, corrupt cache
    files are quarantined and re-measured, and because both re-run the
    same pure function, recovered campaigns stay bit-identical.  All
    incidents accumulate in
    ``failure_report``; a lazily requested campaign that exhausts its
    budget raises :class:`~repro.errors.CampaignExecutionError`.
    ``fail_fast`` aborts suite prefetches at the first such failure
    instead of continuing with the remaining campaigns.

    Supervision: ``deadline_seconds`` bounds every campaign execution
    (hung campaigns are killed, recorded as *timed_out*, and re-run
    under the retry budget).  The store is the one record of progress:
    a laboratory on the ``cache_dir`` of an interrupted run serves what
    that run saved and, through the store's prefix step, measures
    exactly the missing campaigns.  A
    :class:`~repro.core.supervise.ShutdownHandler` passed as
    ``shutdown`` is polled between prefetched campaigns: once a drain
    is requested, in-flight campaigns finish and nothing new starts.
    """

    def __init__(
        self,
        scale: Scale | None = None,
        machine_seed: int = 1,
        cache_dir: str | Path | None = None,
        workers: int = 0,
        max_retries: int = DEFAULT_MAX_RETRIES,
        fail_fast: bool = False,
        deadline_seconds: float | None = None,
        shutdown: ShutdownHandler | None = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        self.scale = scale if scale is not None else scale_from_env()
        self.machine_seed = machine_seed
        self.workers = workers
        self.retry_policy = RetryPolicy(
            max_retries=max_retries, deadline_seconds=deadline_seconds
        )
        self.fail_fast = fail_fast
        self.shutdown = shutdown
        self.failure_report = FailureReport()
        self.machine = XeonE5440(seed=machine_seed)
        self.interferometer = Interferometer(
            self.machine, trace_events=self.scale.trace_events
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
        #: Experiment results by name, stored by
        #: :func:`repro.harness.result_of`: each experiment runs at most
        #: once per laboratory.
        self.results: dict[str, Any] = {}

    def benchmark(self, name: str) -> Benchmark:
        """Look up a benchmark (suite member or MASE-only)."""
        return self.suite.get(name) or get_benchmark(name)

    # ------------------------------------------------------------------
    # Campaign plumbing: memory cache -> store prefix -> observe_suite.
    # ------------------------------------------------------------------

    def campaign_key(self, name: str, heap: bool) -> CampaignKey:
        """The key of one benchmark's campaign on this lab's machine.

        *heap* selects the code+heap randomization campaign (§1.3)
        instead of the code-reordering one.
        """
        return CampaignKey(
            benchmark=name,
            trace_events=self.interferometer.trace_events,
            runs_per_group=self.interferometer.runs_per_group,
            machine_seed=self.machine_seed,
            config=self.machine.config,
            randomize_heap=heap,
        )

    def _record(
        self, name: str, heap: bool, n_layouts: int, measured: int, seconds: float
    ) -> None:
        record = CampaignRecord(
            benchmark=name,
            heap=heap,
            n_layouts=n_layouts,
            measured=measured,
            seconds=seconds,
        )
        self.campaign_log.append(record)
        if self.on_campaign is not None:
            self.on_campaign(record)

    def _served(
        self, name: str, heap: bool, n_layouts: int
    ) -> ObservationSet | None:
        """The first *n_layouts* layouts of a campaign in memory, if held."""
        memory = self._heap_observations if heap else self._observations
        with self._memory_lock:
            held = memory.get(name)
        if held is None or len(held) < n_layouts:
            return None
        if len(held) == n_layouts:
            return held
        head = ObservationSet(benchmark=name)
        head.extend(held.observations[:n_layouts])
        return head

    def _serve(
        self,
        names: Sequence[str],
        heap: bool,
        fail_fast: bool,
        shutdown: ShutdownHandler | None,
        n_layouts: int,
    ) -> None:
        """Bring campaigns of *n_layouts* layouts into the memory cache.

        The one campaign path.  Memory holds the longest campaign served
        so far; campaigns it already holds in full are skipped.  Each
        other campaign takes one prefix step — with a store, a fully
        stored campaign is served as a hit; otherwise the longer of its
        stored prefix and the shorter campaign in memory (possibly
        empty; a torn write can leave the store behind memory) sets the
        start index of a single
        :func:`~repro.core.park.observe_suite` call, which measures only
        the missing suffixes — serially or over ``workers`` processes,
        under the retry budget, the deadline and *shutdown*.  Each
        measured campaign is saved to the store (a miss), cached and
        logged as soon as it completes; a save only ever lengthens the
        stored campaign, because a stored prefix at least *n_layouts*
        long is a hit.  A campaign that exhausts its budget stays
        uncached; its incidents are in ``failure_report``.
        """
        memory = self._heap_observations if heap else self._observations
        with self._memory_lock:
            held = {name: memory.get(name) for name in dict.fromkeys(names)}
        prefixes: dict[CampaignKey, ObservationSet] = {}
        # Layouts of each prefix read from the store (the rest: memory).
        loaded: dict[CampaignKey, int] = {}
        for name, campaign in held.items():
            if campaign is not None and len(campaign) >= n_layouts:
                continue
            start = telemetry.tick_seconds()
            key = self.campaign_key(name, heap)
            prefix = campaign or ObservationSet(benchmark=name)
            loaded[key] = 0
            if self.store is not None:
                stored = self.store.load_prefix(key, n_layouts)
                if len(stored) >= len(prefix):
                    prefix, loaded[key] = stored, len(stored)
            if len(prefix) < n_layouts:
                prefixes[key] = prefix
                continue
            with self._memory_lock:
                memory[name] = prefix
            self._record(name, heap, n_layouts, 0, telemetry.tick_seconds() - start)
        if not prefixes:
            return
        last = telemetry.tick_seconds()

        def keep(key: CampaignKey, suffix: Sequence[Observation]) -> None:
            nonlocal last
            prefix = prefixes[key]
            result = ObservationSet(benchmark=key.benchmark)
            result.extend(prefix.observations)
            result.extend(suffix)
            if self.store is not None:
                self.store.save(key, result)
                self.store.stats.record_miss(
                    loaded=loaded[key], measured=len(suffix)
                )
            with self._memory_lock:
                memory[key.benchmark] = result
            now = telemetry.tick_seconds()
            self._record(key.benchmark, heap, n_layouts, len(suffix), now - last)
            last = now

        observe_suite(
            list(prefixes),
            n_layouts,
            workers=self.workers,
            start_indices={key: len(p) for key, p in prefixes.items()},
            retry_policy=self.retry_policy,
            report=self.failure_report,
            fail_fast=fail_fast,
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
        n_layouts = self.scale.n_layouts
        cached = self._served(name, heap, n_layouts)
        if cached is None:
            self._serve(
                [name], heap, fail_fast=False, shutdown=None, n_layouts=n_layouts
            )
            cached = self._served(name, heap, n_layouts)
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
        :func:`~repro.core.park.observe_suite` call over this
        laboratory's ``workers`` (in-process when 0), on keys carrying
        this laboratory's machine seed and configuration.
        Partially stored campaigns are resumed: only the missing layout
        suffix is measured.  Once a ``shutdown`` drain is requested no
        new campaign starts.  A campaign that exhausts its budget is
        left uncached and recorded in ``failure_report``; with
        ``fail_fast`` the first one raises
        :class:`~repro.errors.SuiteExecutionError` instead.
        """
        names = list(self.suite) if names is None else names
        self._serve(
            names,
            heap,
            fail_fast=self.fail_fast,
            shutdown=self.shutdown,
            n_layouts=self.scale.n_layouts,
        )

    def model(self, name: str) -> PerformanceModel:
        """The CPI-on-MPKI model of one benchmark."""
        return PerformanceModel.from_observations(self.observations(name))

    def significant_benchmarks(self) -> list[str]:
        """Benchmarks whose CPI/MPKI correlation passes the t-test (§6.4)."""
        if self._significant is None:
            self._significant = [
                name
                for name in self.suite
                if p_value(partial(self.model, name)) <= ALPHA
            ]
        return self._significant

    def escalate(
        self, names: Sequence[str] | None = None
    ) -> dict[str, EscalationResult]:
        """§6.3: add layouts in rounds until each t-test passes.

        Round *k* serves the first *k* × ``scale.n_layouts`` layouts of
        every benchmark (default: the whole suite) not yet significant,
        for up to :data:`~repro.core.escalation.MAX_ROUNDS` rounds —
        100, 200, 300 at ``paper``.  A round is one call of the one
        campaign path, so escalated layouts get this laboratory's
        store, ``workers``, retry budget, deadline and ``shutdown``
        drain like any other campaign, and earlier layouts are never
        re-measured.  Round 1 is the ordinary campaign, tested with
        :meth:`significant_benchmarks`' predicate.  Results are keyed
        by benchmark: a campaign that fails a round keeps its earlier
        rounds' result (one that fails round 1 is absent; its
        incidents are in ``failure_report``), and once a drain is
        requested no further round starts.
        """
        pending = list(dict.fromkeys(self.suite if names is None else names))
        results: dict[str, EscalationResult] = {}
        for rounds in range(1, MAX_ROUNDS + 1):
            n_layouts = rounds * self.scale.n_layouts
            self._serve(
                pending,
                heap=False,
                fail_fast=self.fail_fast,
                shutdown=self.shutdown,
                n_layouts=n_layouts,
            )
            not_yet = []
            for name in pending:
                observations = self._served(name, False, n_layouts)
                if observations is None:
                    continue  # failed or drained: in failure_report
                earlier = results[name].p_values if name in results else ()
                fit = partial(PerformanceModel.from_observations, observations)
                result = EscalationResult(name, observations, earlier + (p_value(fit),))
                results[name] = result
                if not result.significant:
                    not_yet.append(name)
            pending = not_yet
            if not pending or (self.shutdown is not None and self.shutdown.requested):
                break
        return results

    def evaluation(self, name: str) -> PredictorEvaluation:
        """The §7 predictor evaluation for one benchmark (cached).

        L-TAGE is expensive to simulate per layout; at reduced scales it
        is evaluated on the first ``ltage_layouts`` reorderings while
        the cheaper predictors use the full campaign (documented
        scale-reduction; at ``paper`` scale everything uses all 100).
        Every predictor's CPI is predicted by the full campaign's model.
        """
        cached = self._evaluations.get(name)
        if cached is not None:
            return cached
        observations = self.observations(name)
        benchmark = self.benchmark(name)
        layouts = [obs.layout_index for obs in observations]
        mpkis = PredictorEvaluator(self.interferometer, gas_hybrid_family()).mpkis(
            benchmark, layouts
        )
        mpkis |= PredictorEvaluator(self.interferometer, [LTagePredictor()]).mpkis(
            benchmark, layouts[: self.scale.ltage_layouts]
        )
        evaluation = PredictorEvaluation.from_mpkis(observations, mpkis)
        self._evaluations[name] = evaluation
        return evaluation
