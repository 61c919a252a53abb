"""Deterministic fault injection and supervision primitives.

The paper's method is built to survive noisy measurement: counter reads
jitter, so the protocol takes medians over repeated runs and regression
absorbs what remains (§5.5).  This module extends that stance from
*noise* to *failure*: an injectable, seeded :class:`FaultPlan` can make
counter reads raise, return garbled values, or stall; make campaign
workers crash; and tear store files mid-write — while the supervision
layer (read-level re-reads, campaign-level retries with exponential
backoff, parallel→serial degradation, cache quarantine) keeps every
recovered result **bit-identical** to a fault-free run, because each
measurement is a pure function of (machine seed, benchmark, layout
index).

Usage::

    from repro import faults
    from repro.faults import FaultPlan

    with faults.injected(FaultPlan(seed=7, flaky_read=0.1)):
        observations = interferometer.observe(benchmark, n_layouts=40)
    # observations are bit-identical to a fault-free campaign

The environment variable ``REPRO_FAULT_PLAN`` installs a plan for the
whole process (e.g. ``REPRO_FAULT_PLAN=flaky`` for the canned flaky
profile, or an explicit ``"seed=7,flaky_read=0.1,torn_write=0.05"``);
the CLI flag ``--fault-plan`` overrides it.  With no plan installed
every hook is a ``None`` check — zero cost on the measurement path.

Every decision is a deterministic function of ``(plan seed, fault
site, site key, occurrence number)``, so a plan reproduces the same
fault schedule on every run, and a *retried* operation draws a fresh
decision (the occurrence number advanced) — exactly how a transient
real-world fault behaves.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ConfigurationError
from repro.rng import derive_seed

#: Decision resolution: rates are compared against a 32-bit hash slice.
_RESOLUTION = 1 << 32

#: Default campaign retry budget when neither the caller nor
#: ``REPRO_MAX_RETRIES`` says otherwise.
DEFAULT_MAX_RETRIES = 2

#: Canned fault profiles selectable by name (CLI ``--fault-plan`` and
#: the ``REPRO_FAULT_PLAN`` environment variable).  ``flaky`` is the CI
#: smoke profile: ~10% of counter reads fail transiently, which the
#: read-level re-read layer absorbs without any campaign retries.
CANNED_PLANS: dict[str, str] = {
    "flaky": "seed=0xF1A7,flaky_read=0.10",
    "chaos": (
        "seed=0xC405,flaky_read=0.10,garbled_read=0.05,stalled_read=0.02,"
        "torn_write=0.10,worker_crash=0.25"
    ),
    "hung": "seed=0x4A46,worker_hang=0.30,hang_seconds=20",
}

_RATE_FIELDS = (
    "flaky_read",
    "garbled_read",
    "stalled_read",
    "torn_write",
    "worker_crash",
    "worker_hang",
)


@dataclass
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    Parameters
    ----------
    seed:
        Root of every fault decision; two plans with equal fields
        produce identical fault schedules.
    flaky_read:
        Probability a counter read raises
        :class:`~repro.errors.TransientMeasurementError`.
    garbled_read:
        Probability a counter read returns detectably impossible values
        (rejected by validation, then re-read).
    stalled_read:
        Probability a counter read stalls past its deadline
        (:class:`~repro.errors.MeasurementTimeout`).
    torn_write:
        Probability a campaign store write is truncated half-way, as if
        the process died mid-write.
    worker_crash:
        Probability a benchmark's campaign crashes when run in a pool
        worker process.  Not occurrence-keyed: under one plan a
        benchmark either always or never crashes in the pool, which
        keeps the parallel→serial degradation path deterministic.
    worker_hang:
        Probability a benchmark's campaign hangs — blocks without
        returning — wherever it executes (pool worker *or* the serial
        supervised path).  Occurrence-keyed, unlike ``worker_crash``:
        from the supervisor's vantage a hang is transient (the retry
        runs on a fresh worker), so a killed-and-retried campaign draws
        a fresh decision.
    crash_benchmarks:
        Benchmarks whose pool-worker campaigns always crash (test hook
        for "exactly this worker dies").
    hang_benchmarks:
        Benchmarks whose campaign hangs on its *first* execution in
        each process (test hook for "exactly this campaign hangs, then
        recovers when the supervisor kills and retries it").
    hard_crash:
        Crash via ``os._exit`` (killing the worker process, so the pool
        breaks) instead of raising
        :class:`~repro.errors.WorkerCrashError`.
    only_benchmarks:
        When non-empty, faults apply only to these benchmarks.
    stall_seconds:
        Real wall-clock stall before a stalled read times out (0 keeps
        tests fast; the timeout is raised either way).
    hang_seconds:
        How long an injected hang blocks before giving up and resuming
        normally.  A stand-in for "forever" that keeps un-deadlined
        runs (and abandoned watchdog threads) bounded: any deadline
        shorter than this sees a genuine never-returning hang, while a
        run with no deadline merely stalls and still completes with
        bit-identical results.
    """

    seed: int = 0xF417
    flaky_read: float = 0.0
    garbled_read: float = 0.0
    stalled_read: float = 0.0
    torn_write: float = 0.0
    worker_crash: float = 0.0
    worker_hang: float = 0.0
    crash_benchmarks: tuple[str, ...] = ()
    hang_benchmarks: tuple[str, ...] = ()
    hard_crash: bool = False
    only_benchmarks: tuple[str, ...] = ()
    stall_seconds: float = 0.0
    hang_seconds: float = 30.0
    #: Per-process occurrence counters; deliberately excluded from
    #: comparison and pickling so workers start a fresh schedule.
    _counts: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"fault rate {name} must be in [0, 1], got {rate}"
                )
        if self.stall_seconds < 0:
            raise ConfigurationError(
                f"stall_seconds must be >= 0, got {self.stall_seconds}"
            )
        if self.hang_seconds < 0:
            raise ConfigurationError(
                f"hang_seconds must be >= 0, got {self.hang_seconds}"
            )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_counts"] = {}
        return state

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _decide(self, site: str, key: str, rate: float) -> bool:
        """One deterministic draw for (site, key); retries draw afresh."""
        if rate <= 0.0:
            return False
        n = self._counts.get((site, key), 0)
        self._counts[(site, key)] = n + 1
        digest = derive_seed(self.seed, f"{site}/{key}/{n}")
        return (digest % _RESOLUTION) < rate * _RESOLUTION

    def applies_to(self, benchmark: str | None) -> bool:
        """Whether faults target this benchmark (None = unknown → yes)."""
        if not self.only_benchmarks or benchmark is None:
            return True
        return benchmark in self.only_benchmarks

    def read_fault(self, key: str, benchmark: str | None = None) -> str | None:
        """The fault (if any) afflicting one counter read.

        Returns ``"stall"``, ``"flaky"``, ``"garble"``, or ``None``.
        """
        if not self.applies_to(benchmark):
            return None
        if self._decide("read/stall", key, self.stalled_read):
            return "stall"
        if self._decide("read/flaky", key, self.flaky_read):
            return "flaky"
        if self._decide("read/garble", key, self.garbled_read):
            return "garble"
        return None

    def torn_payload(
        self, payload: str, key: str, benchmark: str | None = None
    ) -> str:
        """Possibly truncate a store payload, as a torn write would."""
        if not self.applies_to(benchmark):
            return payload
        if not self._decide("store/tear", key, self.torn_write):
            return payload
        return payload[: max(1, len(payload) // 2)]

    def crashes_worker(self, benchmark: str) -> bool:
        """Whether this benchmark's campaign dies in a pool worker."""
        if not self.applies_to(benchmark):
            return False
        if benchmark in self.crash_benchmarks:
            return True
        if self.worker_crash <= 0.0:
            return False
        digest = derive_seed(self.seed, f"worker/{benchmark}")
        return (digest % _RESOLUTION) < self.worker_crash * _RESOLUTION

    def hangs_worker(self, benchmark: str) -> bool:
        """Whether this campaign execution hangs (this time).

        Unlike :meth:`crashes_worker` the decision is occurrence-keyed:
        a hang looks transient to the supervisor (the killed campaign
        retries on a fresh worker), so each execution draws afresh.
        Forced ``hang_benchmarks`` hang exactly once per process —
        enough to exercise the watchdog while letting the retried
        attempt recover.
        """
        if not self.applies_to(benchmark):
            return False
        if benchmark in self.hang_benchmarks:
            n = self._counts.get(("worker/hang-forced", benchmark), 0)
            self._counts[("worker/hang-forced", benchmark)] = n + 1
            return n == 0
        return self._decide("worker/hang", benchmark, self.worker_hang)

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan | None":
        """Parse a plan from a spec string.

        Accepts a canned profile name (``flaky``, ``chaos``), the
        literal ``none``/``off``/empty (→ ``None``), or comma-separated
        ``field=value`` pairs, e.g.
        ``"seed=7,flaky_read=0.1,crash_benchmarks=456.hmmer+470.lbm"``.
        Benchmark lists use ``+`` as the separator.
        """
        spec = spec.strip()
        if not spec or spec.lower() in ("none", "off"):
            return None
        spec = CANNED_PLANS.get(spec, spec)
        kwargs: dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, value = part.partition("=")
            name, value = name.strip(), value.strip()
            if not sep or not value:
                raise ConfigurationError(
                    f"fault plan entry {part!r} is not of the form field=value"
                )
            if name == "hard_crash":
                kwargs[name] = value.lower() in ("1", "true", "yes", "on")
                continue
            if name in ("crash_benchmarks", "hang_benchmarks", "only_benchmarks"):
                kwargs[name] = tuple(v for v in value.split("+") if v)
                continue
            if (
                name != "seed"
                and name not in _RATE_FIELDS
                and name not in ("stall_seconds", "hang_seconds")
            ):
                raise ConfigurationError(
                    f"unknown fault plan field {name!r}; known fields: "
                    f"seed, {', '.join(_RATE_FIELDS)}, stall_seconds, "
                    f"hang_seconds, hard_crash, crash_benchmarks, "
                    f"hang_benchmarks, only_benchmarks"
                )
            # ConfigurationError is itself a ValueError, so the numeric
            # conversions sit alone in this try to avoid re-wrapping the
            # unknown-field error above.
            try:
                if name == "seed":
                    kwargs[name] = int(value, 0)
                else:
                    kwargs[name] = float(value)
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad value for fault plan field {name!r}: {value!r}"
                ) from exc
        return cls(**kwargs)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Active plan: process-wide, env-installable, zero-cost when absent.
# ----------------------------------------------------------------------

_UNSET = object()
_active: object = _UNSET


def active_plan() -> FaultPlan | None:
    """The currently installed plan (``None`` = no faults).

    On first call with nothing installed, ``REPRO_FAULT_PLAN`` is
    consulted once; worker processes therefore pick up the same
    environment plan as the parent.
    """
    global _active
    if _active is _UNSET:
        # repro: allow-DET005 REPRO_FAULT_PLAN is the documented fault-injection channel, read once and cached so every retry sees the same plan
        _active = FaultPlan.from_spec(os.environ.get("REPRO_FAULT_PLAN", ""))
    return _active  # type: ignore[return-value]


def install(plan: FaultPlan | None) -> None:
    """Install *plan* process-wide (``None`` disables injection)."""
    global _active
    _active = plan


def clear() -> None:
    """Forget the installed plan; the env var is re-read on next use."""
    global _active
    _active = _UNSET


@contextmanager
def injected(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Temporarily install *plan* (tests and scoped injection)."""
    global _active
    prior = _active
    _active = plan
    try:
        yield plan
    finally:
        _active = prior


@contextmanager
def plan_scope(plan: FaultPlan | None) -> Iterator[None]:
    """Install *plan* if given, else leave the current plan in place.

    Worker entry points use this: a pickled plan travelling with the
    campaign spec takes precedence, while ``None`` keeps whatever the
    worker inherited (e.g. an environment plan).  In the supervising
    process the spec carries the already-active plan itself, which is
    left in place: an abandoned watchdog thread finishing late must not
    restore a plan its caller has since uninstalled.
    """
    if plan is None or plan is _active:
        yield
        return
    with injected(plan):
        yield


def hang(seconds: float) -> None:
    """Block like a hung worker would (injection helper).

    A real hang never returns; this one gives up after *seconds* (the
    plan's ``hang_seconds``) so that runs without a deadline — and the
    daemon watchdog threads that outlive a killed campaign — stay
    bounded.  Any deadline shorter than *seconds* observes a genuine
    hang: the supervisor fires first.
    """
    if seconds > 0:
        time.sleep(seconds)


# ----------------------------------------------------------------------
# Supervision: retry policy and the structured failure report.
# ----------------------------------------------------------------------


def max_retries_from_env(default: int = DEFAULT_MAX_RETRIES) -> int:
    """The campaign retry budget from ``REPRO_MAX_RETRIES`` (or *default*)."""
    # repro: allow-DET005 retry budget is configuration resolved once at RetryPolicy construction, never per-measurement
    raw = os.environ.get("REPRO_MAX_RETRIES")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_MAX_RETRIES must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigurationError(f"REPRO_MAX_RETRIES must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class RetryPolicy:
    """Campaign-level retry budget with exponential backoff.

    ``deadline_seconds`` is the per-campaign execution deadline the
    supervision layer enforces (``None`` = unbounded, the historical
    behaviour).  ``jitter`` > 0 switches the schedule to *decorrelated*
    backoff (each delay drawn between ``backoff_base`` and three times
    the previous delay) — but seeded: the draw is a deterministic
    function of ``(jitter_seed, campaign key, attempt)``, so a rerun
    retries on the identical schedule and recovery stays reproducible.
    ``backoff_total_cap`` bounds the *cumulative* backoff one campaign
    may spend sleeping, so a pathological fault schedule cannot stall
    a suite indefinitely.
    """

    max_retries: int = DEFAULT_MAX_RETRIES
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    deadline_seconds: float | None = None
    jitter: float = 0.0
    jitter_seed: int = 0xB0FF
    backoff_total_cap: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff parameters must be >= 0")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if self.backoff_total_cap < 0:
            raise ConfigurationError(
                f"backoff_total_cap must be >= 0, got {self.backoff_total_cap}"
            )

    @classmethod
    def from_env(
        cls,
        max_retries: int | None = None,
        deadline_seconds: float | None = None,
    ) -> "RetryPolicy":
        """A policy with an explicit budget, or the environment's."""
        if max_retries is None:
            max_retries = max_retries_from_env()
        return cls(max_retries=max_retries, deadline_seconds=deadline_seconds)

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry *attempt* (0-based), capped.

        With ``jitter == 0`` (the default) this is the classic
        ``base * 2^attempt``.  With jitter the schedule is decorrelated
        backoff — ``delay_a = uniform(base, 3 * delay_{a-1})`` — where
        the "uniform" draw is a deterministic hash of
        ``(jitter_seed, key, attempt)`` blended in by the jitter
        fraction, so two campaigns (different *key*) desynchronize
        while a rerun of the same campaign reproduces its schedule.
        """
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        if self.jitter <= 0.0:
            return min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        delay = self.backoff_base
        for a in range(attempt + 1):
            digest = derive_seed(self.jitter_seed, f"backoff/{key}/{a}")
            fraction = (digest % _RESOLUTION) / _RESOLUTION
            spread = max(3.0 * delay - self.backoff_base, 0.0)
            drawn = self.backoff_base + fraction * spread
            exponential = self.backoff_base * (2.0 ** a)
            delay = min(
                self.backoff_cap,
                (1.0 - self.jitter) * exponential + self.jitter * drawn,
            )
        return delay

    def sleep(
        self, attempt: int, key: str = "", already_slept: float = 0.0
    ) -> float:
        """Sleep out the backoff for retry *attempt*; returns seconds slept.

        The delay is clipped so one campaign's cumulative backoff
        (``already_slept`` plus this sleep) never exceeds
        ``backoff_total_cap``; callers thread the running total through.
        """
        delay = self.delay(attempt, key)
        budget = max(self.backoff_total_cap - already_slept, 0.0)
        delay = min(delay, budget)
        if delay > 0:
            time.sleep(delay)
        return delay


@dataclass(frozen=True)
class CampaignIncident:
    """One campaign that needed intervention (or got none that worked)."""

    benchmark: str
    #: ``recovered`` (succeeded after retries), ``degraded`` (pool worker
    #: failed; re-run serially), ``timed_out`` (deadline expired; the
    #: execution was killed and the campaign re-run under the retry
    #: budget), or ``failed`` (retry budget exhausted).
    status: str
    attempts: int
    error: str
    heap: bool = False

    def render(self) -> str:
        """One report line."""
        kind = " (heap)" if self.heap else ""
        return (
            f"{self.status.upper():>9} {self.benchmark}{kind}: "
            f"{self.attempts} attempt(s); {self.error}"
        )


@dataclass
class FailureReport:
    """Structured account of every retried/degraded/failed campaign.

    A suite run completes and reports rather than dying on the first
    fault; ``ok`` is False only when some campaign produced no data.
    ``breaker_tripped`` records why (and that) the worker-pool circuit
    breaker degraded the remainder of a suite to serial execution.
    """

    incidents: list[CampaignIncident] = field(default_factory=list)
    breaker_tripped: str | None = None

    def record(
        self,
        benchmark: str,
        status: str,
        attempts: int,
        error: str,
        heap: bool = False,
    ) -> CampaignIncident:
        """Append one incident."""
        if status not in ("recovered", "degraded", "timed_out", "failed"):
            raise ConfigurationError(f"unknown incident status {status!r}")
        incident = CampaignIncident(
            benchmark=benchmark,
            status=status,
            attempts=attempts,
            error=error,
            heap=heap,
        )
        self.incidents.append(incident)
        return incident

    def _with_status(self, status: str) -> list[CampaignIncident]:
        return [i for i in self.incidents if i.status == status]

    @property
    def recovered(self) -> list[CampaignIncident]:
        """Campaigns that succeeded after one or more retries."""
        return self._with_status("recovered")

    @property
    def degraded(self) -> list[CampaignIncident]:
        """Campaigns re-run serially after their pool worker failed."""
        return self._with_status("degraded")

    @property
    def timed_out(self) -> list[CampaignIncident]:
        """Deadline expiries (one incident per killed execution)."""
        return self._with_status("timed_out")

    @property
    def failed(self) -> list[CampaignIncident]:
        """Campaigns that produced no data despite the full budget."""
        return self._with_status("failed")

    def trip_breaker(self, reason: str) -> None:
        """Record that the worker-pool circuit breaker tripped."""
        self.breaker_tripped = reason

    @property
    def ok(self) -> bool:
        """True when every campaign ultimately produced data."""
        return not self.failed

    def __bool__(self) -> bool:
        return bool(self.incidents) or self.breaker_tripped is not None

    def one_line(self) -> str:
        """Compact summary for exception messages and log lines."""
        summary = (
            f"{len(self.recovered)} recovered, {len(self.degraded)} degraded, "
            f"{len(self.failed)} failed"
        )
        if self.timed_out:
            summary += f", {len(self.timed_out)} timed out"
        return summary

    def render(self) -> str:
        """Multi-line report for CLI output."""
        lines = [f"failure report: {self.one_line()}"]
        if self.breaker_tripped is not None:
            lines.append(f"  circuit breaker TRIPPED: {self.breaker_tripped}")
        lines.extend(f"  {incident.render()}" for incident in self.incidents)
        return "\n".join(lines)
