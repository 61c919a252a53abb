"""Supervised execution primitives: deadlines, circuit breaker, shutdown.

The paper's campaigns run for days across four machines (§5.4); at that
horizon the interesting failures are not crashes (PR 2's territory) but
*silence* — a worker that never returns — and *termination* — an
operator or scheduler killing the process mid-suite.  This module holds
the three mechanisms the campaign supervisors compose against them:

* :func:`run_with_deadline` — a monotonic-clock watchdog for the serial
  path: the campaign runs in a daemon thread and a hang surfaces as a
  :class:`~repro.errors.CampaignTimeoutError` after ``deadline_seconds``
  instead of blocking forever.  (The pool path gets the same guarantee
  from ``future.result(timeout=...)`` plus killing the worker.)
* :class:`CircuitBreaker` — after K *consecutive* worker-pool failures
  (broken pool or deadline expiry) the suite stops re-creating pools
  and degrades the remainder to supervised serial execution; the trip
  reason is recorded in the :class:`~repro.faults.FailureReport`.
* :class:`ShutdownHandler` — SIGINT/SIGTERM become a *drain* request
  checked at safe points between campaigns: in-flight work completes
  (and, with a campaign store, is saved there), nothing new starts, and
  the process exits with the documented partial-results code; a rerun
  on the same store measures exactly the missing campaigns.

Everything here lives outside the measurement closure: supervision
decides *when and where* a campaign runs, never *what* it measures, so
recovered results stay bit-identical (each campaign is a pure function
of its key).
"""

from __future__ import annotations

import signal
import threading
from typing import Callable, TypeVar

from repro import telemetry
from repro.errors import (
    CampaignTimeoutError,
    ConfigurationError,
    ShutdownRequested,
)

__all__ = [
    "DEFAULT_BREAKER_THRESHOLD",
    "CircuitBreaker",
    "ShutdownHandler",
    "run_with_deadline",
]

T = TypeVar("T")

#: Consecutive worker-pool failures tolerated before the breaker trips
#: and the remainder of a suite degrades to supervised serial execution.
DEFAULT_BREAKER_THRESHOLD = 3


class _Outcome:
    """Result slot shared between the watchdog and its work thread."""

    __slots__ = ("value", "error", "done")

    def __init__(self) -> None:
        self.value: object = None
        self.error: BaseException | None = None
        self.done = False


def run_with_deadline(
    fn: Callable[[], T],
    deadline_seconds: float | None,
    describe: str = "task",
) -> T:
    """Run ``fn()`` under a wall-clock deadline (the serial watchdog).

    ``fn`` executes in a daemon thread while this thread watches a
    monotonic clock.  On expiry a
    :class:`~repro.errors.CampaignTimeoutError` is raised and the
    worker thread is *abandoned* — a truly hung function cannot be
    killed in-process, but a daemon thread dies with the process and
    injected hangs (:func:`repro.faults.hang`) are bounded by the
    plan's ``hang_seconds``.  With ``deadline_seconds=None`` the call
    is a plain ``fn()`` — zero supervision overhead.

    The abandoned thread's eventual result (or error) is discarded; the
    caller re-runs the same pure function under its retry budget, so
    recovery is bit-identical.
    """
    if deadline_seconds is None:
        return fn()
    if deadline_seconds <= 0:
        raise ConfigurationError(
            f"deadline_seconds must be > 0, got {deadline_seconds}"
        )
    outcome = _Outcome()

    def work() -> None:
        try:
            outcome.value = fn()
        except BaseException as exc:  # propagated below, never swallowed
            outcome.error = exc
        finally:
            outcome.done = True

    thread = threading.Thread(
        target=work, name=f"deadline-watchdog:{describe}", daemon=True
    )
    started = telemetry.tick_seconds()
    thread.start()
    remaining = deadline_seconds
    while remaining > 0:
        thread.join(remaining)
        if not thread.is_alive():
            break
        # join() can return early; re-check against the monotonic clock.
        remaining = deadline_seconds - (telemetry.tick_seconds() - started)
    if thread.is_alive() or not outcome.done:
        raise CampaignTimeoutError(
            f"{describe} exceeded its {deadline_seconds:g}s deadline; "
            "execution abandoned",
            benchmark=describe,
            deadline_seconds=deadline_seconds,
        )
    if outcome.error is not None:
        raise outcome.error
    return outcome.value  # type: ignore[return-value]


class CircuitBreaker:
    """Trip after K consecutive worker-pool failures.

    The parallel suite path re-creates its process pool after a break
    (a killed hung worker, a hard-crashed one) so healthy campaigns
    keep their parallelism — but a systematically failing environment
    would re-create pools forever.  The breaker counts *consecutive*
    pool failures; at ``threshold`` it trips, the suite stops paying
    pool-construction cost, and the remainder runs supervised-serially.
    A completed campaign resets the count (the pool is evidently
    functional); a tripped breaker stays tripped for the rest of the
    suite.
    """

    def __init__(self, threshold: int = DEFAULT_BREAKER_THRESHOLD) -> None:
        if threshold < 1:
            raise ConfigurationError(
                f"breaker threshold must be >= 1, got {threshold}"
            )
        self.threshold = threshold
        self.consecutive_failures = 0
        self.tripped = False
        self.reason: str | None = None

    def record_success(self) -> None:
        """A campaign completed in the pool: the failure streak resets."""
        if not self.tripped:
            self.consecutive_failures = 0

    def record_failure(self, kind: str) -> bool:
        """One worker-pool failure; returns True if the breaker is tripped."""
        self.consecutive_failures += 1
        if not self.tripped and self.consecutive_failures >= self.threshold:
            self.tripped = True
            self.reason = (
                f"{self.consecutive_failures} consecutive worker-pool "
                f"failure(s), last: {kind}; degrading the remaining "
                "campaigns to supervised serial execution"
            )
        return self.tripped


class ShutdownHandler:
    """Turn SIGINT/SIGTERM into a graceful drain request.

    While installed (as a context manager), the first signal only sets
    :attr:`requested`; supervisors poll it (or call :meth:`check`)
    between campaigns, finish what is in flight, and exit with the
    partial-results code.  A *second* signal restores
    the previous handlers and re-raises — the operator's escalation
    path when draining is not fast enough.

    Installation is a no-op outside the main thread (Python only
    delivers signals there); :meth:`request` provides the programmatic
    equivalent for tests and embedders.
    """

    def __init__(self) -> None:
        # An Event, not a bool: set()/is_set() are atomic on the C
        # object, so the signal context and any polling thread agree
        # without a lock (CONC002's sanctioned Event discipline).
        self._requested = threading.Event()
        self.signal_name: str | None = None
        self._previous: list[tuple[int, object]] = []

    @property
    def requested(self) -> bool:
        """True once a shutdown signal (or :meth:`request`) arrived."""
        return self._requested.is_set()

    def request(self, name: str = "request()") -> None:
        """Programmatically request a drain (what a signal would do)."""
        # Name first, then the event: a reader that observes the event
        # set is guaranteed to observe the name that caused it.
        if self.signal_name is None:
            self.signal_name = name
        self._requested.set()

    def wait(self) -> None:
        """Block until a drain is requested (on a helper thread: a signal
        handled while ``Event.wait`` briefly holds the event's lock would
        deadlock in :meth:`request` on that lock)."""
        waiter = threading.Thread(target=self._requested.wait, daemon=True)
        waiter.start()
        waiter.join()

    def check(self) -> None:
        """Raise :class:`~repro.errors.ShutdownRequested` if draining."""
        if self._requested.is_set():
            raise ShutdownRequested(
                f"graceful shutdown requested ({self.signal_name}); "
                "draining in-flight campaigns",
                signal_name=self.signal_name,
            )

    def _handle(self, signum: int, frame: object) -> None:
        if self._requested.is_set():
            # Second signal: the operator wants out *now*.  Restore the
            # previous handlers and re-deliver default behaviour.
            self._restore()
            # repro: allow-EXC001 the escalation path must abort the drain the way an unhandled signal would; KeyboardInterrupt is the documented contract for a second SIGINT
            raise KeyboardInterrupt(
                f"second {signal.Signals(signum).name}; aborting drain"
            )
        self.request(signal.Signals(signum).name)

    def _restore(self) -> None:
        # Swap the list out with one plain (GIL-atomic) store and walk
        # the local copy: the signal context and the main context can
        # both call _restore without a torn pop()-driven interleaving,
        # and a second restore sees an empty list (idempotent).
        previous = self._previous
        self._previous = []
        for signum, handler in reversed(previous):
            signal.signal(signum, handler)

    def __enter__(self) -> "ShutdownHandler":
        if threading.current_thread() is not threading.main_thread():
            return self
        installed: list[tuple[int, object]] = []
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                installed.append((signum, signal.getsignal(signum)))
                signal.signal(signum, self._handle)
        except BaseException:
            # A partial install may not leak: put back whatever was
            # replaced before re-raising.
            for signum, handler in reversed(installed):
                signal.signal(signum, handler)
            raise
        # Publish with a single atomic store only once fully installed.
        self._previous = installed
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._restore()
