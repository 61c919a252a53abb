"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single except clause while
letting programming errors (TypeError, etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class TransientError(ReproError):
    """A failure that is expected to succeed if simply retried.

    Because every measurement is a pure function of (machine seed,
    benchmark, layout index), re-running after a transient failure
    reproduces the exact bits a fault-free run would have produced.
    Supervisors retry these; anything else propagates immediately.
    """


class ConfigurationError(ReproError, ValueError):
    """A component was constructed with invalid or inconsistent parameters.

    Also a :class:`ValueError`: invalid-parameter errors historically
    raised ``ValueError``, and callers catching that keep working while
    the campaign path (EXC001) sees a classifiable ReproError.
    """


class LinkError(ReproError):
    """The linker could not produce a valid executable image."""


class AllocationError(ReproError):
    """The randomizing heap allocator could not place an object."""


class MeasurementError(ReproError):
    """A performance-counter measurement request was invalid."""


class WorkerCrashError(TransientError):
    """A campaign worker process died mid-measurement."""


class CampaignTimeoutError(TransientError):
    """A campaign exceeded its deadline and was killed by the supervisor.

    Raised by the deadline watchdog (serial path) or the pool
    supervisor (``future.result(timeout=...)``).  Transient: the hung
    execution is abandoned and the campaign re-runs under the normal
    retry budget, reproducing the exact bits a hang-free run would
    have produced.
    """

    def __init__(
        self,
        message: str,
        *,
        benchmark: str | None = None,
        deadline_seconds: float | None = None,
    ) -> None:
        super().__init__(message)
        self.benchmark = benchmark
        self.deadline_seconds = deadline_seconds


class ShutdownRequested(ReproError):
    """A graceful-shutdown signal arrived and the suite is draining.

    Raised by :meth:`repro.core.supervise.ShutdownHandler.check` at
    safe points between campaigns; the supervisor keeps every completed
    result (in the campaign store, when there is one) and exits with the
    documented partial-results code.  A rerun on the same store measures
    exactly the missing campaigns.
    """

    def __init__(self, message: str, *, signal_name: str | None = None) -> None:
        super().__init__(message)
        self.signal_name = signal_name


class BackpressureError(ReproError):
    """The campaign service's admission queue is full.

    Raised by :class:`repro.serve.CampaignService` when a request
    arrives while its bounded backlog of campaigns waiting for the
    laboratory is full (or while the server is draining).  Deliberately
    *not* transient: the client is being pushed back and should retry
    with its own backoff — the server retrying internally would defeat
    the backpressure contract.
    """


class CorruptCampaignError(ReproError):
    """A persisted campaign file failed integrity checks.

    Stores treat this as a cache miss: the file is quarantined and the
    campaign re-measured, so a bad cache entry can never poison a run.
    """


class CampaignExecutionError(ReproError):
    """A campaign still failed after exhausting its retry budget."""

    def __init__(self, message: str, *, benchmark: str | None = None,
                 attempts: int = 0) -> None:
        super().__init__(message)
        self.benchmark = benchmark
        self.attempts = attempts


class SuiteExecutionError(ReproError):
    """One or more campaigns of a suite run failed after all retries.

    Carries the structured :class:`~repro.faults.FailureReport` naming
    every retried, degraded, and failed campaign.
    """

    def __init__(self, report) -> None:
        super().__init__(f"suite execution failed: {report.one_line()}")
        self.report = report


class DeterminismViolation(ReproError):
    """Nondeterministic runtime behaviour trapped by the sanitizer.

    Raised when :class:`~repro.lint.sanitizer.DeterminismSanitizer` is
    active and library code reaches for a determinism hazard — global
    RNG state, the wall clock, an unsorted directory scan — instead of
    the sanctioned substitutes (:mod:`repro.rng`,
    :mod:`repro.telemetry`, ``sorted(...)``).  This is always a bug in
    the reproduction, never a recoverable condition.
    """


class LintUsageError(ReproError):
    """The determinism linter was invoked with invalid arguments."""


class ModelError(ReproError):
    """A statistical model could not be fit or queried."""


class WorkloadError(ReproError, ValueError):
    """A benchmark specification is unknown or malformed.

    Also a :class:`ValueError` for compatibility with callers that
    predate the exception contract.
    """


class StreamError(ReproError, ValueError):
    """A :mod:`repro.rng` stream was constructed or used incorrectly.

    Also a :class:`ValueError` for compatibility with callers that
    predate the exception contract.
    """


class UnknownBenchmarkError(ReproError, KeyError):
    """A benchmark name has no entry in the table being consulted.

    Also a :class:`KeyError` — lookup call sites historically raised
    ``KeyError`` and some callers catch it by that name.
    """

    def __str__(self) -> str:  # KeyError.__str__ repr-quotes the message
        return Exception.__str__(self)
