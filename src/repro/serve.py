"""Campaign-as-a-service: an asyncio server over the campaign store.

The paper's economics are measure-once, reuse everywhere; this module
extends the reuse across *clients*: a long-running process serves
interferometry queries — "the campaign for benchmark X at N layouts" —
over HTTP, answering from the content-addressed
:class:`~repro.store.CampaignStore` and computing misses through the
owning :class:`~repro.harness.lab.Laboratory`.
Responses are the store's one serializer,
:func:`~repro.store.dump_campaign`, so a served campaign of a stored
campaign's full length is byte-identical to its store file.

Architecture (the event-loop contract the ASYNC lint tier enforces):

* **Loop side** — asyncio-streams HTTP (:class:`CampaignServer`),
  request coalescing (identical in-flight campaign keys share one
  future), metrics.  Nothing here blocks: ASYNC001 is the proof
  obligation.
* **Executor side** — measurement runs on one executor thread via
  ``loop.run_in_executor``, fed by one queue worker: campaigns are
  coarse units of work served one at a time (the lab's own
  ``workers`` fan-out parallelizes *within* one).  A
  ``threading.Lock`` still guards the laboratory, which the loop and
  main threads also touch.
* **Backpressure** — admission is a bounded ``asyncio.Queue``; a full
  queue rejects with :class:`~repro.errors.BackpressureError`
  (HTTP 503) instead of queueing unboundedly (ASYNC004).
* **Drain** — a :class:`~repro.core.supervise.ShutdownHandler` turns
  SIGINT/SIGTERM into a drain: the listener closes, queued and
  in-flight requests finish, the worker joins, and the process exits 0.

Endpoints::

    GET /campaign?benchmark=<name>[&layouts=N][&heap=1]  -> campaign JSON
    GET /metrics                                         -> service metrics
    GET /healthz                                         -> "ok"

Run via ``repro-cli serve`` or ``python -m repro.serve``.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import sys
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro import telemetry
from repro.core.observations import ObservationSet
from repro.core.supervise import ShutdownHandler
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    ReproError,
    WorkloadError,
)
from repro.harness.lab import Laboratory, scale_from_env
from repro.store import dump_campaign

_EXIT_OK = 0
_EXIT_PARTIAL = 1

#: Latency samples kept for percentile estimates (bounded by design).
_LATENCY_WINDOW = 4096


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted sample list."""
    if not samples:
        return 0.0
    rank = max(0, min(len(samples) - 1, int(q * len(samples) + 0.5) - 1))
    return samples[rank]


@dataclass(frozen=True)
class CampaignRequest:
    """One validated campaign query."""

    benchmark: str
    n_layouts: int
    heap: bool = False

    @property
    def digest(self) -> str:
        """In-process coalescing key (the lab fixes config and seed)."""
        return f"{self.benchmark}|{int(self.heap)}|{self.n_layouts}"


class ServiceMetrics:
    """Loop-confined request accounting (mutated only on the loop)."""

    def __init__(self) -> None:
        self.requests = 0
        self.served = 0
        self.coalesced = 0
        self.rejected = 0
        self.errors = 0
        self._latencies: deque = deque(maxlen=_LATENCY_WINDOW)
        self._started = telemetry.tick_seconds()

    def record(self, seconds: float, outcome: str) -> None:
        """Account one finished lookup (outcome: served/rejected/error)."""
        self.requests += 1
        self._latencies.append(seconds)
        if outcome == "served":
            self.served += 1
        elif outcome == "rejected":
            self.rejected += 1
        else:
            self.errors += 1

    def record_coalesced(self) -> None:
        """A request that piggybacked on an identical in-flight one."""
        self.coalesced += 1

    def snapshot(self) -> dict:
        """Point-in-time metrics view (percentiles in milliseconds)."""
        samples = sorted(self._latencies)
        return {
            "requests": self.requests,
            "served": self.served,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "errors": self.errors,
            "latency_ms": {
                "p50": percentile(samples, 0.50) * 1000.0,
                "p99": percentile(samples, 0.99) * 1000.0,
                "samples": len(samples),
            },
            "uptime_seconds": telemetry.tick_seconds() - self._started,
        }


@dataclass(frozen=True)
class _Job:
    """One admitted request travelling queue -> worker -> executor."""

    request: CampaignRequest
    future: asyncio.Future
    digest: str


class CampaignService:
    """Coalescing, bounded-queue campaign lookups over one laboratory."""

    def __init__(self, lab: Laboratory, backlog: int = 32) -> None:
        if backlog <= 0:
            raise ConfigurationError(f"backlog must be positive, got {backlog}")
        self._lab = lab
        self._backlog = backlog
        self._metrics = ServiceMetrics()
        # The loop and main threads reach the laboratory too; the lock
        # keeps its memoization and store to one campaign at a time
        # (ASYNC003's discipline).
        self._measure_lock = threading.Lock()
        self._executor = None
        self._queue: asyncio.Queue | None = None
        self._inflight: dict = {}
        self._worker_task: asyncio.Task | None = None
        self._busy = 0
        self._draining = False

    @property
    def metrics(self) -> ServiceMetrics:
        return self._metrics

    @property
    def scale_layouts(self) -> int:
        """The largest layout count this service can serve."""
        return self._lab.scale.n_layouts

    def start(self) -> None:
        """Create the queue and the worker task (requires a running loop)."""
        from concurrent.futures import ThreadPoolExecutor

        # The bound is validated configuration, not a literal; ASYNC004
        # accepts a variable maxsize for exactly this shape.
        self._queue = asyncio.Queue(maxsize=self._backlog)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="campaign-worker"
        )
        self._worker_task = asyncio.create_task(self._worker())

    def validate(self, request: CampaignRequest) -> None:
        """Reject malformed layout counts before admission."""
        if not 1 <= request.n_layouts <= self.scale_layouts:
            raise ConfigurationError(
                f"layouts must be in [1, {self.scale_layouts}] at scale "
                f"{self._lab.scale.name!r}, got {request.n_layouts}"
            )

    async def lookup(self, request: CampaignRequest) -> str:
        """The campaign payload for one request, coalesced and queued."""
        started = telemetry.tick_seconds()
        try:
            payload = await self._lookup_inner(request)
        except BackpressureError:
            self._metrics.record(
                telemetry.tick_seconds() - started, "rejected"
            )
            raise
        except Exception:
            self._metrics.record(telemetry.tick_seconds() - started, "error")
            raise
        self._metrics.record(telemetry.tick_seconds() - started, "served")
        return payload

    async def _lookup_inner(self, request: CampaignRequest) -> str:
        self.validate(request)
        if self._queue is None:
            raise ConfigurationError("service not started")
        existing = self._inflight.get(request.digest)
        if existing is not None:
            self._metrics.record_coalesced()
            # shield: one awaiter being cancelled (client disconnect)
            # must not cancel the measurement every coalesced request
            # shares.
            return await asyncio.shield(existing)
        if self._draining:
            raise BackpressureError("server is draining; retry elsewhere")
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[request.digest] = future
        try:
            self._queue.put_nowait(
                _Job(request=request, future=future, digest=request.digest)
            )
        except asyncio.QueueFull:
            self._inflight.pop(request.digest, None)
            raise BackpressureError(
                f"admission queue full ({self._backlog} campaigns queued); "
                "retry with backoff"
            ) from None
        return await asyncio.shield(future)

    async def _worker(self) -> None:
        """The queue-draining worker: loop side of the executor bridge."""
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            self._busy += 1
            try:
                payload = await loop.run_in_executor(
                    self._executor,
                    functools.partial(self._measure_payload, job.request),
                )
            except asyncio.CancelledError:
                if not job.future.done():
                    job.future.set_exception(
                        BackpressureError("server draining; campaign aborted")
                    )
                raise
            except Exception as exc:
                if not job.future.done():
                    job.future.set_exception(exc)
            else:
                if not job.future.done():
                    job.future.set_result(payload)
            finally:
                self._busy -= 1
                self._inflight.pop(job.digest, None)
                self._queue.task_done()

    def _measure_payload(self, request: CampaignRequest) -> str:
        """Executor side: serve from store/lab, render the envelope.

        Every observation is a pure function of its campaign key and
        layout index, and the envelope is the store's own serializer,
        so a full-length payload is byte-identical to the store file.
        """
        with self._measure_lock:
            if request.heap:
                full = self._lab.heap_observations(request.benchmark)
            else:
                full = self._lab.observations(request.benchmark)
        key = self._lab.campaign_key(request.benchmark, request.heap)
        subset = ObservationSet(benchmark=request.benchmark)
        subset.extend(full.observations[: request.n_layouts])
        return dump_campaign(key, subset)

    def saturation(self) -> dict:
        """Worker/queue load view for the metrics endpoint."""
        depth = 0 if self._queue is None else self._queue.qsize()
        return {
            "workers": 1,
            "busy": self._busy,
            "saturation": float(self._busy),
            "queue_depth": depth,
            "queue_capacity": self._backlog,
            "inflight": len(self._inflight),
        }

    async def drain(self) -> None:
        """Finish queued and in-flight campaigns, then stop the worker."""
        self._draining = True
        if self._queue is not None:
            await self._queue.join()
        if self._worker_task is not None:
            self._worker_task.cancel()
            try:
                await self._worker_task
            except asyncio.CancelledError:
                pass
        if self._executor is not None:
            # All campaigns are done (queue joined), so this returns
            # without blocking the loop beyond thread teardown.
            self._executor.shutdown(wait=True)


class CampaignServer:
    """Minimal asyncio-streams HTTP front end over a campaign service."""

    def __init__(
        self,
        service: CampaignService,
        host: str = "127.0.0.1",
        port: int = 8771,
        shutdown: ShutdownHandler | None = None,
        poll_seconds: float = 0.1,
    ) -> None:
        self._service = service
        self._host = host
        self._requested_port = port
        self._shutdown = shutdown
        self._poll_seconds = poll_seconds
        self._server = None
        self.port: int | None = None

    async def start(self) -> None:
        """Bind the listener and start the service worker."""
        self._service.start()
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def _drain_requested(self) -> bool:
        return self._shutdown is not None and self._shutdown.requested

    async def serve_until_shutdown(self) -> None:
        """Serve until the shutdown handler fires, then drain."""
        await self.start()
        print(
            f"serving campaigns on http://{self._host}:{self.port} "
            f"(scale {self._service._lab.scale.name})",
            flush=True,
        )
        try:
            while not self._drain_requested():
                await asyncio.sleep(self._poll_seconds)
        finally:
            await self.drain()

    async def drain(self) -> None:
        """Stop accepting, finish in-flight work, join the worker."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._service.drain()

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            status, body, content_type = await self._respond(request_line)
            payload = body.encode()
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                ).encode()
            )
            writer.write(payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, request_line: bytes) -> tuple[str, str, str]:
        """Route one request line to ``(status, body, content_type)``."""
        try:
            method, target, _version = request_line.decode().split()
        except ValueError:
            return "400 Bad Request", "malformed request line\n", "text/plain"
        if method != "GET":
            return "405 Method Not Allowed", "GET only\n", "text/plain"
        parts = urlsplit(target)
        if parts.path == "/healthz":
            return "200 OK", "ok\n", "text/plain"
        if parts.path == "/metrics":
            return "200 OK", self._metrics_payload(), "application/json"
        if parts.path == "/campaign":
            return await self._campaign_response(parse_qs(parts.query))
        return "404 Not Found", f"no route {parts.path}\n", "text/plain"

    def _metrics_payload(self) -> str:
        view = self._service._metrics.snapshot()
        view["pool"] = self._service.saturation()
        if self._service._lab.store is not None:
            view["store"] = self._service._lab.store.stats.snapshot()
        # sort_keys: the metrics document is diffable across scrapes.
        return json.dumps(view, indent=1, sort_keys=True) + "\n"

    async def _campaign_response(self, query: dict) -> tuple[str, str, str]:
        benchmarks = query.get("benchmark", [])
        if len(benchmarks) != 1:
            return (
                "400 Bad Request",
                "exactly one benchmark=<name> parameter is required\n",
                "text/plain",
            )
        try:
            n_layouts = int(query.get("layouts", [self._service.scale_layouts])[0])
            heap = query.get("heap", ["0"])[0] not in ("0", "", "false")
        except ValueError:
            return "400 Bad Request", "layouts must be an integer\n", "text/plain"
        request = CampaignRequest(
            benchmark=benchmarks[0], n_layouts=n_layouts, heap=heap
        )
        try:
            payload = await self._service.lookup(request)
        except BackpressureError as exc:
            return "503 Service Unavailable", f"{exc}\n", "text/plain"
        except (WorkloadError, KeyError) as exc:
            return "404 Not Found", f"unknown benchmark: {exc}\n", "text/plain"
        except ConfigurationError as exc:
            return "400 Bad Request", f"{exc}\n", "text/plain"
        except ReproError as exc:
            return "500 Internal Server Error", f"{exc}\n", "text/plain"
        return "200 OK", payload, "application/json"


def main(argv: list[str] | None = None) -> int:
    """``repro-cli serve`` / ``python -m repro.serve`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-cli serve",
        description=(
            "serve interferometry campaigns over HTTP from the "
            "content-addressed campaign store (scale from REPRO_SCALE)"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8771, help="0 picks a free port"
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="campaign store directory (misses re-measure without one)",
    )
    parser.add_argument(
        "--backlog", type=int, default=32, help="admission queue bound"
    )
    parser.add_argument("--machine-seed", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        with ShutdownHandler() as shutdown:
            lab = Laboratory(
                scale=scale_from_env(),
                machine_seed=args.machine_seed,
                cache_dir=args.cache_dir,
                shutdown=shutdown,
            )
            service = CampaignService(lab, backlog=args.backlog)
            server = CampaignServer(
                service, host=args.host, port=args.port, shutdown=shutdown
            )
            asyncio.run(server.serve_until_shutdown())
    except KeyboardInterrupt:
        # Second signal: the operator escalated past the drain.
        print("drain aborted by second signal", file=sys.stderr)
        return _EXIT_PARTIAL
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    view = service.metrics.snapshot()
    summary = (
        f"drained: {view['served']} campaign(s) served, "
        f"{view['coalesced']} coalesced, {view['rejected']} rejected"
    )
    if lab.store is not None:
        summary += f"; store: {lab.store.stats.summary()}"
    print(summary)
    return _EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
