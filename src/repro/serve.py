"""Campaign-as-a-service: a threaded HTTP server over the campaign store.

Measure once, reuse everywhere — across clients: "the campaign for
benchmark X at N layouts" comes from the :class:`~repro.store.CampaignStore`
or is measured by the :class:`~repro.harness.lab.Laboratory`, and is
rendered by the store's one serializer, so a full-length served
campaign is byte-identical to its store file.

One concurrency model, stdlib threads: :class:`CampaignServer` is a
:class:`http.server.ThreadingHTTPServer`, and one ``threading.Lock``
guards the laboratory, so campaigns are served one at a time.  A
request whose campaign is in flight is *coalesced*: it waits on the
lock and finds the campaign in memory.  At most ``backlog`` other
campaigns wait for the lock; past that, or once draining, a request
gets :class:`~repro.errors.BackpressureError` (HTTP 503) at once.
SIGINT/SIGTERM (:class:`~repro.core.supervise.ShutdownHandler`) drain
the server: admitted requests finish, then the process exits 0.

Endpoints::

    GET /campaign?benchmark=<name>[&layouts=N][&heap=1]  -> campaign JSON
    GET /metrics                                         -> service metrics
    GET /healthz                                         -> "ok"

Run via ``repro-cli serve`` or ``python -m repro.serve``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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

_JSON = "application/json"

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
    """Request accounting, shared by every handler thread under one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(
            ("requests", "served", "coalesced", "rejected", "errors"), 0
        )
        self._latencies: deque = deque(maxlen=_LATENCY_WINDOW)
        self._started = telemetry.tick_seconds()

    def record(self, seconds: float, outcome: str) -> None:
        """Account one finished lookup (outcome: served/rejected/errors)."""
        with self._lock:
            self._counts["requests"] += 1
            self._counts[outcome] += 1
            self._latencies.append(seconds)

    def record_coalesced(self) -> None:
        """A request that piggybacked on an identical in-flight one."""
        with self._lock:
            self._counts["coalesced"] += 1

    def snapshot(self) -> dict:
        """Point-in-time metrics view (percentiles in milliseconds)."""
        with self._lock:
            view: dict = dict(self._counts)
            samples = sorted(self._latencies)
        view["latency_ms"] = {
            "p50": percentile(samples, 0.50) * 1000.0,
            "p99": percentile(samples, 0.99) * 1000.0,
            "samples": len(samples),
        }
        view["uptime_seconds"] = telemetry.tick_seconds() - self._started
        return view


class CampaignService:
    """Coalescing, bounded campaign lookups over one laboratory."""

    def __init__(self, lab: Laboratory, backlog: int = 32) -> None:
        if backlog <= 0:
            raise ConfigurationError(f"backlog must be positive, got {backlog}")
        self._lab = lab
        self._backlog = backlog
        #: The largest layout count this service can serve.
        self.scale_layouts = lab.scale.n_layouts
        self.metrics = ServiceMetrics()
        # The one guard on the laboratory: its memory, store and failure
        # report see one campaign at a time.
        self._lab_lock = threading.Lock()
        # Admission bookkeeping; never held while waiting for the lab.
        self._admission_lock = threading.Lock()
        self._inflight: set[str] = set()
        self._waiting = 0
        self._draining = False

    def validate(self, request: CampaignRequest) -> None:
        """Reject malformed layout counts before admission."""
        if not 1 <= request.n_layouts <= self.scale_layouts:
            raise ConfigurationError(
                f"layouts must be in [1, {self.scale_layouts}] at scale "
                f"{self._lab.scale.name!r}, got {request.n_layouts}"
            )

    def lookup(self, request: CampaignRequest) -> str:
        """The campaign payload for one request, coalesced and bounded."""
        started = telemetry.tick_seconds()
        outcome = "errors"
        try:
            payload = self._lookup_inner(request)
            outcome = "served"
            return payload
        except BackpressureError:
            outcome = "rejected"
            raise
        finally:
            self.metrics.record(telemetry.tick_seconds() - started, outcome)

    def _lookup_inner(self, request: CampaignRequest) -> str:
        self.validate(request)
        digest = request.digest
        with self._admission_lock:
            owner = digest not in self._inflight
            if owner and self._draining:
                raise BackpressureError("server is draining; retry elsewhere")
            if owner and self._waiting >= self._backlog:
                raise BackpressureError(
                    f"admission queue full ({self._backlog} campaigns "
                    "queued); retry with backoff"
                )
            if owner:
                self._inflight.add(digest)
                self._waiting += 1
        if not owner:
            # It waits on the lab lock, then finds the campaign in the
            # lab's memory: one measurement serves every duplicate.
            self.metrics.record_coalesced()
        try:
            with self._lab_lock:
                if owner:
                    with self._admission_lock:
                        self._waiting -= 1
                return self._measure_payload(request)
        finally:
            if owner:
                with self._admission_lock:
                    self._inflight.discard(digest)

    def _measure_payload(self, request: CampaignRequest) -> str:
        """The first ``n_layouts`` of the campaign, rendered (lab lock held)."""
        lab = self._lab
        campaign = lab.heap_observations if request.heap else lab.observations
        full = campaign(request.benchmark)
        key = lab.campaign_key(request.benchmark, request.heap)
        subset = ObservationSet(benchmark=request.benchmark)
        subset.extend(full.observations[: request.n_layouts])
        return dump_campaign(key, subset)

    def saturation(self) -> dict:
        """Lab-lock and admission load for the metrics endpoint."""
        busy = int(self._lab_lock.locked())
        with self._admission_lock:
            return {
                "workers": 1,
                "busy": busy,
                "saturation": float(busy),
                "queue_depth": self._waiting,
                "queue_capacity": self._backlog,
                "inflight": len(self._inflight),
            }

    def drain(self) -> None:
        """Reject new campaigns from now on; admitted ones still finish."""
        with self._admission_lock:
            self._draining = True

    def metrics_payload(self) -> str:
        """The ``/metrics`` document: outcomes, pool load, store counters."""
        view = self.metrics.snapshot()
        view["pool"] = self.saturation()
        if self._lab.store is not None:
            view["store"] = self._lab.store.stats.snapshot()
        # sort_keys: the metrics document is diffable across scrapes.
        return json.dumps(view, indent=1, sort_keys=True) + "\n"


class _CampaignHandler(BaseHTTPRequestHandler):
    """One request per connection, answered in plain text or JSON."""

    timeout = 30  # seconds: an idle client cannot hold the drain open

    def log_message(self, format, *args) -> None:
        pass  # no per-request stderr lines; /metrics counts requests

    def parse_request(self) -> bool:
        # The request line is "GET TARGET VERSION"; the headers are read
        # and ignored, since every answer closes the connection.
        while self.rfile.readline(65537) not in (b"\r\n", b"\n", b""):
            pass
        words = self.raw_requestline.decode("latin-1").split()
        if len(words) != 3:
            self._reply("400 Bad Request", "malformed request line\n")
        elif words[0] != "GET":
            self._reply("405 Method Not Allowed", "GET only\n")
        else:
            self.command, self.path, self.request_version = words
            return True
        return False

    def do_GET(self) -> None:
        parts = urlsplit(self.path)
        if parts.path == "/healthz":
            self._reply("200 OK", "ok\n")
        elif parts.path == "/metrics":
            self._reply("200 OK", self.server.service.metrics_payload(), _JSON)
        elif parts.path == "/campaign":
            self._campaign(parse_qs(parts.query))
        else:
            self._reply("404 Not Found", f"no route {parts.path}\n")

    def _campaign(self, query: dict) -> None:
        service = self.server.service
        benchmarks = query.get("benchmark", [])
        if len(benchmarks) != 1:
            message = "exactly one benchmark=<name> parameter is required"
            return self._reply("400 Bad Request", f"{message}\n")
        try:
            n_layouts = int(query.get("layouts", [service.scale_layouts])[0])
            heap = query.get("heap", ["0"])[0] not in ("0", "", "false")
        except ValueError:
            return self._reply("400 Bad Request", "layouts must be an integer\n")
        request = CampaignRequest(benchmarks[0], n_layouts, heap)
        try:
            payload = service.lookup(request)
        except BackpressureError as exc:
            return self._reply("503 Service Unavailable", f"{exc}\n")
        except (WorkloadError, KeyError) as exc:
            return self._reply("404 Not Found", f"unknown benchmark: {exc}\n")
        except ConfigurationError as exc:
            return self._reply("400 Bad Request", f"{exc}\n")
        except ReproError as exc:
            return self._reply("500 Internal Server Error", f"{exc}\n")
        self._reply("200 OK", payload, _JSON)

    def _reply(self, status: str, body: str, content_type: str = "text/plain") -> None:
        payload = body.encode()
        head = (
            f"HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        )
        self.close_connection = True
        try:
            self.wfile.write(head.encode() + payload)
        except OSError:
            pass  # client went away; nothing to answer


class CampaignServer(ThreadingHTTPServer):
    """Threaded HTTP front end over a campaign service (bound at init)."""

    # Non-daemon handler threads: server_close() joins them, so a drain
    # answers every admitted request.
    daemon_threads = False

    def __init__(
        self,
        service: CampaignService,
        host: str = "127.0.0.1",
        port: int = 8771,
        shutdown: ShutdownHandler | None = None,
    ) -> None:
        super().__init__((host, port), _CampaignHandler)
        self.service = service
        self.port: int = self.server_address[1]
        self._drain_signal = shutdown if shutdown is not None else ShutdownHandler()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Accept connections on a server thread."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="campaign-server"
        )
        self._thread.start()

    def serve_until_shutdown(self) -> None:
        """Serve until the shutdown handler fires, then drain."""
        self.start()
        print(
            f"serving campaigns on http://{self.server_address[0]}:{self.port} "
            f"(scale {self.service._lab.scale.name})",
            flush=True,
        )
        try:
            self._drain_signal.wait()
        finally:
            self.drain()

    def drain(self) -> None:
        """Reject new campaigns, stop accepting, finish admitted requests."""
        self.service.drain()
        if self._thread is not None:
            self.shutdown()
            self._thread.join()
        # Joins every handler thread: admitted requests are answered.
        self.server_close()


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
    parser.add_argument("--port", type=int, default=8771, help="0 picks a free port")
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="campaign store directory (misses re-measure without one)",
    )
    parser.add_argument("--backlog", type=int, default=32, help="admission queue bound")
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
            server = CampaignServer(service, args.host, args.port, shutdown)
            server.serve_until_shutdown()
    except KeyboardInterrupt:
        # Second signal: the operator escalated past the drain.
        print("drain aborted by second signal", file=sys.stderr)
        return 1
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
