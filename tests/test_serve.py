"""The campaign server: coalescing, backpressure, drain, bit-identity.

The serving contract is the paper's purity argument carried across a
socket: every observation is a pure function of (config, machine seed,
benchmark, layout index), so a served campaign must be byte-identical
to the store's :func:`~repro.store.dump_campaign` of the same slice —
and a full-length one to its store file — including when a fault plan
tears the store write it is later served from.  The scheduling tests
pin the thread discipline: identical in-flight requests coalesce onto
one measurement, distinct concurrent campaigns are each measured once,
a full admission backlog rejects instead of buffering, the metrics
count every request, and a drain finishes in-flight work.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import faults
from repro.core.observations import ObservationSet
from repro.errors import BackpressureError, ConfigurationError
from repro.faults import FaultPlan
from repro.harness.lab import Laboratory
from repro.serve import (
    CampaignRequest,
    CampaignServer,
    CampaignService,
    percentile,
)
from repro.store import dump_campaign

from .conftest import TEST_SCALE

BENCH = "429.mcf"
REPO_ROOT = Path(__file__).resolve().parents[1]


def direct_payload(lab: Laboratory, benchmark: str, n_layouts: int) -> str:
    """The reference export the server must reproduce bit-for-bit."""
    full = lab.observations(benchmark)
    key = lab.campaign_key(benchmark, heap=False)
    subset = ObservationSet(benchmark=benchmark)
    subset.extend(full.observations[:n_layouts])
    return dump_campaign(key, subset)


def wait_until(predicate, polls: int = 6000) -> None:
    """Poll *predicate* every 5 ms until it holds (fail after ~30 s)."""
    for _ in range(polls):
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition never held")


def gate_measurements(monkeypatch, lab: Laboratory) -> threading.Event:
    """Hold every code-campaign lookup of *lab* until the event is set."""
    release = threading.Event()
    observations = lab.observations

    def gated(name):
        release.wait(timeout=30)
        return observations(name)

    monkeypatch.setattr(lab, "observations", gated)
    return release


@contextmanager
def serving(lab: Laboratory, **service_kwargs):
    """A started campaign server on a free port, drained on exit.

    Concurrent requests in these tests come from HTTP client threads,
    as they do in production: each one is served on a handler thread.
    """
    server = CampaignServer(CampaignService(lab, **service_kwargs), port=0)
    server.start()
    try:
        yield server
    finally:
        server.drain()


def campaign_target(benchmark: str, n_layouts: int) -> str:
    return f"/campaign?benchmark={benchmark}&layouts={n_layouts}"


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.5) == 2.0
        assert percentile(samples, 0.99) == 4.0
        assert percentile(samples, 0.0) == 1.0

    def test_single_sample(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0


class TestCampaignRequest:
    def test_digest_distinguishes_heap_and_layouts(self):
        a = CampaignRequest(benchmark=BENCH, n_layouts=4)
        b = CampaignRequest(benchmark=BENCH, n_layouts=4, heap=True)
        c = CampaignRequest(benchmark=BENCH, n_layouts=5)
        assert len({a.digest, b.digest, c.digest}) == 3


class TestServiceValidation:
    def test_nonpositive_backlog_rejected(self, lab):
        with pytest.raises(ConfigurationError):
            CampaignService(lab, backlog=0)

    def test_layouts_out_of_range_rejected(self, lab):
        service = CampaignService(lab)
        with pytest.raises(ConfigurationError):
            service.validate(
                CampaignRequest(benchmark=BENCH, n_layouts=TEST_SCALE.n_layouts + 1)
            )
        with pytest.raises(ConfigurationError):
            service.validate(CampaignRequest(benchmark=BENCH, n_layouts=0))


class TestServedBitIdentity:
    def test_served_equals_direct_export(self, lab):
        reference = direct_payload(lab, BENCH, 4)
        served = CampaignService(lab).lookup(
            CampaignRequest(benchmark=BENCH, n_layouts=4)
        )
        assert served == reference

    def test_served_equals_direct_export_under_flaky_faults(self, tmp_path):
        # A torn store write is quarantined on the next load and the
        # campaign re-measured, reproducing the exact bits a fault-free
        # run would have produced; serving must preserve that across the
        # tear.
        clean_lab = Laboratory(scale=TEST_SCALE, machine_seed=7)
        reference = direct_payload(clean_lab, BENCH, 3)
        request = CampaignRequest(benchmark=BENCH, n_layouts=3)

        flaky_lab = Laboratory(
            scale=TEST_SCALE, machine_seed=7, cache_dir=tmp_path / "store"
        )
        with faults.injected(FaultPlan(seed=0xF1A7, torn_write=1.0)):
            served = CampaignService(flaky_lab).lookup(request)
        assert served == reference

        restarted_lab = Laboratory(
            scale=TEST_SCALE, machine_seed=7, cache_dir=tmp_path / "store"
        )
        with faults.injected(None):
            reserved = CampaignService(restarted_lab).lookup(request)
        assert reserved == reference
        assert restarted_lab.store.stats.quarantined == 1

    def test_full_campaign_is_the_store_file(self, tmp_path):
        # The server and the store share one serializer.
        lab = Laboratory(
            scale=TEST_SCALE, machine_seed=7, cache_dir=tmp_path / "store"
        )
        with faults.injected(None):
            served = CampaignService(lab).lookup(
                CampaignRequest(benchmark=BENCH, n_layouts=TEST_SCALE.n_layouts)
            )
        key = lab.campaign_key(BENCH, heap=False)
        assert served == lab.store.path_for(key).read_text()

    def test_store_backed_service_hits_across_processes(self, tmp_path):
        # A second service over the same store (a fresh lab, as after a
        # restart) serves the identical bytes without re-measuring.
        request = CampaignRequest(benchmark=BENCH, n_layouts=3)

        first_lab = Laboratory(
            scale=TEST_SCALE, machine_seed=7, cache_dir=tmp_path / "store"
        )
        first = CampaignService(first_lab).lookup(request)
        assert first_lab.store.stats.misses == 1

        second_lab = Laboratory(
            scale=TEST_SCALE, machine_seed=7, cache_dir=tmp_path / "store"
        )
        second = CampaignService(second_lab).lookup(request)
        assert second == first
        assert second_lab.store.stats.hits == 1
        assert second_lab.store.stats.layouts_measured == 0


class TestCoalescing:
    def test_concurrent_duplicates_share_one_measurement(
        self, tmp_path, monkeypatch
    ):
        lab = Laboratory(
            scale=TEST_SCALE, machine_seed=11, cache_dir=tmp_path / "store"
        )
        target = campaign_target(BENCH, 3)
        release = gate_measurements(monkeypatch, lab)

        with serving(lab) as server, ThreadPoolExecutor(max_workers=4) as pool:
            service = server.service
            try:
                first = pool.submit(http_get, server.port, target)
                # The first request is in flight (it holds the lab lock),
                # so the other three coalesce deterministically.
                wait_until(lambda: service.saturation()["busy"] == 1)
                rest = [pool.submit(http_get, server.port, target) for _ in range(3)]
                wait_until(lambda: service.metrics.snapshot()["coalesced"] == 3)
            finally:
                release.set()
            payloads = [f.result(timeout=60)[2] for f in [first, *rest]]
            view = service.metrics.snapshot()
        assert len(set(payloads)) == 1
        assert view["coalesced"] == 3
        assert view["served"] == 4
        # One measurement, not four: the store saw a single miss.
        assert lab.store.stats.misses == 1

    def test_distinct_requests_do_not_coalesce(self, lab, monkeypatch):
        release = gate_measurements(monkeypatch, lab)
        with serving(lab) as server, ThreadPoolExecutor(max_workers=2) as pool:
            service = server.service
            try:
                futures = [
                    pool.submit(http_get, server.port, campaign_target(BENCH, n))
                    for n in (2, 3)
                ]
                # Both are in flight at once before either is measured.
                wait_until(lambda: service.saturation()["inflight"] == 2)
            finally:
                release.set()
            for future in futures:
                future.result(timeout=60)
            view = service.metrics.snapshot()
        assert view["coalesced"] == 0


class TestThreadDiscipline:
    def test_distinct_cold_campaigns_are_each_measured_once(self, tmp_path):
        lab = Laboratory(
            scale=TEST_SCALE, machine_seed=13, cache_dir=tmp_path / "store"
        )
        names = ("429.mcf", "456.hmmer", "403.gcc", "401.bzip2") * 2
        targets = [campaign_target(name, TEST_SCALE.n_layouts) for name in names]
        with faults.injected(None), serving(lab) as server:
            with ThreadPoolExecutor(max_workers=len(targets)) as pool:
                futures = [pool.submit(http_get, server.port, t) for t in targets]
                responses = [future.result(timeout=120) for future in futures]
        measured = [record.benchmark for record in lab.campaign_log if record.measured]
        assert sorted(measured) == sorted(set(names))
        for name, (status, _, payload) in zip(names, responses):
            assert status == "200 OK"
            key = lab.campaign_key(name, heap=False)
            assert payload == lab.store.path_for(key).read_bytes()

    def test_metrics_count_every_concurrent_request(self, lab):
        n_requests = 200
        # Every fourth request is malformed: an error, not a serve.
        targets = [
            campaign_target(BENCH, 0 if i % 4 == 0 else 1 + i % TEST_SCALE.n_layouts)
            for i in range(n_requests)
        ]
        interval = sys.getswitchinterval()
        # Switch threads every 10 us while handler threads record their
        # requests: an update lost between them would miscount.
        sys.setswitchinterval(1e-5)
        try:
            with serving(lab) as server, ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(http_get, server.port, t) for t in targets]
                statuses = [future.result(timeout=60)[0] for future in futures]
                view = server.service.metrics.snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert statuses.count("200 OK") == n_requests - n_requests // 4
        assert view["requests"] == n_requests
        assert view["served"] + view["rejected"] + view["errors"] == n_requests
        assert view["errors"] == n_requests // 4
        assert view["latency_ms"]["samples"] == n_requests


class TestBackpressure:
    def test_full_queue_rejects_with_503_error(self, lab, monkeypatch):
        release = threading.Event()

        def slow_measure(request):
            release.wait(timeout=30)
            return "{}"

        with serving(lab, backlog=1) as server, ThreadPoolExecutor(2) as pool:
            service = server.service
            monkeypatch.setattr(service, "_measure_payload", slow_measure)
            try:
                first = pool.submit(http_get, server.port, campaign_target(BENCH, 2))
                # Let the first request take the lab lock, so nothing
                # waits for it yet...
                wait_until(lambda: service.saturation()["busy"] == 1)
                second = pool.submit(http_get, server.port, campaign_target(BENCH, 3))
                wait_until(lambda: service.saturation()["queue_depth"] == 1)
                # ...now the backlog slot is occupied: a third distinct
                # request must be rejected, not buffered.
                with pytest.raises(BackpressureError):
                    service.lookup(CampaignRequest(benchmark=BENCH, n_layouts=4))
                view = service.metrics.snapshot()
                assert view["rejected"] == 1
                saturation = service.saturation()
                assert saturation["busy"] == 1
                assert saturation["queue_depth"] == 1
            finally:
                release.set()
            assert first.result(timeout=30)[0] == "200 OK"
            assert second.result(timeout=30)[0] == "200 OK"

    def test_draining_service_rejects_new_requests(self, lab):
        service = CampaignService(lab)
        service.drain()
        with pytest.raises(BackpressureError):
            service.lookup(CampaignRequest(benchmark=BENCH, n_layouts=2))


def raw_request(port: int, data: bytes) -> bytes:
    """Send *data* to the local server; the whole answer, read to EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
        conn.sendall(data)
        return b"".join(iter(lambda: conn.recv(65536), b""))


def http_get(port: int, target: str) -> tuple[str, dict, bytes]:
    """Minimal HTTP/1.1 GET against the local server."""
    raw = raw_request(
        port, f"GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode()
    )
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = lines[0].split(" ", 1)[1]
    headers = dict(
        line.split(": ", 1) for line in lines[1:] if ": " in line
    )
    return status, headers, body


class TestHttpServer:
    def test_healthz(self, lab):
        with serving(lab) as server:
            status, headers, payload = http_get(server.port, "/healthz")
        assert status == "200 OK"
        assert payload == b"ok\n"
        assert headers["Content-Length"] == str(len(payload))

    def test_campaign_payload_is_bit_identical(self, lab):
        reference = direct_payload(lab, BENCH, 4)
        with serving(lab) as server:
            status, headers, payload = http_get(
                server.port, campaign_target(BENCH, 4)
            )
        assert status == "200 OK"
        assert headers["Content-Type"] == "application/json"
        assert payload.decode() == reference

    def test_concurrent_duplicate_queries_coalesce(self, lab, monkeypatch):
        target = campaign_target(BENCH, 5)
        release = gate_measurements(monkeypatch, lab)
        with serving(lab) as server, ThreadPoolExecutor(max_workers=4) as pool:
            metrics = server.service.metrics
            try:
                futures = [
                    pool.submit(http_get, server.port, target) for _ in range(4)
                ]
                wait_until(lambda: metrics.snapshot()["coalesced"] == 3)
            finally:
                release.set()
            results = [future.result(timeout=60) for future in futures]
            status, _, metrics_body = http_get(server.port, "/metrics")
        payloads = {payload for _, _, payload in results}
        assert len(payloads) == 1
        assert status == "200 OK"
        view = json.loads(metrics_body)
        assert view["coalesced"] >= 1

    def test_metrics_shape(self, tmp_path):
        lab = Laboratory(
            scale=TEST_SCALE, machine_seed=7, cache_dir=tmp_path / "store"
        )
        with serving(lab) as server:
            http_get(server.port, campaign_target(BENCH, 2))
            status, _, payload = http_get(server.port, "/metrics")
        assert status == "200 OK"
        view = json.loads(payload)
        assert view["requests"] == 1
        assert view["served"] == 1
        assert set(view["latency_ms"]) == {"p50", "p99", "samples"}
        assert view["pool"]["workers"] == 1
        assert view["pool"]["queue_capacity"] == 32
        # The store-backed lab exposes its hit/miss counters.
        assert view["store"]["misses"] == 1
        # Deterministic key order: the document is diffable.
        assert payload.decode() == json.dumps(
            view, indent=1, sort_keys=True
        ) + "\n"

    def test_error_routes(self, lab):
        with serving(lab) as server:
            missing, no_bench, unknown, bad_int, oob = [
                http_get(server.port, target)
                for target in (
                    "/nope",
                    "/campaign",
                    "/campaign?benchmark=900.none",
                    f"/campaign?benchmark={BENCH}&layouts=zero",
                    campaign_target(BENCH, 999),
                )
            ]
        assert missing[0].startswith("404")
        assert no_bench[0].startswith("400")
        assert unknown[0].startswith("404")
        assert bad_int[0].startswith("400")
        assert oob[0].startswith("400")

    def test_non_get_and_malformed_request_line(self, lab):
        with serving(lab) as server:
            post_raw = raw_request(server.port, b"POST /healthz HTTP/1.1\r\n\r\n")
            bad_raw = raw_request(server.port, b"garbage\r\n\r\n")
            # Neither the HTTP/0.9 two-token form nor an empty line is a
            # request line.
            short_raw = raw_request(server.port, b"GET /healthz\r\n\r\n")
            empty_raw = raw_request(server.port, b"\r\n\r\n")
        assert b"405" in post_raw.split(b"\r\n", 1)[0]
        for raw in (bad_raw, short_raw, empty_raw):
            assert b"400" in raw.split(b"\r\n", 1)[0]
            assert raw.endswith(b"\r\n\r\nmalformed request line\n")

    def test_drain_request_stops_the_server(self, lab):
        from repro.core.supervise import ShutdownHandler

        shutdown = ShutdownHandler()
        service = CampaignService(lab)
        server = CampaignServer(service, port=0, shutdown=shutdown)
        runner = threading.Thread(target=server.serve_until_shutdown)
        runner.start()
        try:
            status, _, _ = http_get(server.port, "/healthz")
            assert status == "200 OK"
        finally:
            shutdown.request()
            runner.join(timeout=10)
        assert not runner.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", server.port), timeout=5)


def serve_metrics(port: int) -> dict:
    return json.loads(http_get(port, "/metrics")[2])


class TestServeProcessDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["REPRO_SCALE"] = "ci"
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        # The campaign hangs once for 2 s before it is measured, so the
        # signal lands while it is in flight.
        env["REPRO_FAULT_PLAN"] = f"seed=1,hang_benchmarks={BENCH},hang_seconds=2"
        store = tmp_path / "store"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--port",
                "0",
                "--cache-dir",
                str(store),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        responses: list = []
        try:
            banner = proc.stdout.readline()
            assert "serving campaigns on http://" in banner
            port = int(banner.rsplit(":", 1)[1].split()[0])
            client = threading.Thread(
                target=lambda: responses.append(
                    http_get(port, f"/campaign?benchmark={BENCH}&layouts=10")
                )
            )
            client.start()
            try:
                wait_until(lambda: serve_metrics(port)["pool"]["busy"] == 1)
                proc.send_signal(signal.SIGTERM)
                out, _ = proc.communicate(timeout=60)
            finally:
                client.join(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "drained:" in out
        # The in-flight campaign finished: its answer is the store file.
        [(status, _, payload)] = responses
        assert status == "200 OK"
        [store_file] = sorted(store.glob("429_mcf-*.json"))
        assert payload == store_file.read_bytes()
