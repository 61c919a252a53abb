"""The campaign server: coalescing, backpressure, drain, bit-identity.

The serving contract is the paper's purity argument carried across a
socket: every observation is a pure function of (config, machine seed,
benchmark, layout index), so a served campaign must be byte-identical
to the store's :func:`~repro.store.dump_campaign` of the same slice —
and a full-length one to its store file — including when a fault plan
tears the store write it is later served from.  The scheduling tests pin the loop-side invariants: identical
in-flight requests coalesce onto one measurement, a full admission
queue rejects instead of buffering, and a drain finishes in-flight
work before the worker stops.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
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


async def with_service(lab: Laboratory, body, **kwargs):
    """Run *body(service)* between start() and drain()."""
    service = CampaignService(lab, **kwargs)
    service.start()
    try:
        return await body(service)
    finally:
        await service.drain()


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

    def test_lookup_before_start_rejected(self, lab):
        service = CampaignService(lab)

        async def scenario():
            await service.lookup(CampaignRequest(benchmark=BENCH, n_layouts=2))

        with pytest.raises(ConfigurationError):
            asyncio.run(scenario())


class TestServedBitIdentity:
    def test_served_equals_direct_export(self, lab):
        reference = direct_payload(lab, BENCH, 4)

        async def body(service):
            return await service.lookup(
                CampaignRequest(benchmark=BENCH, n_layouts=4)
            )

        served = asyncio.run(with_service(lab, body))
        assert served == reference

    def test_served_equals_direct_export_under_flaky_faults(self, tmp_path):
        # A torn store write is quarantined on the next load and the
        # campaign re-measured, reproducing the exact bits a fault-free
        # run would have produced; serving through the executor must
        # preserve that across the tear.
        clean_lab = Laboratory(scale=TEST_SCALE, machine_seed=7)
        reference = direct_payload(clean_lab, BENCH, 3)

        async def body(service):
            return await service.lookup(
                CampaignRequest(benchmark=BENCH, n_layouts=3)
            )

        flaky_lab = Laboratory(
            scale=TEST_SCALE, machine_seed=7, cache_dir=tmp_path / "store"
        )
        with faults.injected(FaultPlan(seed=0xF1A7, torn_write=1.0)):
            served = asyncio.run(with_service(flaky_lab, body))
        assert served == reference

        restarted_lab = Laboratory(
            scale=TEST_SCALE, machine_seed=7, cache_dir=tmp_path / "store"
        )
        with faults.injected(None):
            reserved = asyncio.run(with_service(restarted_lab, body))
        assert reserved == reference
        assert restarted_lab.store.stats.quarantined == 1

    def test_full_campaign_is_the_store_file(self, tmp_path):
        # The server and the store share one serializer.
        lab = Laboratory(
            scale=TEST_SCALE, machine_seed=7, cache_dir=tmp_path / "store"
        )

        async def body(service):
            return await service.lookup(
                CampaignRequest(benchmark=BENCH, n_layouts=TEST_SCALE.n_layouts)
            )

        with faults.injected(None):
            served = asyncio.run(with_service(lab, body))
        key = lab.campaign_key(BENCH, heap=False)
        assert served == lab.store.path_for(key).read_text()

    def test_store_backed_service_hits_across_processes(self, tmp_path):
        # A second service over the same store (a fresh lab, as after a
        # restart) serves the identical bytes without re-measuring.
        request = CampaignRequest(benchmark=BENCH, n_layouts=3)

        async def body(service):
            return await service.lookup(request)

        first_lab = Laboratory(
            scale=TEST_SCALE, machine_seed=7, cache_dir=tmp_path / "store"
        )
        first = asyncio.run(with_service(first_lab, body))
        assert first_lab.store.stats.misses == 1

        second_lab = Laboratory(
            scale=TEST_SCALE, machine_seed=7, cache_dir=tmp_path / "store"
        )
        second = asyncio.run(with_service(second_lab, body))
        assert second == first
        assert second_lab.store.stats.hits == 1
        assert second_lab.store.stats.layouts_measured == 0


class TestCoalescing:
    def test_concurrent_duplicates_share_one_measurement(self, tmp_path):
        lab = Laboratory(
            scale=TEST_SCALE, machine_seed=11, cache_dir=tmp_path / "store"
        )
        request = CampaignRequest(benchmark=BENCH, n_layouts=3)

        async def body(service):
            payloads = await asyncio.gather(
                service.lookup(request),
                service.lookup(request),
                service.lookup(request),
                service.lookup(request),
            )
            return payloads, service.metrics.snapshot()

        payloads, view = asyncio.run(with_service(lab, body))
        assert len(set(payloads)) == 1
        # The first request registers in-flight before yielding, so
        # the other three coalesce deterministically.
        assert view["coalesced"] == 3
        assert view["served"] == 4
        # One measurement, not four: the store saw a single miss.
        assert lab.store.stats.misses == 1

    def test_distinct_requests_do_not_coalesce(self, lab):
        async def body(service):
            await asyncio.gather(
                service.lookup(CampaignRequest(benchmark=BENCH, n_layouts=2)),
                service.lookup(CampaignRequest(benchmark=BENCH, n_layouts=3)),
            )
            return service.metrics.snapshot()

        view = asyncio.run(with_service(lab, body))
        assert view["coalesced"] == 0


class TestBackpressure:
    def test_full_queue_rejects_with_503_error(self, lab, monkeypatch):
        release = threading.Event()

        def slow_measure(request):
            release.wait(timeout=30)
            return "{}"

        async def scenario():
            service = CampaignService(lab, backlog=1)
            monkeypatch.setattr(service, "_measure_payload", slow_measure)
            service.start()
            try:
                first = asyncio.ensure_future(
                    service.lookup(CampaignRequest(benchmark=BENCH, n_layouts=2))
                )
                # Let the single worker dequeue the first job and park
                # in the executor, so the queue is empty again...
                await asyncio.sleep(0.05)
                second = asyncio.ensure_future(
                    service.lookup(CampaignRequest(benchmark=BENCH, n_layouts=3))
                )
                await asyncio.sleep(0.05)
                # ...now the backlog slot is occupied: a third distinct
                # request must be rejected, not buffered.
                with pytest.raises(BackpressureError):
                    await service.lookup(
                        CampaignRequest(benchmark=BENCH, n_layouts=4)
                    )
                view = service.metrics.snapshot()
                assert view["rejected"] == 1
                saturation = service.saturation()
                assert saturation["busy"] == 1
                assert saturation["queue_depth"] == 1
                release.set()
                await asyncio.gather(first, second)
            finally:
                release.set()
                await service.drain()

        asyncio.run(scenario())

    def test_draining_service_rejects_new_requests(self, lab):
        async def scenario():
            service = CampaignService(lab)
            service.start()
            await service.drain()
            with pytest.raises(BackpressureError):
                await service.lookup(
                    CampaignRequest(benchmark=BENCH, n_layouts=2)
                )

        asyncio.run(scenario())


async def http_get(port: int, target: str) -> tuple[str, dict, bytes]:
    """Minimal HTTP/1.1 GET against the local server."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = lines[0].split(" ", 1)[1]
    headers = dict(
        line.split(": ", 1) for line in lines[1:] if ": " in line
    )
    return status, headers, body


class TestHttpServer:
    def run_with_server(self, lab, body, **service_kwargs):
        async def scenario():
            service = CampaignService(lab, **service_kwargs)
            server = CampaignServer(service, port=0)
            await server.start()
            try:
                return await body(server)
            finally:
                await server.drain()

        return asyncio.run(scenario())

    def test_healthz(self, lab):
        async def body(server):
            return await http_get(server.port, "/healthz")

        status, headers, payload = self.run_with_server(lab, body)
        assert status == "200 OK"
        assert payload == b"ok\n"
        assert headers["Content-Length"] == str(len(payload))

    def test_campaign_payload_is_bit_identical(self, lab):
        reference = direct_payload(lab, BENCH, 4)

        async def body(server):
            return await http_get(
                server.port, f"/campaign?benchmark={BENCH}&layouts=4"
            )

        status, headers, payload = self.run_with_server(lab, body)
        assert status == "200 OK"
        assert headers["Content-Type"] == "application/json"
        assert payload.decode() == reference

    def test_concurrent_duplicate_queries_coalesce(self, lab):
        target = f"/campaign?benchmark={BENCH}&layouts=5"

        async def body(server):
            results = await asyncio.gather(
                *(http_get(server.port, target) for _ in range(4))
            )
            metrics = await http_get(server.port, "/metrics")
            return results, metrics

        results, (status, _, metrics_body) = self.run_with_server(lab, body)
        payloads = {payload for _, _, payload in results}
        assert len(payloads) == 1
        assert status == "200 OK"
        view = json.loads(metrics_body)
        assert view["coalesced"] >= 1

    def test_metrics_shape(self, tmp_path):
        lab = Laboratory(
            scale=TEST_SCALE, machine_seed=7, cache_dir=tmp_path / "store"
        )

        async def body(server):
            await http_get(
                server.port, f"/campaign?benchmark={BENCH}&layouts=2"
            )
            return await http_get(server.port, "/metrics")

        status, _, payload = self.run_with_server(lab, body)
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
        async def body(server):
            return (
                await http_get(server.port, "/nope"),
                await http_get(server.port, "/campaign"),
                await http_get(server.port, "/campaign?benchmark=900.none"),
                await http_get(
                    server.port, f"/campaign?benchmark={BENCH}&layouts=zero"
                ),
                await http_get(
                    server.port, f"/campaign?benchmark={BENCH}&layouts=999"
                ),
            )

        missing, no_bench, unknown, bad_int, oob = self.run_with_server(
            lab, body
        )
        assert missing[0].startswith("404")
        assert no_bench[0].startswith("400")
        assert unknown[0].startswith("404")
        assert bad_int[0].startswith("400")
        assert oob[0].startswith("400")

    def test_non_get_and_malformed_request_line(self, lab):
        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"POST /healthz HTTP/1.1\r\n\r\n")
            await writer.drain()
            post_raw = await reader.read()
            writer.close()
            await writer.wait_closed()

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"garbage\r\n\r\n")
            await writer.drain()
            bad_raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return post_raw, bad_raw

        post_raw, bad_raw = self.run_with_server(lab, body)
        assert b"405" in post_raw.split(b"\r\n", 1)[0]
        assert b"400" in bad_raw.split(b"\r\n", 1)[0]

    def test_drain_request_stops_the_server(self, lab):
        from repro.core.supervise import ShutdownHandler

        async def scenario():
            shutdown = ShutdownHandler()
            service = CampaignService(lab)
            server = CampaignServer(
                service, port=0, shutdown=shutdown, poll_seconds=0.01
            )
            runner = asyncio.ensure_future(server.serve_until_shutdown())
            while server.port is None:
                await asyncio.sleep(0.01)
            status, _, _ = await http_get(server.port, "/healthz")
            assert status == "200 OK"
            shutdown.request()
            await asyncio.wait_for(runner, timeout=10)
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", server.port)

        asyncio.run(scenario())


class TestServeProcessDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["REPRO_SCALE"] = "ci"
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--port",
                "0",
                "--cache-dir",
                str(tmp_path / "store"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving campaigns on http://" in banner
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "drained:" in out
