#!/usr/bin/env python3
"""Campaign-as-a-service: coalescing, store reuse, graceful drain.

ROADMAP item 2 in one file: an in-process `CampaignServer` over a
disk-backed store, queried by asyncio clients.  Six concurrent
requests for the *same* cold campaign coalesce onto one measurement
(all six payloads are byte-identical — a campaign is a pure function
of its content-addressed key); a second server over the same store —
the restart / second-replica scenario — serves the now-warm key from
disk with zero new measurements; and each drain finishes in-flight
work before the server exits.

Run:  python examples/campaign_client.py
(For the subprocess deployment shape, see `repro-cli serve` and
`benchmarks/bench_serve.py`.)
"""

import asyncio
import json
import tempfile
from pathlib import Path

from repro.harness.lab import SCALES, Laboratory
from repro.serve import CampaignServer, CampaignService

BENCHMARK = "429.mcf"
FANOUT = 6


async def fetch(port: int, target: str) -> tuple[int, bytes]:
    """One GET against the local campaign server, no HTTP library."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {target} HTTP/1.1\r\n\r\n".encode("ascii"))
        await writer.drain()
        status_line = await reader.readline()
        while await reader.readline() not in (b"\r\n", b"\n", b""):
            pass
        body = await reader.read()
        return int(status_line.split()[1]), body
    finally:
        writer.close()
        await writer.wait_closed()


def build_server(cache_dir: Path) -> CampaignServer:
    """Synchronous setup: the laboratory (and the machine behind it) is
    built *before* the event loop runs, so nothing heavy blocks it."""
    lab = Laboratory(scale=SCALES["ci"], machine_seed=1, cache_dir=cache_dir)
    return CampaignServer(CampaignService(lab), port=0)


async def demo(
    server: CampaignServer, replica: CampaignServer, cache_dir: Path
) -> None:
    await server.start()
    print(f"server up on port {server.port} (scale ci, store {cache_dir})")

    target = f"/campaign?benchmark={BENCHMARK}&layouts=8"
    print(f"\n{FANOUT} concurrent requests for a cold key: {target}")
    responses = await asyncio.gather(
        *[fetch(server.port, target) for _ in range(FANOUT)]
    )
    assert all(status == 200 for status, _ in responses)
    assert len({body for _, body in responses}) == 1, "payloads must match"

    _, metrics_body = await fetch(server.port, "/metrics")
    metrics = json.loads(metrics_body)
    print(f"  -> {metrics['coalesced']} of {FANOUT} coalesced onto one "
          f"measurement; {len(responses[0][1])}-byte identical payloads")
    print(f"  -> store after the burst: {metrics['store']['misses']} miss, "
          f"{metrics['store']['layouts_measured']} layouts measured")

    print("\ndraining (in-flight work finishes, then the worker joins)...")
    await server.drain()
    print("  -> drained cleanly")

    print("\nsecond server over the same store (a restart, or a replica):")
    await replica.start()
    status, body = await fetch(replica.port, target)
    assert status == 200 and body == responses[0][1], "byte-identical"
    _, metrics_body = await fetch(replica.port, "/metrics")
    store = json.loads(metrics_body)["store"]
    print(f"  -> {store['hits']} store hit, {store['layouts_measured']} new "
          f"layouts measured: the campaign was measured exactly once")
    await replica.drain()
    print("  -> replica drained cleanly")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="campaign-client-") as tmp:
        cache_dir = Path(tmp)
        server = build_server(cache_dir)
        replica = build_server(cache_dir)
        asyncio.run(demo(server, replica, cache_dir))


if __name__ == "__main__":
    main()
