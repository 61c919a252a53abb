#!/usr/bin/env python3
"""Campaign-as-a-service: coalescing, store reuse, graceful drain.

ROADMAP item 2 in one file: an in-process `CampaignServer` over a
disk-backed store, queried by concurrent HTTP client threads.  Six
concurrent requests for the *same* cold campaign coalesce onto one
measurement (all six payloads are byte-identical — a campaign is a
pure function of its content-addressed key); a second server over the
same store — the restart / second-replica scenario — serves the
now-warm key from disk with zero new measurements; and each drain
finishes in-flight work before the server exits.

Run:  python examples/campaign_client.py
(For the subprocess deployment shape, see `repro-cli serve` and
`benchmarks/bench_serve.py`.)
"""

import http.client
import json
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.harness.lab import SCALES, Laboratory
from repro.serve import CampaignServer, CampaignService

BENCHMARK = "429.mcf"
FANOUT = 6


def fetch(port: int, target: str) -> tuple[int, bytes]:
    """One GET against the local campaign server."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def build_server(cache_dir: Path) -> CampaignServer:
    """A server on a free port over a ci-scale laboratory and *cache_dir*."""
    lab = Laboratory(scale=SCALES["ci"], machine_seed=1, cache_dir=cache_dir)
    return CampaignServer(CampaignService(lab), port=0)


def demo(cache_dir: Path) -> None:
    server = build_server(cache_dir)
    server.start()
    print(f"server up on port {server.port} (scale ci, store {cache_dir})")

    target = f"/campaign?benchmark={BENCHMARK}&layouts=8"
    print(f"\n{FANOUT} concurrent requests for a cold key: {target}")
    with ThreadPoolExecutor(max_workers=FANOUT) as clients:
        burst = [clients.submit(fetch, server.port, target) for _ in range(FANOUT)]
        responses = [future.result() for future in burst]
    assert all(status == 200 for status, _ in responses)
    assert len({body for _, body in responses}) == 1, "payloads must match"

    _, metrics_body = fetch(server.port, "/metrics")
    metrics = json.loads(metrics_body)
    print(f"  -> {metrics['coalesced']} of {FANOUT} coalesced onto one "
          f"measurement; {len(responses[0][1])}-byte identical payloads")
    print(f"  -> store after the burst: {metrics['store']['misses']} miss, "
          f"{metrics['store']['layouts_measured']} layouts measured")

    print("\ndraining (in-flight work finishes, then the server stops)...")
    server.drain()
    print("  -> drained cleanly")

    print("\nsecond server over the same store (a restart, or a replica):")
    replica = build_server(cache_dir)
    replica.start()
    status, body = fetch(replica.port, target)
    assert status == 200 and body == responses[0][1], "byte-identical"
    _, metrics_body = fetch(replica.port, "/metrics")
    store = json.loads(metrics_body)["store"]
    print(f"  -> {store['hits']} store hit, {store['layouts_measured']} new "
          f"layouts measured: the campaign was measured exactly once")
    replica.drain()
    print("  -> replica drained cleanly")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="campaign-client-") as tmp:
        demo(Path(tmp))


if __name__ == "__main__":
    main()
