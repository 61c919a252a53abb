#!/usr/bin/env python3
"""Closed-loop load generator for the campaign server.

Exercises ``repro-cli serve`` the way a fleet of reproduction clients
would: a store is pre-seeded with a few campaigns (the measure-once
economics), the server is started over it as a subprocess, a burst of
concurrent identical queries lands on a *cold* benchmark (provoking
request coalescing around the single in-flight measurement), and then
closed-loop client threads hammer the warm keys.  The run ends with
SIGTERM and asserts the graceful-drain contract: exit code 0 and a
``drained:`` summary.

Results land in ``BENCH_serve.json``:

* client-side p50/p99 latency (ms) of the warm-key load phase,
* server-side latency percentiles from ``/metrics``,
* store hit rate (warm keys are served from disk, not re-measured),
* coalescing ratio (coalesced / total requests) — must be > 0,
* sustained throughput of the load phase.

Every response is checked for bit-identity against its first sibling:
a served campaign is a pure function of the request key, so any two
responses for the same key must match byte-for-byte.

Run:  REPRO_SCALE=small python benchmarks/bench_serve.py [--output PATH]
"""

from __future__ import annotations

import argparse
import http.client
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.lab import Laboratory, scale_from_env
from repro.serve import percentile

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Keys the store is seeded with before the server starts (warm), and
#: the key the coalescing burst lands on (cold: measured by the server).
WARM_BENCHMARKS = ("429.mcf", "456.hmmer")
COLD_BENCHMARK = "403.gcc"

MACHINE_SEED = 1


def fetch(port: int, target: str, timeout: float = 120.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def seed_store(cache_dir: Path, scale) -> float:
    """Measure the warm campaigns into the store; returns seconds."""
    lab = Laboratory(
        scale=scale, machine_seed=MACHINE_SEED, cache_dir=cache_dir
    )
    started = time.perf_counter()
    for name in WARM_BENCHMARKS:
        lab.observations(name)
    return time.perf_counter() - started


def start_server(cache_dir: Path, backlog: int):
    """Launch ``python -m repro.serve`` and wait for its banner."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--port",
            "0",
            "--cache-dir",
            str(cache_dir),
            "--backlog",
            str(backlog),
            "--machine-seed",
            str(MACHINE_SEED),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = proc.stdout.readline()
    if "serving campaigns on http://" not in banner:
        proc.kill()
        raise RuntimeError(f"server failed to start: {banner!r}")
    port = int(banner.rsplit(":", 1)[1].split()[0])
    return proc, port


def coalescing_burst(port: int, fanout: int) -> dict:
    """Concurrent identical queries against a cold key."""
    target = f"/campaign?benchmark={COLD_BENCHMARK}&layouts=8"
    payloads: list[bytes] = [b""] * fanout
    statuses: list[int] = [0] * fanout

    def worker(index: int) -> None:
        statuses[index], payloads[index] = fetch(port, target)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(fanout)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    assert all(status == 200 for status in statuses), statuses
    assert len(set(payloads)) == 1, "coalesced responses must be identical"
    return {"fanout": fanout, "wall_seconds": elapsed}


def load_phase(
    port: int, scale, clients: int, requests_per_client: int
) -> dict:
    """Closed-loop clients over mixed warm keys; client-side latency."""
    layout_counts = (4, 8, scale.n_layouts)
    targets = [
        f"/campaign?benchmark={name}&layouts={n}"
        for name in WARM_BENCHMARKS
        for n in layout_counts
    ]
    latencies: list[list[float]] = [[] for _ in range(clients)]
    references: dict[str, bytes] = {}
    reference_lock = threading.Lock()
    failures: list[str] = []

    def worker(client: int) -> None:
        for i in range(requests_per_client):
            target = targets[(client + i) % len(targets)]
            started = time.perf_counter()
            status, payload = fetch(port, target)
            latencies[client].append(time.perf_counter() - started)
            if status != 200:
                failures.append(f"{target}: HTTP {status}")
                return
            with reference_lock:
                reference = references.setdefault(target, payload)
            if payload != reference:
                failures.append(f"{target}: response bytes diverged")
                return

    threads = [
        threading.Thread(target=worker, args=(c,)) for c in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if failures:
        raise RuntimeError("; ".join(failures[:5]))
    samples = sorted(s for per_client in latencies for s in per_client)
    return {
        "clients": clients,
        "requests": len(samples),
        "wall_seconds": elapsed,
        "throughput_rps": len(samples) / elapsed if elapsed else 0.0,
        "latency_ms": {
            "p50": percentile(samples, 0.50) * 1000.0,
            "p99": percentile(samples, 0.99) * 1000.0,
            "mean": statistics.fmean(samples) * 1000.0 if samples else 0.0,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_serve.json"
    )
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests-per-client", type=int, default=25)
    parser.add_argument("--burst-fanout", type=int, default=6)
    parser.add_argument("--backlog", type=int, default=32)
    parser.add_argument(
        "--work-dir",
        type=Path,
        default=None,
        help="store directory (a temp dir by default)",
    )
    args = parser.parse_args()

    scale = scale_from_env()
    if args.work_dir is not None:
        cache_dir = args.work_dir
        cache_dir.mkdir(parents=True, exist_ok=True)
    else:
        import tempfile

        tmp = tempfile.TemporaryDirectory(prefix="bench-serve-")
        cache_dir = Path(tmp.name)

    print(f"seeding store with {WARM_BENCHMARKS} at scale {scale.name} ...")
    seed_seconds = seed_store(cache_dir, scale)
    print(f"  seeded in {seed_seconds:.1f}s")

    proc, port = start_server(cache_dir, args.backlog)
    try:
        print(f"server on port {port}; cold coalescing burst ...")
        burst = coalescing_burst(port, args.burst_fanout)
        print(f"  {burst['fanout']} duplicates in {burst['wall_seconds']:.2f}s")

        print(
            f"load phase: {args.clients} clients x "
            f"{args.requests_per_client} requests ..."
        )
        load = load_phase(
            port, scale, args.clients, args.requests_per_client
        )
        print(
            f"  p50 {load['latency_ms']['p50']:.1f}ms  "
            f"p99 {load['latency_ms']['p99']:.1f}ms  "
            f"{load['throughput_rps']:.0f} req/s"
        )

        status, metrics_body = fetch(port, "/metrics")
        assert status == 200
        metrics = json.loads(metrics_body)

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise

    drained = proc.returncode == 0 and "drained:" in out
    if not drained:
        print(f"drain FAILED (exit {proc.returncode}):\n{out}", file=sys.stderr)

    requests = metrics["requests"]
    coalescing_ratio = metrics["coalesced"] / requests if requests else 0.0
    report = {
        "scale": scale.name,
        "workers": metrics["pool"]["workers"],
        "backlog": args.backlog,
        "seed_seconds": round(seed_seconds, 3),
        "coalescing_burst": burst,
        "load": load,
        "server_metrics": metrics,
        "coalescing_ratio": coalescing_ratio,
        "store_hit_rate": metrics.get("store", {}).get("hit_rate", 0.0),
        "drain_exit_code": proc.returncode,
        "drain_clean": drained,
    }
    args.output.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    if coalescing_ratio <= 0.0:
        print("FAIL: no requests coalesced", file=sys.stderr)
        return 1
    if not drained:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
