#!/usr/bin/env python3
"""Scalar-vs-vector simulation-kernel benchmark.

Every address-hashed structure in :mod:`repro.uarch` carries two
simulation engines: the per-event scalar loop (the differential
oracle) and the chunked numpy kernels of :mod:`repro.uarch.vector`.
This benchmark times both engines on campaign-shaped inputs and
verifies — on every row — that they produce identical counts, then
writes the results to ``BENCH_kernels.json``.

Workloads:

* direction predictors and the BTB over the concatenated per-layout
  branch streams of 445.gobmk (one stream per reordered executable,
  ``REPRO_SCALE`` layouts); the gskew row times its fused ``scan``
  loop against the oracle, and the TAGE and L-TAGE rows their
  array-hashed state-machine loop;
* the L1I cache and a skewed cache of the same geometry (again a fused
  ``scan`` loop) over the concatenated ifetch streams, the L1D over the
  data streams, and the L2 over each layout's L1I+L1D miss stream in
  :class:`~repro.uarch.caches.CacheHierarchy` order;
* the indirect-target predictors over an interpreter-shaped program
  (the suite benchmarks have no indirect sites);
* the structural core model alone (``core-model``):
  :meth:`XeonCoreModel.execute` over executables built in advance, one
  fresh model per engine so the memo cache cannot leak results across
  engines.  Trace generation and the toolchain are not timed.

Run:  python benchmarks/bench_kernels.py [--output PATH]
Exits 1 if any scalar/vector count diverges.

``--compare BASELINE.json`` additionally gates against a committed
report: any kernel family whose fresh speedup falls more than
``--max-regression`` (default 30%) below the committed speedup fails
the run.  Speedup ratios (scalar time / vector time on the same
machine) are far more stable across hosts than absolute ns/event, so
the gate travels to CI runners of different generations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import telemetry
from repro.harness.lab import Laboratory
from repro.machine.config import XeonE5440Config
from repro.machine.core_model import XeonCoreModel
from repro.program.tracegen import generate_trace
from repro.toolchain.camino import Camino
from repro.uarch.btb import BranchTargetBuffer
from repro.uarch.caches import (
    SetAssociativeCache,
    SkewedAssociativeCache,
    l2_fill_stream,
)
from repro.uarch.predictors.agree import AgreePredictor
from repro.uarch.predictors.bimodal import BimodalPredictor
from repro.uarch.predictors.bimode import BiModePredictor
from repro.uarch.predictors.gas import GAsPredictor
from repro.uarch.predictors.gshare import GsharePredictor
from repro.uarch.predictors.gskew import GskewPredictor
from repro.uarch.predictors.hybrid import HybridPredictor
from repro.uarch.predictors.indirect import IttageLitePredictor, LastTargetPredictor
from repro.uarch.predictors.pas import PAsPredictor
from repro.uarch.predictors.perceptron import PerceptronPredictor
from repro.uarch.predictors.tage import LTagePredictor, TagePredictor
from repro.uarch.predictors.tournament import TournamentPredictor
from repro.workloads.suite import get_benchmark

BENCHMARK = "445.gobmk"


def _load_interpreter_spec():
    """The interpreter-shaped spec from examples/indirect_interferometry."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "examples" / "indirect_interferometry.py"
    spec = importlib.util.spec_from_file_location("indirect_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_interpreter()


def _l2_streams(config, executables):
    """Each layout's L2 access stream: its L1I and L1D misses, merged."""
    l1i = SetAssociativeCache(config.l1i)
    l1d = SetAssociativeCache(config.l1d)
    streams = []
    for exe in executables:
        ifetch = exe.ifetch_address_stream()
        data = exe.data_address_stream()
        i_miss = l1i.simulate_mask(ifetch)
        d_miss = l1d.simulate_mask(data)
        stream, _ = l2_fill_stream(
            ifetch[i_miss],
            exe.trace.iacc_event[i_miss],
            data[d_miss],
            exe.trace.dacc_event[d_miss],
        )
        streams.append(stream)
    return streams


def _indirect_streams(lab):
    """Per-layout (addresses, targets) streams of the interpreter spec."""
    spec = _load_interpreter_spec()
    toolchain = Camino()
    n_layouts = max(2, lab.scale.n_layouts // 5)
    n_events = lab.scale.trace_events * 5
    streams = []
    for i in range(n_layouts):
        trace = generate_trace(spec, seed=101 + i, n_events=n_events)
        exe = toolchain.build(spec, trace, layout_seed=1000 + i)
        streams.append((exe.branch_address_stream(), exe.trace.targets))
    return streams


def _time_engine(run) -> tuple[float, int]:
    """Best-of-2 wall time and the (identical) count of one engine."""
    best, count = float("inf"), 0
    for _ in range(2):
        start = telemetry.tick_seconds()
        count = run()
        best = min(best, telemetry.tick_seconds() - start)
    return best, count


def bench_row(name: str, n_events: int, scalar_run, vector_run) -> dict:
    """Time both engines over the same streams and compare their counts."""
    scalar_s, scalar_count = _time_engine(scalar_run)
    vector_s, vector_count = _time_engine(vector_run)
    row = {
        "kernel": name,
        "events": n_events,
        "scalar_count": scalar_count,
        "vector_count": vector_count,
        "diverged": scalar_count != vector_count,
        "scalar_ns_per_event": scalar_s / n_events * 1e9,
        "vector_ns_per_event": vector_s / n_events * 1e9,
        "scalar_events_per_sec": n_events / scalar_s,
        "vector_events_per_sec": n_events / vector_s,
        "speedup": scalar_s / vector_s,
    }
    print(
        f"  {name:<24s} {n_events:>9d} ev  "
        f"scalar {row['scalar_ns_per_event']:7.0f} ns/ev  "
        f"vector {row['vector_ns_per_event']:7.0f} ns/ev  "
        f"{row['speedup']:5.1f}x"
        + ("  ** DIVERGED **" if row["diverged"] else "")
    )
    return row


def _simulate_streams(structure, streams, warmup_fraction: float, engine: str) -> int:
    total = 0
    for addrs, outcomes in streams:
        total += structure.simulate(
            addrs, outcomes, warmup=int(len(addrs) * warmup_fraction), engine=engine
        )
    return total


def compare_to_baseline(
    report: dict, baseline: dict, max_regression: float
) -> list[str]:
    """Kernel families whose speedup regressed past *max_regression*.

    Families are matched by row name; a family present in only one
    report is reported as drift, not a regression — renames and new
    kernels should not trip the gate, but they should be visible.
    """
    fresh = {r["kernel"]: r for r in report["rows"]}
    committed = {r["kernel"]: r for r in baseline["rows"]}
    failures: list[str] = []
    floor_note = []
    for name in sorted(set(fresh) ^ set(committed)):
        side = "fresh" if name in fresh else "baseline"
        floor_note.append(f"  (family {name!r} only in the {side} report)")
    for name in sorted(set(fresh) & set(committed)):
        was, now = committed[name]["speedup"], fresh[name]["speedup"]
        floor = was * (1.0 - max_regression)
        if now < floor:
            failures.append(
                f"{name}: speedup {now:.2f}x regressed below "
                f"{floor:.2f}x (committed {was:.2f}x, "
                f"-{(1 - now / was) * 100:.0f}%)"
            )
    for note in floor_note:
        print(note)
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_kernels.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="committed BENCH_kernels.json to gate speedups against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="per-family speedup regression tolerance (fraction, default 0.30)",
    )
    args = parser.parse_args()

    lab = Laboratory()
    config = XeonE5440Config()
    print(f"scale={lab.scale.name}: building {lab.scale.n_layouts} layouts of {BENCHMARK} ...")
    bm = get_benchmark(BENCHMARK)
    executables = [
        lab.interferometer.build_executable(bm, i) for i in range(lab.scale.n_layouts)
    ]
    branch_streams = [
        (exe.branch_address_stream(), exe.trace.outcomes) for exe in executables
    ]
    cache_streams = {
        "l1i": [exe.ifetch_address_stream() for exe in executables],
        "l1d": [exe.data_address_stream() for exe in executables],
        "l2": _l2_streams(config, executables),
    }
    n_branch = sum(len(a) for a, _ in branch_streams)
    indirect_streams = _indirect_streams(lab)
    n_indirect_events = sum(len(a) for a, _ in indirect_streams)
    n_indirect = sum(int(np.count_nonzero(t >= 0)) for _, t in indirect_streams)
    n_cache = {level: sum(len(a) for a in streams) for level, streams in cache_streams.items()}
    print(
        f"streams: {n_branch} branch events, {n_cache['l1i']} ifetch, "
        f"{n_cache['l1d']} data and {n_cache['l2']} L2 accesses, "
        f"{n_indirect} indirect branches (of {n_indirect_events} events)"
    )

    predictors = {
        "bimodal-4096": lambda: BimodalPredictor(4096),
        "gshare-4096x12": lambda: GsharePredictor(4096, history_bits=12),
        "gas-4096x10": lambda: GAsPredictor(4096, history_bits=10),
        "pas-1024x16384": lambda: PAsPredictor(1024, 16384, history_bits=10),
        "agree-4096x8": lambda: AgreePredictor(4096, history_bits=8, bias_entries=2048),
        "bimode-4096x8": lambda: BiModePredictor(
            4096, history_bits=8, choice_entries=2048
        ),
        "tournament-alpha": lambda: TournamentPredictor(),
        "gskew-2048x8": lambda: GskewPredictor(2048, history_bits=8),
        "hybrid-xeon": lambda: HybridPredictor(
            bimodal_entries=config.bimodal_entries,
            global_entries=config.global_entries,
            history_bits=config.history_bits,
            chooser_entries=config.chooser_entries,
        ),
        "perceptron-1024x12": lambda: PerceptronPredictor(1024, history_bits=12),
        "tage": lambda: TagePredictor(),
        "ltage-xeon": lambda: LTagePredictor(),
    }

    rows = []
    print("direction predictors:")
    for name, factory in predictors.items():
        structure = factory()
        rows.append(
            bench_row(
                name,
                n_branch,
                lambda: _simulate_streams(structure, branch_streams, 0.25, "scalar"),
                lambda: _simulate_streams(structure, branch_streams, 0.25, "vector"),
            )
        )

    print("btb:")
    btb = BranchTargetBuffer(
        entries=config.btb_entries, associativity=config.btb_associativity
    )
    rows.append(
        bench_row(
            "btb-xeon",
            n_branch,
            lambda: _simulate_streams(btb, branch_streams, 0.25, "scalar"),
            lambda: _simulate_streams(btb, branch_streams, 0.25, "vector"),
        )
    )

    print("caches:")
    for name, cache, level in (
        ("l1i-cache", SetAssociativeCache(config.l1i), "l1i"),
        ("skewed-cache", SkewedAssociativeCache(config.l1i), "l1i"),
        ("l1d-cache", SetAssociativeCache(config.l1d), "l1d"),
        ("l2-cache", SetAssociativeCache(config.l2), "l2"),
    ):
        streams = cache_streams[level]
        rows.append(
            bench_row(
                name,
                n_cache[level],
                lambda: sum(cache.simulate(a, engine="scalar") for a in streams),
                lambda: sum(cache.simulate(a, engine="vector") for a in streams),
            )
        )

    print("indirect-target predictors:")
    for name, factory in {
        "last-target-512": lambda: LastTargetPredictor(512),
        "ittage-lite-1024": lambda: IttageLitePredictor(1024, 512),
    }.items():
        structure = factory()
        rows.append(
            bench_row(
                name,
                n_indirect,
                lambda: _simulate_streams(structure, indirect_streams, 0.25, "scalar"),
                lambda: _simulate_streams(structure, indirect_streams, 0.25, "vector"),
            )
        )

    print("structural core model (prebuilt executables):")

    def campaign(engine):
        core = XeonCoreModel(config)
        return sum(core.execute(exe, engine=engine).mispredicts for exe in executables)

    core_model = bench_row(
        "core-model",
        n_branch,
        lambda: campaign("scalar"),
        lambda: campaign("vector"),
    )
    rows.append(core_model)

    diverged = any(r["diverged"] for r in rows)
    report = {
        "scale": lab.scale.name,
        "benchmark": BENCHMARK,
        "n_layouts": lab.scale.n_layouts,
        "branch_events": n_branch,
        "ifetch_accesses": n_cache["l1i"],
        "data_accesses": n_cache["l1d"],
        "l2_accesses": n_cache["l2"],
        "indirect_branches": n_indirect,
        "rows": rows,
        "diverged": diverged,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if diverged:
        print("FAIL: scalar and vector engines diverged", file=sys.stderr)
        return 1
    best = max(r["speedup"] for r in rows)
    print(f"max kernel speedup: {best:.1f}x; core model {core_model['speedup']:.1f}x")
    if args.compare is not None:
        baseline = json.loads(args.compare.read_text())
        failures = compare_to_baseline(report, baseline, args.max_regression)
        if failures:
            print(
                f"FAIL: {len(failures)} kernel famil"
                f"{'y' if len(failures) == 1 else 'ies'} regressed past "
                f"{args.max_regression * 100:.0f}% of the committed speedup:",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(
            f"regression gate: all shared families within "
            f"{args.max_regression * 100:.0f}% of {args.compare}"
        )
    return 0


if __name__ == "__main__":
    os.environ.setdefault("REPRO_SCALE", "small")
    sys.exit(main())
