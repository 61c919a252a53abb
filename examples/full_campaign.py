#!/usr/bin/env python3
"""A production campaign: four machines, a campaign store, and reporting.

The paper's methodology at operational scale (§5.4-§5.7): four
identically configured machines, each benchmark pinned to one machine
and one core, campaigns run in parallel, raw measurements archived in
a campaign store, and the Table-1-style report built from the archive
— so the expensive measurement step never has to be repeated for
re-analysis.

A machine is a seed in a campaign's key: the four machines are four
seeds sharing one configuration, and one ``observe_suite`` call runs
every benchmark's campaign on its machine.

Run:  python examples/full_campaign.py
"""

import tempfile
from pathlib import Path

from repro import PerformanceModel
from repro.core.park import observe_suite
from repro.machine.config import XeonE5440Config
from repro.rng import derive_seed
from repro.store import CampaignKey, CampaignStore, export_observations_csv

BENCHMARKS = ("400.perlbench", "445.gobmk", "462.libquantum", "470.lbm")

#: The four machines of §5.4, as machine identities.
MACHINE_SEEDS = [derive_seed(1, f"machine/{k}") for k in range(4)]


def machine_for(name: str) -> int:
    """A benchmark always runs on the same machine."""
    return derive_seed(0xD311, name) % len(MACHINE_SEEDS)


def main() -> None:
    config = XeonE5440Config()
    print(f"machine park: {len(MACHINE_SEEDS)} identical machines")
    keys = []
    for name in BENCHMARKS:
        machine = machine_for(name)
        print(f"  {name} -> machine {machine}")
        keys.append(CampaignKey(
            benchmark=name,
            trace_events=10000,
            runs_per_group=5,
            machine_seed=MACHINE_SEEDS[machine],
            config=config,
            randomize_heap=False,
        ))

    print("\nrunning campaigns (2 worker processes)...")
    results = observe_suite(keys, 16, workers=2)

    with tempfile.TemporaryDirectory(prefix="interferometry-") as tmp:
        archive = Path(tmp)
        print(f"archiving raw measurements to {archive}/")
        store = CampaignStore(archive)
        for key, observations in results.items():
            path = store.save(key, observations)
            export_observations_csv(observations, path.with_suffix(".csv"))

        print("\nre-analysis from the archive (no re-measurement):")
        print(f"  {'benchmark':<16} {'slope':>8} {'intercept':>10} "
              f"{'PI @ 0 MPKI':>18} {'significant':>12}")
        for key in keys:
            name = key.benchmark
            observations = store.load(key)
            try:
                model = PerformanceModel.from_observations(observations)
            except Exception:
                print(f"  {name:<16} {'-':>8} {'-':>10} {'-':>18} {'no variance':>12}")
                continue
            prediction = model.perfect_event_prediction()
            significant = "yes" if model.is_significant() else "no"
            print(f"  {name:<16} {model.slope:>8.4f} {model.intercept:>10.3f} "
                  f"[{prediction.prediction.low:.3f}, "
                  f"{prediction.prediction.high:.3f}]  {significant:>10}")
    print("\n(470.lbm fails the t-test by design: its branch behaviour "
          "gives interferometry\n nothing to measure — the §4.6 failure mode.)")


if __name__ == "__main__":
    main()
