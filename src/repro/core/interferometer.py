"""The interferometer: sample layouts, measure, collect observations.

Layout seeds are a published deterministic function of (benchmark,
index) so that independent tools observe *the same* reorderings — the
paper runs its Pin simulations on "the same first 100 reorderings used
for the performance monitoring counter measurements" (§7.2).
"""

from __future__ import annotations

from repro.core.observations import Observation, ObservationSet
from repro.errors import ConfigurationError
from repro.machine.counters import PAPER_EVENTS
from repro.machine.pmc import measure_executable
from repro.machine.system import XeonE5440
from repro.program.tracegen import Trace
from repro.rng import derive_seed
from repro.toolchain.camino import Camino
from repro.toolchain.executable import Executable
from repro.workloads.suite import Benchmark

#: Base of the published layout-seed sequence.
LAYOUT_SEED_BASE = 0x1A70


def layout_seed(benchmark_name: str, index: int) -> int:
    """The i-th reordering seed of a benchmark (shared by all tools)."""
    if index < 0:
        raise ConfigurationError(f"layout index must be >= 0, got {index}")
    return derive_seed(LAYOUT_SEED_BASE, f"{benchmark_name}/{index}")


def heap_seed(benchmark_name: str, index: int) -> int:
    """The i-th heap-randomization seed of a benchmark."""
    if index < 0:
        raise ConfigurationError(f"heap index must be >= 0, got {index}")
    return derive_seed(LAYOUT_SEED_BASE, f"heap/{benchmark_name}/{index}")


class Interferometer:
    """Orchestrates the layout-perturbation measurement campaign.

    Parameters
    ----------
    machine:
        The measurement platform.
    toolchain:
        The Camino toolchain used to build reordered executables.
    trace_events:
        Canonical trace length per benchmark.
    runs_per_group:
        Native runs per counter group (5 in the paper).
    randomize_heap:
        When True, each layout also gets a DieHard-randomized heap
        (the configuration of §1.3 / Figure 3).
    """

    def __init__(
        self,
        machine: XeonE5440,
        toolchain: Camino | None = None,
        trace_events: int = 20000,
        runs_per_group: int = 5,
        randomize_heap: bool = False,
    ) -> None:
        if trace_events <= 0:
            raise ConfigurationError(f"trace_events must be positive, got {trace_events}")
        self.machine = machine
        self.toolchain = toolchain if toolchain is not None else Camino()
        self.trace_events = trace_events
        self.runs_per_group = runs_per_group
        self.randomize_heap = randomize_heap

    def core_for(self, benchmark_name: str) -> int:
        """The core a benchmark is pinned to, fixed across its runs.

        The paper uses ``taskset`` "to make sure that each benchmark
        always runs on the same core" (§5.5).
        """
        return derive_seed(0x7A5C, benchmark_name) % self.machine.n_cores

    def build_executable(self, benchmark: Benchmark, index: int) -> Executable:
        """Build the *index*-th reordered executable of *benchmark*."""
        trace = benchmark.trace(self.trace_events)
        return self.toolchain.build(
            benchmark.spec,
            trace,
            layout_seed=layout_seed(benchmark.name, index),
            heap_seed=heap_seed(benchmark.name, index) if self.randomize_heap else None,
        )

    def observe_one(self, benchmark: Benchmark, index: int) -> Observation:
        """Measure one layout with the full counter protocol."""
        executable = self.build_executable(benchmark, index)
        measurement = measure_executable(
            self.machine,
            executable,
            events=PAPER_EVENTS,
            runs_per_group=self.runs_per_group,
            core=self.core_for(benchmark.name),
        )
        return Observation(
            layout_index=index,
            layout_seed=executable.layout_seed,
            heap_seed=executable.heap_seed,
            measurement=measurement,
        )

    def observe(
        self,
        benchmark: Benchmark,
        n_layouts: int = 100,
        start_index: int = 0,
    ) -> ObservationSet:
        """Measure *n_layouts* reorderings; return the observation set.

        ``start_index`` lets a campaign resume after its stored prefix
        (:func:`~repro.core.park.observe_suite` measures each missing
        suffix this way, §6.3's escalation rounds included) without
        re-measuring earlier layouts.
        """
        if n_layouts <= 0:
            raise ConfigurationError(f"n_layouts must be positive, got {n_layouts}")
        observations = ObservationSet(benchmark=benchmark.name)
        for i in range(start_index, start_index + n_layouts):
            observations.append(self.observe_one(benchmark, i))
        return observations
