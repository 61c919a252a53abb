"""Cycle-level simulation with pluggable branch predictors.

Unlike the reference machine (which hides behind counters and adds
measurement noise), MASE is a *simulator*: deterministic, noise-free,
and fully instrumentable.  Its cycle model includes the second-order
misprediction/memory interaction of §3.1 — wrong-path execution
pollutes or prefetches the cache, so the per-misprediction cost grows
slightly with the misprediction rate.  That interaction is what makes
CPI *mildly non-linear* in MPKI for benchmarks with high wrong-path
coupling (252.eon, 178.galgel), reproducing Figure 4's error ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import units
from repro.program.tracegen import Trace
from repro.toolchain.camino import Camino
from repro.toolchain.executable import Executable
from repro.uarch.caches import CacheConfig, CacheHierarchy
from repro.uarch.predictors.base import BranchPredictor
from repro.workloads.suite import Benchmark


@dataclass(frozen=True)
class MaseConfig:
    """MASE configuration, "as similar as possible to Intel Xeon" (§3.2)."""

    mispredict_penalty: float = 26.0
    l1i_penalty: float = 9.0
    l1d_penalty: float = 10.0
    l2_penalty: float = 120.0
    warmup_fraction: float = 0.25
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 64, 8, name="mase-L1I")
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 64, 8, name="mase-L1D")
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * 1024, 64, 16, name="mase-L2")
    )


@dataclass(frozen=True)
class MaseResult:
    """One simulation's outcome."""

    benchmark: str
    predictor: str
    instructions: int
    branches: int
    mispredicts: int
    cycles: float

    @property
    def cpi(self) -> units.Cpi:
        """Cycles per instruction."""
        return units.cpi(self.cycles, self.instructions)

    @property
    def mpki(self) -> units.Mpki:
        """Mispredictions per kilo-instruction."""
        return units.mpki(self.mispredicts, self.instructions)


@dataclass
class PreparedBenchmark:
    """Predictor-independent state of one benchmark under MASE.

    Cache behaviour does not depend on the predictor in our model (the
    wrong-path interaction is folded into the cycle equation), so the
    hierarchy is simulated once and reused across all 145 predictor
    configurations.
    """

    benchmark: Benchmark
    executable: Executable
    addresses: np.ndarray
    outcomes: np.ndarray
    warmup: int
    instructions: int
    branches: int
    memory_cycles: float
    l1d_miss_rate: float


class MaseSimulator:
    """Cycle-level simulator driver."""

    def __init__(self, config: MaseConfig | None = None) -> None:
        self.config = config if config is not None else MaseConfig()
        self._toolchain = Camino()

    def prepare(
        self,
        benchmark: Benchmark,
        trace_events: int = 12000,
    ) -> PreparedBenchmark:
        """Build the baseline-layout executable and pre-simulate caches."""
        trace: Trace = benchmark.trace(trace_events)
        executable = self._toolchain.build(benchmark.spec, trace, layout_seed=None)
        bound_trace = executable.trace
        warmup = int(bound_trace.n_events * self.config.warmup_fraction)
        hierarchy = CacheHierarchy(self.config.l1i, self.config.l1d, self.config.l2)
        counts = hierarchy.simulate(
            executable.ifetch_address_stream(),
            bound_trace.iacc_event,
            executable.data_address_stream(),
            bound_trace.dacc_event,
            warmup_event=warmup,
        )
        memory_cycles = (
            counts.l1i_misses * self.config.l1i_penalty
            + counts.l1d_misses * self.config.l1d_penalty
            + counts.l2_misses * self.config.l2_penalty
        )
        l1d_miss_rate = (
            counts.l1d_misses / counts.l1d_accesses if counts.l1d_accesses else 0.0
        )
        instructions = bound_trace.total_instructions - bound_trace.instructions_up_to(warmup)
        return PreparedBenchmark(
            benchmark=benchmark,
            executable=executable,
            addresses=executable.branch_address_stream(),
            outcomes=bound_trace.outcomes,
            warmup=warmup,
            instructions=instructions,
            branches=bound_trace.n_events - warmup,
            memory_cycles=memory_cycles,
            l1d_miss_rate=l1d_miss_rate,
        )

    def run(self, prepared: PreparedBenchmark, predictor: BranchPredictor) -> MaseResult:
        """Simulate one predictor over a prepared benchmark."""
        mispredicts = predictor.simulate(
            prepared.addresses, prepared.outcomes, warmup=prepared.warmup
        )
        spec = prepared.benchmark.spec
        personality = prepared.benchmark.personality
        config = self.config
        base = prepared.instructions * spec.intrinsic_cpi
        branch_cycles = (
            mispredicts * config.mispredict_penalty * spec.mispredict_exposure
        )
        # Second-order wrong-path interaction (§3.1): each misprediction's
        # effective cost grows with the misprediction *rate*, because a
        # denser wrong-path stream perturbs the caches more.
        miss_rate = mispredicts / prepared.branches if prepared.branches else 0.0
        coupling_cycles = (
            personality.wrongpath_coupling
            * config.mispredict_penalty
            * mispredicts
            * miss_rate
        )
        cycles = base + branch_cycles + coupling_cycles + prepared.memory_cycles
        return MaseResult(
            benchmark=prepared.benchmark.name,
            predictor=predictor.name,
            instructions=prepared.instructions,
            branches=prepared.branches,
            mispredicts=mispredicts,
            cycles=cycles,
        )
