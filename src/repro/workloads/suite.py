"""Suite registry: named benchmarks with cached specs and traces."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import WorkloadError
from repro.program.structure import ProgramSpec
from repro.program.tracegen import Trace, generate_trace
from repro.rng import derive_seed
from repro.workloads.generators import MASTER_SEED, build_spec
from repro.workloads.params import (
    MASE_BENCHMARKS,
    MASE_EXTRA,
    PERSONALITIES,
    BenchmarkPersonality,
)

#: Default canonical trace length (branch events) when not overridden.
DEFAULT_TRACE_EVENTS = 12000

_TRACE_CACHE: dict[tuple[str, int], Trace] = {}


@dataclass
class Benchmark:
    """A named benchmark: personality + generated program + traces."""

    personality: BenchmarkPersonality
    _spec: ProgramSpec | None = field(default=None, repr=False)

    @property
    def name(self) -> str:
        """SPEC-style benchmark name."""
        return self.personality.name

    @property
    def spec(self) -> ProgramSpec:
        """The generated program (built once, deterministic)."""
        if self._spec is None:
            self._spec = build_spec(self.personality)
        return self._spec

    @cached_property
    def trace_seed(self) -> int:
        """Seed of the canonical trace (the benchmark's 'ref input')."""
        return derive_seed(MASTER_SEED, f"trace/{self.name}")

    def trace(self, n_events: int = DEFAULT_TRACE_EVENTS) -> Trace:
        """The canonical trace at the requested length (process-cached)."""
        key = (self.spec.digest, self.trace_seed, n_events)
        cached = _TRACE_CACHE.get(key)
        if cached is None:
            cached = generate_trace(self.spec, self.trace_seed, n_events)
            _TRACE_CACHE[key] = cached
        return cached

    @property
    def expected_significant(self) -> bool:
        """Whether the paper-style t-test is expected to pass (§4.6)."""
        return self.personality.expected_significant


def spec2006() -> "OrderedDict[str, Benchmark]":
    """The full 23-benchmark suite, keyed by name, in suite order."""
    return OrderedDict(
        (name, Benchmark(personality=personality))
        for name, personality in PERSONALITIES.items()
    )


def mase_suite() -> "OrderedDict[str, Benchmark]":
    """The MASE linearity-study set (§3): SPEC 2006 members that run
    under MASE plus the SPEC 2000 benchmarks 252.eon and 178.galgel."""
    return OrderedDict((name, get_benchmark(name)) for name in MASE_BENCHMARKS)


def get_benchmark(name: str) -> Benchmark:
    """Look up one benchmark by its SPEC name (suite or MASE-only)."""
    personality = PERSONALITIES.get(name)
    if personality is None:
        personality = MASE_EXTRA.get(name)
    if personality is None:
        raise WorkloadError(
            f"unknown benchmark {name!r}; available: "
            f"{sorted(PERSONALITIES) + sorted(MASE_EXTRA)}"
        )
    return Benchmark(personality=personality)
