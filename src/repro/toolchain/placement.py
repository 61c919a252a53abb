"""Code-placement optimization (the §2.2 landscape, inverted).

Program interferometry treats layout-induced performance variance as a
*measurement signal*; the optimization literature the paper surveys
(Pettis & Hansen, Jiménez PLDI'05, Knights et al.) instead *exploits*
it: pick the layout that performs best.  This module implements both
flavours over our toolchain:

* :func:`hot_grouping_order` — a Pettis-Hansen-style heuristic: place
  procedures in decreasing execution hotness, so hot code is dense
  (fewer I-cache sets touched) and hot branches spread evenly across
  predictor index bits.
* :class:`ConflictAvoidingPlacer` — a Jiménez-PLDI'05-style search:
  hill-climb over procedure/object-file orders, scoring each candidate
  layout by *simulating the predictor* (and optionally the I-cache) on
  the bound addresses, to explicitly steer hot branches away from table
  conflicts.

The paper notes that if such optimizations were widely adopted, its
own technique would lose variance to measure (§2.2) — the
``ablation.placement_beats_random`` claim in :mod:`repro.harness.claims`
quantifies exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.program.structure import ProgramSpec
from repro.program.tracegen import Trace
from repro.rng import RandomStream
from repro.toolchain.linker import ObjectFile, link
from repro.uarch.caches import CacheConfig, SetAssociativeCache
from repro.uarch.predictors.base import BranchPredictor
from repro.uarch.predictors.hybrid import HybridPredictor


def hot_grouping_order(spec: ProgramSpec, trace: Trace) -> list[ObjectFile]:
    """Order procedures within each file by decreasing activation count.

    A profile-guided heuristic in the spirit of Pettis & Hansen's
    procedure positioning: hot procedures become neighbours at the front
    of each compilation unit, and the hottest files come first on the
    link line.
    """
    counts = np.bincount(trace.activation_proc, minlength=len(spec.procedures))
    index = spec.procedure_index
    ordered_files = []
    file_heat = []
    for src in spec.files:
        members = sorted(
            src.procedure_names, key=lambda name: -int(counts[index[name]])
        )
        ordered_files.append(ObjectFile(name=src.name, procedure_names=tuple(members)))
        file_heat.append(-sum(int(counts[index[name]]) for name in src.procedure_names))
    return [obj for _, obj in sorted(zip(file_heat, ordered_files), key=lambda p: p[0])]


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of a placement search."""

    object_files: tuple[ObjectFile, ...]
    initial_score: int
    final_score: int
    iterations: int
    accepted_moves: int

    @property
    def improvement_percent(self) -> float:
        """Score reduction achieved by the search."""
        if self.initial_score == 0:
            return 0.0
        return (self.initial_score - self.final_score) / self.initial_score * 100.0


class ConflictAvoidingPlacer:
    """Hill-climbing layout search scored by structural simulation.

    Parameters
    ----------
    predictor:
        The predictor whose conflicts the placement avoids.  Defaults to
        the reference machine's hybrid geometry — the realistic case of
        optimizing for the processor you ship on.
    icache:
        Optional I-cache config; when given, I-cache misses join the
        score with *icache_weight* relative cost.
    warmup_fraction:
        Measurement window, matching the machine's convention.
    """

    def __init__(
        self,
        predictor: BranchPredictor | None = None,
        icache: CacheConfig | None = None,
        icache_weight: float = 0.5,
        warmup_fraction: float = 0.25,
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        self.predictor = (
            predictor
            if predictor is not None
            else HybridPredictor(2048, 4096, 8, 2048)
        )
        self.icache = icache
        self.icache_weight = icache_weight
        self.warmup_fraction = warmup_fraction

    def score(
        self, spec: ProgramSpec, trace: Trace, object_files: list[ObjectFile]
    ) -> int:
        """Mispredictions (+ weighted I-cache misses) of one layout."""
        layout = link(spec, object_files)
        site_addresses = layout.proc_base[trace.site_proc] + trace.site_offset
        branch_stream = site_addresses[trace.site_ids]
        warmup = int(trace.n_events * self.warmup_fraction)
        total = self.predictor.simulate(branch_stream, trace.outcomes, warmup=warmup)
        if self.icache is not None:
            ifetch = layout.proc_base[trace.iacc_proc] + trace.iacc_offset
            cache = SetAssociativeCache(self.icache)
            miss_mask = cache.simulate_mask(ifetch)
            window = trace.iacc_event >= warmup
            misses = int(np.count_nonzero(miss_mask & window))
            total += int(self.icache_weight * misses)
        return total

    def optimize(
        self,
        spec: ProgramSpec,
        trace: Trace,
        iterations: int = 100,
        seed: int = 0,
        start: list[ObjectFile] | None = None,
    ) -> PlacementResult:
        """Hill-climb from *start* (default: hot grouping) for *iterations*.

        Each move either swaps two procedures within a file or swaps two
        object files on the link line; moves that do not reduce the
        score are rejected.  Deterministic per seed.
        """
        if iterations < 0:
            raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
        stream = RandomStream(seed, f"placement/{spec.name}")
        current = list(start) if start is not None else hot_grouping_order(spec, trace)
        current_score = self.score(spec, trace, current)
        initial_score = current_score
        accepted = 0
        for _ in range(iterations):
            candidate = [
                ObjectFile(name=obj.name, procedure_names=obj.procedure_names)
                for obj in current
            ]
            if stream.uniform() < 0.5 and len(candidate) >= 2:
                i = stream.randint(0, len(candidate) - 1)
                j = stream.randint(0, len(candidate) - 1)
                candidate[i], candidate[j] = candidate[j], candidate[i]
            else:
                file_idx = stream.randint(0, len(candidate) - 1)
                names = list(candidate[file_idx].procedure_names)
                if len(names) >= 2:
                    i = stream.randint(0, len(names) - 1)
                    j = stream.randint(0, len(names) - 1)
                    names[i], names[j] = names[j], names[i]
                    candidate[file_idx] = ObjectFile(
                        name=candidate[file_idx].name, procedure_names=tuple(names)
                    )
            candidate_score = self.score(spec, trace, candidate)
            if candidate_score < current_score:
                current = candidate
                current_score = candidate_score
                accepted += 1
        return PlacementResult(
            object_files=tuple(current),
            initial_score=initial_score,
            final_score=current_score,
            iterations=iterations,
            accepted_moves=accepted,
        )
