"""The Camino post-processor stand-in.

Camino (Hu et al.) post-processes GCC assembly output.  The paper uses
two of its capabilities (§5.3, §5.7):

1. *Seeded reordering* — permute procedures within each assembly file,
   assemble, then permute object files on the linker command line.  The
   seed makes every layout reproducible.
2. *Run-limit instrumentation* — a two-pass profiling scheme that finds
   a low-frequency procedure executed near the end of a two-minute run
   and ends the program after the same number of executions of that
   procedure, so every reordered executable retires the same number of
   instructions.

:class:`Camino` implements both over our synthetic program model and
produces :class:`~repro.toolchain.executable.Executable` images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.heap.diehard import DieHardAllocator, SequentialAllocator
from repro.heap.layout import DataLayout
from repro.program.structure import ProgramSpec
from repro.program.tracegen import Trace
from repro.rng import RandomStream
from repro.toolchain.executable import Executable
from repro.toolchain.linker import (
    DEFAULT_ALIGNMENT,
    DEFAULT_TEXT_BASE,
    CodeLayout,
    ObjectFile,
    link,
)


@dataclass(frozen=True)
class RunLimitPass:
    """Two-pass profiling instrumentation that bounds run length.

    The first (profiling) pass counts procedure activations over the
    canonical trace.  The pass then selects a procedure whose activation
    count is low (cheap to instrument: two x86 instructions in the
    paper) but whose *last* activation falls near the end of the trace,
    and arranges for the program to stop at the end of that activation.
    Because the canonical trace is layout-invariant, the resulting event
    cutoff — and hence the retired-instruction count — is identical for
    every layout of the benchmark.
    """

    tail_fraction: float = 0.9
    low_count_quantile: float = 0.25

    def choose_limit(self, trace: Trace) -> int:
        """Return the branch-event index at which runs should stop."""
        if not 0.0 < self.tail_fraction < 1.0:
            raise ConfigurationError(
                f"tail_fraction must be in (0, 1), got {self.tail_fraction}"
            )
        n_events = trace.n_events
        acts = trace.activation_proc
        starts = trace.activation_start
        if acts.size == 0:
            return n_events
        counts = np.bincount(acts)
        active = np.flatnonzero(counts)
        threshold = np.quantile(counts[active], self.low_count_quantile)
        tail_start = int(n_events * self.tail_fraction)

        best_limit = n_events
        best_last = -1
        for proc in active:
            if counts[proc] > threshold:
                continue
            occurrences = np.flatnonzero(acts == proc)
            last = int(occurrences[-1])
            last_start = int(starts[last])
            if last_start < tail_start:
                continue
            if last_start > best_last:
                best_last = last_start
                # Stop at the end of that activation.
                best_limit = int(starts[last + 1])
        return best_limit if best_limit > 0 else n_events


class Camino:
    """Toolchain facade: seeded reordering + linking + heap binding.

    Parameters
    ----------
    text_base / alignment:
        Passed to the linker.
    run_limit:
        The instrumentation pass; ``None`` disables run limiting.
    """

    def __init__(
        self,
        text_base: int = DEFAULT_TEXT_BASE,
        alignment: int = DEFAULT_ALIGNMENT,
        run_limit: RunLimitPass | None = None,
    ) -> None:
        self.text_base = text_base
        self.alignment = alignment
        self.run_limit = run_limit if run_limit is not None else RunLimitPass()
        self._sequential = SequentialAllocator()
        self._bound: tuple[Trace, Trace] | None = None

    def bound_trace(self, trace: Trace) -> Trace:
        """*trace* cut at the run limit, shared by every layout built from it.

        The limit depends only on the canonical trace, so consecutive
        builds from one trace (a campaign's layouts) choose it once and
        carry the same truncated :class:`Trace`.  Only the latest trace
        is kept, so a long-lived toolchain holds one bound trace, not
        one per benchmark it has built.
        """
        bound = self._bound
        if bound is None or bound[0] is not trace:
            bound = self._bound = (
                trace,
                trace.truncated(self.run_limit.choose_limit(trace)),
            )
        return bound[1]

    def base_object_files(self, spec: ProgramSpec) -> list[ObjectFile]:
        """The unperturbed compilation result: one object file per source
        file, procedures in declaration order."""
        return [ObjectFile(name=src.name, procedure_names=src.procedure_names) for src in spec.files]

    def reorder(self, spec: ProgramSpec, seed: int) -> list[ObjectFile]:
        """Produce the seeded random-but-plausible ordering of §5.3.

        Procedures are permuted within each file, then the object files
        themselves are permuted.  The same seed always yields the same
        ordering.
        """
        stream = RandomStream(seed, f"camino/{spec.name}")
        reordered: list[ObjectFile] = []
        for src in spec.files:
            procs = list(src.procedure_names)
            stream.fork(f"procs/{src.name}").shuffle(procs)
            reordered.append(ObjectFile(name=src.name, procedure_names=tuple(procs)))
        stream.fork("files").shuffle(reordered)
        return reordered

    def link_layout(self, spec: ProgramSpec, seed: int | None) -> CodeLayout:
        """Link with the baseline ordering (seed ``None``) or a seeded one."""
        if seed is None:
            objects = self.base_object_files(spec)
        else:
            objects = self.reorder(spec, seed)
        return link(spec, objects, text_base=self.text_base, alignment=self.alignment)

    def build(
        self,
        spec: ProgramSpec,
        trace: Trace,
        layout_seed: int | None,
        heap_seed: int | None = None,
        heap_allocator: DieHardAllocator | None = None,
        apply_run_limit: bool = True,
    ) -> Executable:
        """Build one executable image.

        ``layout_seed=None`` gives the baseline (unperturbed) code
        layout.  ``heap_seed=None`` gives the deterministic sequential
        heap; otherwise *heap_allocator* (a fresh default
        :class:`DieHardAllocator` if not supplied) randomizes object
        placement with that seed.
        """
        code_layout = self.link_layout(spec, layout_seed)
        data_layout: DataLayout
        if heap_seed is None:
            data_layout = self._sequential.allocate(spec)
        else:
            allocator = heap_allocator if heap_allocator is not None else DieHardAllocator()
            data_layout = allocator.allocate(spec, heap_seed)
        bound_trace = self.bound_trace(trace) if apply_run_limit else trace
        return Executable(
            spec=spec,
            trace=bound_trace,
            code_layout=code_layout,
            data_layout=data_layout,
            layout_seed=-1 if layout_seed is None else layout_seed,
            heap_seed=heap_seed,
        )

    def build_custom(
        self,
        spec: ProgramSpec,
        trace: Trace,
        object_files: list[ObjectFile],
        heap_seed: int | None = None,
        apply_run_limit: bool = True,
    ) -> Executable:
        """Build an executable from an explicit object-file order.

        Used by code-placement optimizers (see
        :mod:`repro.toolchain.placement`) and by experiments that want a
        hand-chosen layout rather than a seeded random one.
        """
        code_layout = link(
            spec, object_files, text_base=self.text_base, alignment=self.alignment
        )
        if heap_seed is None:
            data_layout = self._sequential.allocate(spec)
        else:
            data_layout = DieHardAllocator().allocate(spec, heap_seed)
        bound_trace = self.bound_trace(trace) if apply_run_limit else trace
        return Executable(
            spec=spec,
            trace=bound_trace,
            code_layout=code_layout,
            data_layout=data_layout,
            layout_seed=-2,
            heap_seed=heap_seed,
        )
