"""Counter-collection methodology (§5.5).

"We are interested in more than two events, so we make multiple runs of
each benchmark to collect all of the desired counters.  We group the
counters into three sets of two.  For each set we run each benchmark
five times and take the measurements given by the run with the median
number of cycles."

:func:`measure_executable` reproduces exactly that protocol and returns
a :class:`Measurement` with the merged counters and derived statistics
(CPI, MPKI, cache MPKIs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import units
from repro.errors import MeasurementError
from repro.machine.counters import PAPER_EVENTS, Counter
from repro.machine.system import XeonE5440
from repro.toolchain.executable import Executable


@dataclass(frozen=True)
class CounterGroupPlan:
    """How a list of programmable events is split into two-event runs."""

    groups: tuple[tuple[Counter, ...], ...]

    @staticmethod
    def for_events(events: Sequence[Counter]) -> "CounterGroupPlan":
        """Pack programmable events into groups of two, preserving order."""
        programmable = [Counter(e) for e in events if not Counter(e).is_fixed]
        if not programmable:
            raise MeasurementError("no programmable events requested")
        if len(set(programmable)) != len(programmable):
            raise MeasurementError(f"duplicate events in request: {programmable}")
        groups = tuple(
            tuple(programmable[i : i + 2]) for i in range(0, len(programmable), 2)
        )
        return CounterGroupPlan(groups=groups)

    @property
    def n_runs(self) -> int:
        """Total native runs needed at five runs per group."""
        return 5 * len(self.groups)


@dataclass(frozen=True)
class Measurement:
    """Merged counter readings for one executable.

    ``cycles`` comes from the median run of the *first* counter group
    (the group containing branch mispredictions, per the paper's
    emphasis); every programmable event comes from its own group's
    median-cycle run.
    """

    executable_fingerprint: str
    layout_seed: int
    heap_seed: int | None
    counters: Mapping[Counter, int]

    def __getitem__(self, event: Counter) -> int:
        try:
            return self.counters[event]
        except KeyError:
            raise MeasurementError(
                f"event {event.value} was not measured; have "
                f"{[e.value for e in self.counters]}"
            ) from None

    @property
    def cycles(self) -> int:
        """Elapsed cycles of the representative (median) run."""
        return self[Counter.CYCLES]

    @property
    def instructions(self) -> int:
        """Retired instructions (identical for every run/layout)."""
        return self[Counter.INSTRUCTIONS]

    @property
    def cpi(self) -> units.Cpi:
        """Cycles per instruction."""
        return units.cpi(self.cycles, self.instructions)

    def per_kilo_instruction(self, event: Counter) -> units.Mpki:
        """Any event normalized per kilo retired instruction."""
        return units.per_kilo(self[event], self.instructions)

    @property
    def mpki(self) -> units.Mpki:
        """Branch mispredictions per kilo-instruction."""
        return self.per_kilo_instruction(Counter.BRANCH_MISPREDICTS)

    @property
    def l1i_mpki(self) -> units.Mpki:
        """L1I misses per kilo-instruction."""
        return self.per_kilo_instruction(Counter.L1I_MISSES)

    @property
    def l1d_mpki(self) -> units.Mpki:
        """L1D misses per kilo-instruction."""
        return self.per_kilo_instruction(Counter.L1D_MISSES)

    @property
    def l2_mpki(self) -> units.Mpki:
        """L2 misses per kilo-instruction."""
        return self.per_kilo_instruction(Counter.L2_MISSES)

    @property
    def btb_mpki(self) -> units.Mpki:
        """BTB misses per kilo-instruction."""
        return self.per_kilo_instruction(Counter.BTB_MISSES)


class CounterSession:
    """Counter reads for one measurement context: one native run each."""

    # perfbench/layers.py wraps read() to count retried_reads; both go with it.
    retried_reads = 0

    def __init__(self, machine: XeonE5440, core: int = 0) -> None:
        self.machine = machine
        self.core = core

    def read(
        self, executable: Executable, events: Sequence[Counter], run_key: str
    ) -> Mapping[Counter, int]:
        """One counter reading: run *executable* once on this core."""
        return self.machine.run_once(
            executable, events, core=self.core, run_key=run_key
        )


def measure_executable(
    machine: XeonE5440,
    executable: Executable,
    events: Sequence[Counter] = PAPER_EVENTS,
    runs_per_group: int = 5,
    core: int = 0,
) -> Measurement:
    """Collect all *events* for one executable using the paper's protocol.

    Events are packed into two-event groups; each group is run
    *runs_per_group* times and the run with the median cycle count is
    kept.  The benchmark is pinned to *core* for every run.
    """
    if runs_per_group < 1:
        raise MeasurementError(f"runs_per_group must be >= 1, got {runs_per_group}")
    session = CounterSession(machine, core=core)
    plan = CounterGroupPlan.for_events(events)
    merged: dict[Counter, int] = {}
    for group_idx, group in enumerate(plan.groups):
        runs = []
        for run_idx in range(runs_per_group):
            reading = session.read(
                executable,
                group,
                run_key=f"g{group_idx}/r{run_idx}",
            )
            runs.append(reading)
        runs.sort(key=lambda reading: reading[Counter.CYCLES])
        median_run = runs[len(runs) // 2]
        for event in group:
            merged[event] = median_run[event]
        if group_idx == 0:
            merged[Counter.CYCLES] = median_run[Counter.CYCLES]
            merged[Counter.INSTRUCTIONS] = median_run[Counter.INSTRUCTIONS]
    return Measurement(
        executable_fingerprint=executable.fingerprint,
        layout_seed=executable.layout_seed,
        heap_seed=executable.heap_seed,
        counters=merged,
    )
