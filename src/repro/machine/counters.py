"""Performance monitoring counter identifiers.

The names follow Intel Core-microarchitecture event mnemonics.  The
paper collects five statistics (§5.5): retired mispredicted branches,
retired instructions, L1 instruction cache misses, L2 cache misses, and
elapsed cycles.  We additionally expose retired branches, L1D misses
(used by the Figure 3 heap-randomization study), and BTB misses.
"""

from __future__ import annotations

from enum import Enum


class Counter(str, Enum):
    """A measurable microarchitectural event."""

    #: Elapsed core clock cycles (fixed counter, always available).
    CYCLES = "CPU_CLK_UNHALTED"
    #: Retired instructions (fixed counter, always available).
    INSTRUCTIONS = "INST_RETIRED"
    #: Retired conditional branches.
    BRANCHES = "BR_INST_RETIRED"
    #: Retired mispredicted conditional branches.
    BRANCH_MISPREDICTS = "BR_MISP_RETIRED"
    #: L1 instruction cache misses.
    L1I_MISSES = "L1I_MISSES"
    #: L1 data cache misses.
    L1D_MISSES = "L1D_REPL"
    #: Unified L2 cache misses.
    L2_MISSES = "L2_LINES_IN"
    #: Branch target buffer misses on taken branches.
    BTB_MISSES = "BTB_MISSES"
    #: Mispredicted indirect-branch targets.
    INDIRECT_MISPREDICTS = "BR_IND_MISSP"

    @property
    def is_fixed(self) -> bool:
        """Fixed counters are always collected and cost no programmable slot."""
        return self in (Counter.CYCLES, Counter.INSTRUCTIONS)

    @property
    def unit(self) -> str:
        """This event's unit in the quantity algebra (:mod:`repro.units`).

        Raw readings are counts: cycles, retired instructions, retired
        branches, or miss-type events.  Per-kilo-instruction rates are
        *derived* quantities and must be built through the sanctioned
        constructors in :mod:`repro.units`.
        """
        if self is Counter.CYCLES:
            return "cycles"
        if self is Counter.INSTRUCTIONS:
            return "instructions"
        if self is Counter.BRANCHES:
            return "branches"
        return "misses"


#: The programmable events the paper's three two-event groups cover,
#: in the grouping order used by :func:`repro.machine.pmc.measure_executable`.
PAPER_EVENTS = (
    Counter.BRANCH_MISPREDICTS,
    Counter.BRANCHES,
    Counter.L1I_MISSES,
    Counter.L2_MISSES,
    Counter.L1D_MISSES,
    Counter.BTB_MISSES,
)
