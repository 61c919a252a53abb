"""Branch target buffer.

"A branch target buffer (BTB) ... would use lower-order bits of the
branch address to index a table of branch targets" (§4.1).  We model a
tagged set-associative BTB that misses when a *taken* branch's entry has
been evicted — another address-hashed structure whose conflicts move
with code layout.  The reference machine charges a small refetch penalty
per BTB miss.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch import vector
from repro.uarch.caches import LruSets, lru_access


class BranchTargetBuffer(LruSets):
    """Set-associative, LRU, tag-matched BTB counting taken-branch misses."""

    def __init__(self, entries: int = 2048, associativity: int = 4, name: str = "btb") -> None:
        if entries <= 0 or (entries & (entries - 1)) != 0:
            raise ConfigurationError(f"BTB entries must be a power of two, got {entries}")
        if associativity <= 0 or entries % associativity != 0:
            raise ConfigurationError(
                f"BTB associativity {associativity} must divide entries {entries}"
            )
        self.entries = entries
        self.associativity = associativity
        self.n_sets = entries // associativity
        self.name = name
        self.reset()

    def reset(self) -> None:
        """Empty the buffer."""
        self._empty(self.n_sets, self.associativity)

    def lookup_and_update(self, pc: int, taken: int) -> bool:
        """Access the BTB for the branch at *pc*.

        Returns True on a miss that matters (the branch was taken but
        had no entry).  Taken branches allocate/refresh their entry;
        not-taken branches never miss (fall-through needs no target).
        """
        if not taken:
            return False
        idx = (pc >> 2) & (self.n_sets - 1)
        tag = (pc >> 2) >> (self.n_sets.bit_length() - 1)
        return lru_access(self._sets[idx], tag, self.associativity)

    step = lookup_and_update

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        # Only taken branches touch the buffer: run the LRU kernel over
        # them and scatter the misses back to full event length.
        taken_events = np.nonzero(outcomes != 0)[0]
        pcs = addresses[taken_events] >> 2
        tag_shift = self.n_sets.bit_length() - 1
        state = self._lru(self.associativity)
        misses = np.zeros(int(addresses.size), dtype=bool)
        for start, stop in vector.iter_chunks(int(taken_events.size)):
            chunk = pcs[start:stop]
            misses[taken_events[start:stop]] = vector.lru_scan(
                state, chunk & (self.n_sets - 1), chunk >> tag_shift
            )
        return misses
