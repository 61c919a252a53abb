"""Set-associative caches with true LRU replacement.

"A 128-set instruction cache with 64 byte blocks would likely use bits 6
through 12 of the instruction address as the set index" (§4.1): set
selection hashes the address, so code/data placement decides which
blocks conflict.  Conflict misses appear when more live blocks map to a
set than its associativity — the mechanism behind the paper's L1I/L2
blame analysis (§6.1) and the heap-randomization cache study (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch import vector


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def lru_access(ways: list[int], tag: int, associativity: int) -> bool:
    """Access *tag* in an MRU-first way list; return True on a miss.

    The one implementation of the true-LRU hit/fill discipline, shared
    by :class:`SetAssociativeCache` and the branch target buffer: a hit
    moves the tag to the MRU slot (skipped when already there), a miss
    installs it and evicts the LRU way once the set is full.
    """
    if tag in ways:
        if ways[0] != tag:
            ways.remove(tag)
            ways.insert(0, tag)
        return False
    ways.insert(0, tag)
    if len(ways) > associativity:
        ways.pop()
    return True


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    block_bytes: int = 64
    associativity: int = 8
    name: str = "cache"

    def __post_init__(self) -> None:
        if not _is_pow2(self.size_bytes):
            raise ConfigurationError(f"cache size must be a power of two, got {self.size_bytes}")
        if not _is_pow2(self.block_bytes):
            raise ConfigurationError(f"block size must be a power of two, got {self.block_bytes}")
        if self.associativity <= 0:
            raise ConfigurationError(f"associativity must be positive, got {self.associativity}")
        if self.size_bytes % (self.block_bytes * self.associativity) != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"block*ways = {self.block_bytes * self.associativity}"
            )
        if self.n_sets < 1 or not _is_pow2(self.n_sets):
            raise ConfigurationError(f"{self.name}: set count {self.n_sets} must be a power of two")

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.block_bytes * self.associativity)

    @property
    def block_shift(self) -> int:
        """log2(block size)."""
        return self.block_bytes.bit_length() - 1


class SetAssociativeCache(vector.Structure):
    """A single cache level with true-LRU replacement.

    The cache is stateful across :meth:`access` calls (the oracle
    ``step``); :meth:`reset` empties it.  Bulk simulation goes through
    the inherited :meth:`~repro.uarch.vector.Structure.simulate_mask`,
    whose vector engine is the :func:`repro.uarch.vector.lru_scan` kernel.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: list[list[int]] = []
        self.reset()

    def reset(self) -> None:
        """Empty every set."""
        self._sets = [[] for _ in range(self.config.n_sets)]

    def access(self, address: int) -> bool:
        """Access one address; return True on a miss."""
        block = address >> self.config.block_shift
        set_idx = block & (self.config.n_sets - 1)
        tag = block >> (self.config.n_sets.bit_length() - 1)
        return lru_access(self._sets[set_idx], tag, self.config.associativity)

    step = access

    def scan(self, addresses: np.ndarray) -> np.ndarray:
        config = self.config
        set_shift = config.n_sets.bit_length() - 1
        state = vector.LruState(config.n_sets, config.associativity)
        n = int(addresses.size)
        misses = np.zeros(n, dtype=bool)
        for start, stop in vector.iter_chunks(n):
            blocks = addresses[start:stop] >> config.block_shift
            misses[start:stop] = vector.lru_scan(
                state, blocks & (config.n_sets - 1), blocks >> set_shift
            )
        self._sets = state.to_ways_lists()
        return misses


@dataclass(frozen=True)
class HierarchyCounts:
    """Miss counts from one pass through a two-level hierarchy."""

    l1i_accesses: int
    l1i_misses: int
    l1d_accesses: int
    l1d_misses: int
    l2_accesses: int
    l2_misses: int


def l2_fill_stream(
    ifetch_misses: np.ndarray,
    ifetch_events: np.ndarray,
    data_misses: np.ndarray,
    data_events: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge L1I and L1D miss addresses into the L2 access stream.

    Fills are ordered by branch event, instruction fetches before data
    references within one event.  Returns the addresses and their
    events.
    """
    i_ev = ifetch_events.astype(np.int64)
    d_ev = data_events.astype(np.int64)
    order = np.argsort(np.concatenate([i_ev * 2, d_ev * 2 + 1]), kind="stable")
    return (
        np.concatenate([ifetch_misses, data_misses])[order],
        np.concatenate([i_ev, d_ev])[order],
    )


class CacheHierarchy:
    """L1I + L1D backed by a unified L2.

    L1 misses are forwarded to the L2 in program (branch-event) order,
    instruction fetches before data references within one event —
    mirroring how a fetch precedes the loads its instructions perform.
    """

    def __init__(self, l1i: CacheConfig, l1d: CacheConfig, l2: CacheConfig) -> None:
        self.l1i = SetAssociativeCache(l1i)
        self.l1d = SetAssociativeCache(l1d)
        self.l2 = SetAssociativeCache(l2)

    def simulate(
        self,
        ifetch_addresses: np.ndarray,
        ifetch_events: np.ndarray,
        data_addresses: np.ndarray,
        data_events: np.ndarray,
        warmup_event: int = 0,
        engine: str = "vector",
    ) -> HierarchyCounts:
        """Simulate the full hierarchy over bound access streams.

        The whole streams are simulated (so the caches are warm), but
        accesses and misses are *counted* only for branch events with
        index >= *warmup_event* — the same measurement window the
        predictors use.  *engine* selects the per-level simulation
        implementation (see :meth:`SetAssociativeCache.simulate_mask`),
        never the counts.
        """
        i_miss = self.l1i.simulate_mask(ifetch_addresses, engine=engine)
        d_miss = self.l1d.simulate_mask(data_addresses, engine=engine)
        l2_stream, l2_events = l2_fill_stream(
            ifetch_addresses[i_miss],
            ifetch_events[i_miss],
            data_addresses[d_miss],
            data_events[d_miss],
        )
        l2_miss = self.l2.simulate_mask(l2_stream, engine=engine)
        i_window = ifetch_events >= warmup_event
        d_window = data_events >= warmup_event
        l2_window = l2_events >= warmup_event
        return HierarchyCounts(
            l1i_accesses=int(np.count_nonzero(i_window)),
            l1i_misses=int(np.count_nonzero(i_miss & i_window)),
            l1d_accesses=int(np.count_nonzero(d_window)),
            l1d_misses=int(np.count_nonzero(d_miss & d_window)),
            l2_accesses=int(np.count_nonzero(l2_window)),
            l2_misses=int(np.count_nonzero(l2_miss & l2_window)),
        )


def _skew_hash(block: int, way: int, n_sets: int) -> int:
    """Per-way index hash for the skewed-associative cache.

    Distinct ways use distinct mixes of the block number's bit groups
    (a simplification of Seznec's XOR-based skewing functions).
    """
    mask = n_sets - 1
    if way == 0:
        return block & mask
    shifted = block >> (4 + way)
    return (block ^ shifted ^ (way * 0x9E37)) & mask


class SkewedAssociativeCache(vector.Structure):
    """Skewed-associative cache (Seznec, ISCA 1993).

    Each way indexes with a *different* hash of the block address, so
    two blocks conflicting in one way almost never conflict in the
    others — the cache analogue of the gskew predictor, and the
    anti-aliasing counterpart to the conflict sensitivity that the
    heap-randomization study (Fig. 3) measures.  Replacement is
    round-robin among the candidate ways (true LRU is not defined when
    every way has its own set).
    """

    def __init__(self, config: CacheConfig) -> None:
        if config.associativity < 2:
            raise ConfigurationError("skewed caches need at least 2 ways")
        self.config = config
        self._ways: list[dict[int, int]] = []
        self._victim = 0
        self.reset()

    def reset(self) -> None:
        """Empty every way."""
        self._ways = [dict() for _ in range(self.config.associativity)]
        self._victim = 0

    def access(self, address: int) -> bool:
        """Access one address; return True on a miss."""
        block = address >> self.config.block_shift
        n_sets = self.config.n_sets
        for way, contents in enumerate(self._ways):
            idx = _skew_hash(block, way, n_sets)
            if contents.get(idx) == block:
                return False
        victim_way = self._victim
        self._victim = (self._victim + 1) % self.config.associativity
        idx = _skew_hash(block, victim_way, n_sets)
        self._ways[victim_way][idx] = block
        return True

    step = access

    def scan(self, addresses: np.ndarray) -> np.ndarray:
        # access() fused into one loop, with the victim pointer in a
        # local; kept because it beats the oracle (BENCH_kernels.json,
        # row skewed-cache).
        config = self.config
        n_sets = config.n_sets
        assoc = config.associativity
        ways = self._ways
        victim = 0
        blocks = (addresses >> config.block_shift).tolist()
        misses = [False] * len(blocks)
        # repro: allow-PERF001 round-robin skewed replacement is a serial recurrence across all ways (the victim pointer advances only on misses, and every way hashes differently) — no vector kernel family covers it yet (ROADMAP item 1)
        for i, block in enumerate(blocks):
            hit = False
            for way in range(assoc):
                idx = _skew_hash(block, way, n_sets)
                if ways[way].get(idx) == block:
                    hit = True
                    break
            if not hit:
                misses[i] = True
                idx = _skew_hash(block, victim, n_sets)
                ways[victim][idx] = block
                victim = (victim + 1) % assoc
        self._victim = victim
        return np.array(misses, dtype=bool)
