"""Differential tests: the vector engine against the scalar oracle.

Every simulated structure offers two engines with one contract: the
numpy batch kernels (``engine="vector"``) must produce *bit-identical*
counts — and, where the structure keeps tables, bit-identical post-run
state — to the per-event scalar loops (``engine="scalar"``).  These
tests enforce that contract over hypothesis-chosen traces, including
the warmup edge cases (0, the full trace, past the end), empty
streams, all-not-taken traces, indirect traces with no indirect
branches at all, and state carried across kernel chunk boundaries.
"""

from __future__ import annotations

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.machine.config import XeonE5440Config
from repro.machine.core_model import XeonCoreModel
from repro.program.tracegen import generate_trace
from repro.toolchain.camino import Camino
from repro.uarch.btb import BranchTargetBuffer
from repro.uarch import vector
from repro.uarch.caches import (
    CacheConfig,
    CacheHierarchy,
    SetAssociativeCache,
    SkewedAssociativeCache,
    lru_access,
)
from repro.uarch.predictors.agree import AgreePredictor
from repro.uarch.predictors.bimodal import BimodalPredictor
from repro.uarch.predictors.bimode import BiModePredictor
from repro.uarch.predictors.gas import GAsPredictor
from repro.uarch.predictors.gshare import GsharePredictor
from repro.uarch.predictors.gskew import GskewPredictor
from repro.uarch.predictors.hybrid import HybridPredictor
from repro.uarch.predictors.indirect import IttageLitePredictor, LastTargetPredictor
from repro.uarch.predictors.pas import PAsPredictor
from repro.uarch.predictors.perceptron import PerceptronPredictor
from repro.uarch.predictors.perfect import PerfectPredictor
from repro.uarch.predictors.static import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
)
from repro.uarch.predictors.tage import LTagePredictor, TagePredictor
from repro.uarch.predictors.tournament import TournamentPredictor

from tests.conftest import make_tiny_spec

# Small geometries on purpose: heavy aliasing exercises the carried
# state of every kernel much harder than the production sizes do.
PREDICTOR_FACTORIES = {
    "bimodal": lambda: BimodalPredictor(entries=128),
    "gshare": lambda: GsharePredictor(entries=256, history_bits=7),
    "gas": lambda: GAsPredictor(entries=256, history_bits=5),
    "hybrid": lambda: HybridPredictor(128, 512, 7, 128),
    "hybrid-uneven-chooser": lambda: HybridPredictor(128, 512, 7, 256),
    "agree": lambda: AgreePredictor(entries=256, history_bits=6, bias_entries=64),
    "pas": lambda: PAsPredictor(bht_entries=64, pht_entries=1024, history_bits=6),
    "tournament": lambda: TournamentPredictor(64, 6, 256, 7),
    "gskew": lambda: GskewPredictor(entries_per_bank=128, history_bits=6),
    "bimode": lambda: BiModePredictor(entries=256, history_bits=6, choice_entries=64),
    "perceptron": lambda: PerceptronPredictor(entries=64, history_bits=10),
    "tage": lambda: TagePredictor(table_bits=6, bimodal_bits=8),
    "ltage": lambda: LTagePredictor(table_bits=6, bimodal_bits=8, loop_entries=16),
    "always-taken": AlwaysTakenPredictor,
    "always-not-taken": AlwaysNotTakenPredictor,
    "perfect": PerfectPredictor,
}

CACHE_CONFIGS = {
    "direct-mapped": CacheConfig(1024, 32, 1, name="direct"),
    "two-way": CacheConfig(4096, 64, 2, name="two-way"),
    "eight-way": CacheConfig(32768, 64, 8, name="l1-like"),
}

# Every structure on the simulation contract, for the edge cases that
# hold for all of them.
STRUCTURE_FACTORIES = {
    **PREDICTOR_FACTORIES,
    "btb": lambda: BranchTargetBuffer(entries=16, associativity=2),
    "last-target": LastTargetPredictor,
    "ittage-lite": IttageLitePredictor,
    "set-associative-cache": lambda: SetAssociativeCache(CACHE_CONFIGS["two-way"]),
    "skewed-cache": lambda: SkewedAssociativeCache(CACHE_CONFIGS["two-way"]),
}

_WARMUP_KINDS = ("zero", "third", "all", "past-end")


def _plain(value):
    """*value* as plain lists and ints, slotted helper objects unpacked."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if hasattr(value, "__slots__"):
        return {slot: getattr(value, slot) for slot in value.__slots__}
    assert isinstance(value, (int, str)), type(value)
    return value


def _comparable_state(predictor) -> dict:
    """Every attribute of *predictor*, compared by value."""
    return {key: _plain(value) for key, value in vars(predictor).items()}


def _make_trace(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A branch trace with clustered pcs and occasional >32-bit addresses."""
    rng = np.random.default_rng(seed)
    sites = rng.integers(0, 1 << 22, size=max(1, n // 8), dtype=np.int64) * 4
    if seed % 3 == 0:
        sites += np.int64(1) << 33
    addresses = sites[rng.integers(0, sites.size, size=n)]
    outcomes = (rng.random(n) < rng.random()).astype(np.int64)
    return addresses, outcomes


def _warmup(kind: str, n: int) -> int:
    return {"zero": 0, "third": n // 3, "all": n, "past-end": n + 7}[kind]


@pytest.mark.parametrize("name", sorted(PREDICTOR_FACTORIES))
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=0, max_value=400),
    warmup_kind=st.sampled_from(_WARMUP_KINDS),
)
@settings(max_examples=12, deadline=None)
def test_predictor_engines_bit_identical(name, seed, n, warmup_kind):
    """Vector and scalar engines agree on counts and table state."""
    addresses, outcomes = _make_trace(seed, n)
    warmup = _warmup(warmup_kind, n)
    scalar = PREDICTOR_FACTORIES[name]()
    vectored = PREDICTOR_FACTORIES[name]()
    count_s = scalar.simulate(addresses, outcomes, warmup=warmup, engine="scalar")
    count_v = vectored.simulate(addresses, outcomes, warmup=warmup, engine="vector")
    assert count_s == count_v
    assert _comparable_state(scalar) == _comparable_state(vectored)


@pytest.mark.parametrize("name", sorted(PREDICTOR_FACTORIES))
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=300),
    chunk=st.sampled_from([1, 7, 64]),
)
@settings(max_examples=6, deadline=None)
def test_scan_carries_state_across_chunks(name, seed, n, chunk):
    """Small kernel chunks: masks and state still match the oracle."""
    addresses, outcomes = _make_trace(seed, n)
    scalar = PREDICTOR_FACTORIES[name]()
    vectored = PREDICTOR_FACTORIES[name]()
    mask_s = scalar.simulate_mask(addresses, outcomes, engine="scalar")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vector, "CHUNK_EVENTS", chunk)
        mask_v = vectored.simulate_mask(addresses, outcomes, engine="vector")
    assert np.array_equal(mask_s, mask_v)
    assert _comparable_state(scalar) == _comparable_state(vectored)


def _cache_addresses(seed: int, n: int) -> np.ndarray:
    """Half sequential fetch runs, half random >32-bit addresses."""
    rng = np.random.default_rng(seed)
    sequential = np.arange(n, dtype=np.int64) * 4 + int(rng.integers(0, 1 << 28))
    random = rng.integers(0, 1 << 34, size=n, dtype=np.int64)
    return np.where(rng.random(n) < 0.5, sequential, random)


@pytest.mark.parametrize("name", sorted(CACHE_CONFIGS))
@given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(min_value=0, max_value=600))
@settings(max_examples=15, deadline=None)
def test_cache_engines_bit_identical(name, seed, n):
    """Vector and scalar cache simulation agree per access and on state."""
    addresses = _cache_addresses(seed, n)
    scalar = SetAssociativeCache(CACHE_CONFIGS[name])
    vectored = SetAssociativeCache(CACHE_CONFIGS[name])
    mask_s = scalar.simulate_mask(addresses, engine="scalar")
    mask_v = vectored.simulate_mask(addresses, engine="vector")
    assert np.array_equal(mask_s, mask_v)
    assert scalar._sets == vectored._sets


@pytest.mark.parametrize("name", ["two-way", "eight-way"])
@given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(min_value=0, max_value=600))
@settings(max_examples=15, deadline=None)
def test_skewed_cache_engines_bit_identical(name, seed, n):
    """The fused skewed-cache scan matches its access() oracle."""
    addresses = _cache_addresses(seed, n)
    scalar = SkewedAssociativeCache(CACHE_CONFIGS[name])
    vectored = SkewedAssociativeCache(CACHE_CONFIGS[name])
    mask_s = scalar.simulate_mask(addresses, engine="scalar")
    mask_v = vectored.simulate_mask(addresses, engine="vector")
    assert np.array_equal(mask_s, mask_v)
    assert scalar._ways == vectored._ways
    assert scalar._victim == vectored._victim


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=0, max_value=500),
    warmup_kind=st.sampled_from(_WARMUP_KINDS),
)
@settings(max_examples=20, deadline=None)
def test_btb_engines_bit_identical(seed, n, warmup_kind):
    """Vector and scalar BTB simulation agree on misses and sets."""
    addresses, outcomes = _make_trace(seed, n)
    warmup = _warmup(warmup_kind, n)
    scalar = BranchTargetBuffer(entries=64, associativity=2)
    vectored = BranchTargetBuffer(entries=64, associativity=2)
    count_s = scalar.simulate(addresses, outcomes, warmup=warmup, engine="scalar")
    count_v = vectored.simulate(addresses, outcomes, warmup=warmup, engine="vector")
    assert count_s == count_v
    assert scalar._sets == vectored._sets


@pytest.mark.parametrize(
    "factory",
    [
        lambda: LastTargetPredictor(entries=64),
        lambda: IttageLitePredictor(entries=128, base_entries=32),
    ],
    ids=["last-target", "ittage-lite"],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=0, max_value=400),
    warmup_kind=st.sampled_from(_WARMUP_KINDS),
)
@settings(max_examples=12, deadline=None)
def test_indirect_engines_bit_identical(factory, seed, n, warmup_kind):
    """Vector and scalar target predictors agree, incl. no-target traces."""
    addresses, _ = _make_trace(seed, n)
    rng = np.random.default_rng(seed + 1)
    targets = np.where(
        rng.random(n) < 0.4, rng.integers(0, 30, size=n), -1
    ).astype(np.int64)
    if seed % 5 == 0:
        targets[:] = -1  # a purely conditional trace never counts
    warmup = _warmup(warmup_kind, n)
    scalar, vectored = factory(), factory()
    count_s = scalar.simulate(addresses, targets, warmup=warmup, engine="scalar")
    count_v = vectored.simulate(addresses, targets, warmup=warmup, engine="vector")
    assert count_s == count_v
    assert _comparable_state(scalar) == _comparable_state(vectored)
    if (targets >= 0).sum() == 0:
        assert count_v == 0


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=8, deadline=None)
def test_hierarchy_engines_bit_identical(seed):
    """The two-level hierarchy produces identical counts on both engines."""
    rng = np.random.default_rng(seed)
    n_i, n_d = int(rng.integers(1, 800)), int(rng.integers(1, 400))
    ifetch = rng.integers(0, 1 << 26, size=n_i, dtype=np.int64)
    data = rng.integers(0, 1 << 26, size=n_d, dtype=np.int64)
    i_ev = np.sort(rng.integers(0, 200, size=n_i)).astype(np.int64)
    d_ev = np.sort(rng.integers(0, 200, size=n_d)).astype(np.int64)
    configs = (
        CacheConfig(4096, 64, 2, name="i"),
        CacheConfig(4096, 64, 2, name="d"),
        CacheConfig(16384, 64, 4, name="l2"),
    )
    warmup = int(rng.integers(0, 200))
    counts = [
        CacheHierarchy(*configs).simulate(
            ifetch, i_ev, data, d_ev, warmup_event=warmup, engine=engine
        )
        for engine in ("scalar", "vector")
    ]
    assert counts[0] == counts[1]


def _lru_oracle(
    n_sets: int, ways: int, set_ids: np.ndarray, tags: np.ndarray
) -> tuple[np.ndarray, list[list[int]]]:
    """Miss mask and MRU-first way lists from the scalar LRU discipline."""
    sets: list[list[int]] = [[] for _ in range(n_sets)]
    mask = [
        lru_access(sets[s], t, ways)
        for s, t in zip(set_ids.tolist(), tags.tolist())
    ]
    return np.array(mask, dtype=bool), sets


def _lru_chunked(
    n_sets: int, ways: int, set_ids: np.ndarray, tags: np.ndarray, cuts: list[int]
) -> tuple[np.ndarray, list[list[int]]]:
    """``lru_scan`` over consecutive slices sharing one carried state."""
    state = vector.LruState(n_sets, ways)
    bounds = [0, *cuts, int(set_ids.size)]
    masks = [
        vector.lru_scan(state, set_ids[lo:hi], tags[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    return np.concatenate(masks), state.to_ways_lists()


def _assert_lru_matches_oracle(
    n_sets: int, ways: int, set_ids: np.ndarray, tags: np.ndarray, cuts=()
) -> np.ndarray:
    expected_mask, expected_sets = _lru_oracle(n_sets, ways, set_ids, tags)
    mask, sets = _lru_chunked(n_sets, ways, set_ids, tags, list(cuts))
    assert np.array_equal(mask, expected_mask)
    assert sets == expected_sets
    return mask


class TestLruScan:
    """``lru_scan`` against the scalar LRU discipline on its hard corners."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=3, max_value=600),
        ways=st.sampled_from([1, 2, 4, 8]),
        n_sets=st.sampled_from([1, 4, 16]),
        pieces=st.sampled_from([2, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunk_carry_equals_one_call(self, seed, n, ways, n_sets, pieces):
        """Slices with one carried state equal a single call and the oracle."""
        rng = np.random.default_rng(seed)
        set_ids = rng.integers(0, n_sets, size=n, dtype=np.int64)
        tags = rng.integers(0, 2 * ways + 1, size=n, dtype=np.int64)
        cuts = sorted(rng.choice(np.arange(1, n), size=pieces - 1, replace=False).tolist())
        whole = _assert_lru_matches_oracle(n_sets, ways, set_ids, tags)
        chunked = _assert_lru_matches_oracle(n_sets, ways, set_ids, tags, cuts)
        assert np.array_equal(whole, chunked)

    @pytest.mark.parametrize("ways", [1, 2, 8])
    def test_one_hot_set(self, ways):
        """Every access lands in one set of a larger bank."""
        rng = np.random.default_rng(ways)
        n = 3000
        set_ids = np.full(n, 5, dtype=np.int64)
        tags = rng.integers(0, 3 * ways, size=n, dtype=np.int64)
        _assert_lru_matches_oracle(8, ways, set_ids, tags)
        _assert_lru_matches_oracle(8, ways, set_ids, tags, cuts=[1000, 2001])

    @pytest.mark.parametrize("ways", [1, 2, 4, 8])
    def test_cyclic_sweep_one_over_capacity_always_misses(self, ways):
        """Sweeping ways + 1 tags through one set evicts each before its reuse."""
        tags = np.tile(np.arange(ways + 1, dtype=np.int64), 20)
        set_ids = np.zeros(tags.size, dtype=np.int64)
        mask = _assert_lru_matches_oracle(1, ways, set_ids, tags)
        assert mask.all()
        _assert_lru_matches_oracle(1, ways, set_ids, tags, cuts=[7, 50])

    @pytest.mark.parametrize("ways", [1, 2, 4, 8])
    def test_cyclic_sweep_at_capacity_hits_after_fill(self, ways):
        """Sweeping exactly ways tags misses only while the set fills."""
        tags = np.tile(np.arange(ways, dtype=np.int64), 20)
        set_ids = np.zeros(tags.size, dtype=np.int64)
        mask = _assert_lru_matches_oracle(1, ways, set_ids, tags)
        assert mask[:ways].all() and not mask[ways:].any()
        _assert_lru_matches_oracle(1, ways, set_ids, tags, cuts=[3, ways + 5])

    @given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(min_value=2, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_direct_mapped_interleaved_repeats(self, seed, n):
        """A = 1: an access hits iff its set's previous access had its tag."""
        rng = np.random.default_rng(seed)
        set_ids = rng.integers(0, 4, size=n, dtype=np.int64)
        tags = rng.integers(0, 3, size=n, dtype=np.int64)
        repeat = rng.random(n) < 0.5
        for i in range(1, n):
            if repeat[i]:
                set_ids[i], tags[i] = set_ids[i - 1], tags[i - 1]
        mask = _assert_lru_matches_oracle(4, 1, set_ids, tags)
        last: dict[int, int] = {}
        for i, (s, t) in enumerate(zip(set_ids.tolist(), tags.tolist())):
            assert mask[i] == (last.get(s) != t)
            last[s] = t
        _assert_lru_matches_oracle(4, 1, set_ids, tags, cuts=[n // 2])

    @pytest.mark.parametrize("ways", [1, 4, 16])
    def test_sets_within_associativity_never_miss_on_reuse(self, ways):
        """A set that never holds more tags than ways misses only on first use."""
        rng = np.random.default_rng(ways)
        n = 2000
        set_ids = rng.integers(0, 8, size=n, dtype=np.int64)
        # Sets 0-3 see exactly `ways` tags; sets 4-7 see one more.
        tags = rng.integers(0, ways, size=n, dtype=np.int64) + (set_ids >= 4)
        for cuts in ([], [700], [500, 1300]):
            mask = _assert_lru_matches_oracle(8, ways, set_ids, tags, cuts)
            small = set_ids < 4
            first_use = np.unique(set_ids * 64 + tags, return_index=True)[1]
            assert mask[small].sum() == np.isin(first_use, np.flatnonzero(small)).sum()

    @pytest.mark.parametrize("ways", [1, 8, 16])
    @pytest.mark.parametrize("per_set", [65, 129, 1000])
    def test_sets_wider_than_one_word(self, ways, per_set):
        """Sets with more than 64 and 128 distinct tags span several id words."""
        rng = np.random.default_rng(per_set * 100 + ways)
        n = 6000
        set_ids = rng.integers(0, 4, size=n, dtype=np.int64)
        # A random walk over the tags: windows of every length, and
        # their keys spread over every word of the set's ids.
        tags = np.cumsum(rng.integers(-3 * ways, 3 * ways + 1, size=n)) % per_set
        for cuts in ([], [2500], [1000, 4000]):
            _assert_lru_matches_oracle(4, ways, set_ids, tags, cuts)
        uniform = rng.integers(0, per_set, size=n)
        _assert_lru_matches_oracle(4, ways, set_ids, uniform, [3000])

    @pytest.mark.parametrize("ways", [1, 4, 16])
    def test_tags_spanning_2_40(self, ways):
        """A tag span far wider than the stream takes the sorted-rank path."""
        rng = np.random.default_rng(ways)
        n = 3000
        set_ids = rng.integers(0, 16, size=n, dtype=np.int64)
        pool = np.sort(rng.integers(0, 1 << 42, size=3 * ways + 2, dtype=np.int64))
        pool[-1] = pool[0] + (1 << 40)
        tags = pool[rng.integers(0, pool.size, size=n)]
        for cuts in ([], [1200], [900, 2100]):
            _assert_lru_matches_oracle(16, ways, set_ids, tags, cuts)

    def test_key_wider_than_int32(self):
        """Sets times distinct tags beyond 2**31 still group by set."""
        rng = np.random.default_rng(0)
        n_sets, ways = 1 << 16, 2
        # 40 000 one-off tags spread the key space past 2**31; the top
        # sets, whose keys sit above it, see a few tags over and over.
        spread = rng.integers(0, n_sets, size=40_000, dtype=np.int64)
        busy = n_sets - 1 - rng.integers(0, 4, size=4_000, dtype=np.int64)
        set_ids = np.concatenate([spread, busy])
        tags = np.concatenate(
            [rng.permutation(1 << 20)[:40_000], rng.integers(0, 5, size=4_000)]
        ).astype(np.int64)
        order = rng.permutation(set_ids.size)
        _assert_lru_matches_oracle(n_sets, ways, set_ids[order], tags[order], [20_000])

    def test_extra_memory_is_linear_in_the_stream(self):
        """At 1000 tags per set (16 id words), scratch stays O(stream length)."""
        rng = np.random.default_rng(0)
        for n in (20_000, 80_000):
            set_ids = rng.integers(0, 4, size=n, dtype=np.int64)
            tags = rng.integers(0, 1000, size=n, dtype=np.int64)
            state = vector.LruState(4, 16)
            tracemalloc.start()
            try:
                vector.lru_scan(state, set_ids, tags)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # About 24 int64 words per access; a table kept per level
            # (17 here) or per id word (16) would pass 32.
            assert peak < 32 * 8 * n


def _counter_oracle(
    indices: np.ndarray, deltas: np.ndarray, table: np.ndarray, low: int, high: int
) -> tuple[list[int], list[int]]:
    """Pre-update values and final table of a plain saturating-counter loop."""
    state = table.tolist()
    pre = []
    for i, d in zip(indices.tolist(), deltas.tolist()):
        pre.append(state[i])
        state[i] = min(max(state[i] + d, low), high)
    return pre, state


def _assert_counter_matches_oracle(
    indices: np.ndarray,
    deltas: np.ndarray,
    table: np.ndarray,
    low: int,
    high: int,
    cuts=(),
) -> None:
    """``counter_scan`` over slices sharing *table* equals the loop."""
    expected_pre, expected_table = _counter_oracle(indices, deltas, table, low, high)
    bounds = [0, *cuts, int(indices.size)]
    pre = [
        vector.counter_scan(indices[lo:hi], deltas[lo:hi], table, low, high)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    assert np.concatenate(pre).tolist() == expected_pre
    assert table.tolist() == expected_table


def _switch(elements: int) -> int:
    """The deepest chain ``counter_scan`` walks in rounds over *elements*."""
    return vector.SCAN_ROUNDS_LIMIT + elements // vector.ROUND_EVENTS


def _hot_entry_stream(
    n: int, hot: int, run: int, seed: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """*n* events; entry 0 takes *hot* of them, in sign runs of *run*.

    Every other entry takes two events of one delta, so the stream's
    deepest chain is entry 0's, of *hot* events and ``ceil(hot / run)``
    runs.  Returns indices, deltas and the table size.
    """
    rng = np.random.default_rng(seed)
    cold = n - hot
    indices = np.empty(n, dtype=np.int64)
    deltas = np.empty(n, dtype=np.int8)
    at_hot = np.sort(rng.choice(n, size=hot, replace=False))
    at_cold = np.setdiff1d(np.arange(n), at_hot)
    indices[at_hot] = 0
    deltas[at_hot] = np.where((np.arange(hot) // run) % 2 == 0, 1, -1)
    indices[at_cold] = 1 + np.arange(cold) // 2
    deltas[at_cold] = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=cold)[
        np.arange(cold) // 2
    ]
    return indices, deltas, 2 + cold // 2


@pytest.fixture
def scan_paths(monkeypatch):
    """Record which strategy each ``counter_scan`` phase took."""
    taken: list[tuple[str, int]] = []
    rounds, doubling = vector._rounds_scan, vector._clamp_doubling

    def spy_rounds(amount, *args):
        taken.append(("rounds", int(amount.size)))
        return rounds(amount, *args)

    def spy_doubling(amount, *args):
        taken.append(("doubling", int(amount.size)))
        return doubling(amount, *args)

    monkeypatch.setattr(vector, "_rounds_scan", spy_rounds)
    monkeypatch.setattr(vector, "_clamp_doubling", spy_doubling)
    return taken


class TestCounterScan:
    """``counter_scan`` against a plain saturating-counter loop."""

    @pytest.mark.parametrize("low, high", [(0, 3), (0, 7)])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=1500),
        entries=st.sampled_from([1, 4, 64, 1024]),
        pieces=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_mixed_deltas(self, low, high, seed, n, entries, pieces):
        """-1/0/+1 streams in runs of any length, whole and in slices."""
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, entries, size=n, dtype=np.int64)
        # Repeat each drawn delta a geometric number of times: runs.
        draws = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=n)
        deltas = draws[np.minimum(np.cumsum(rng.random(n) < 0.3), n - 1)]
        table = rng.integers(low, high + 1, size=entries).astype(np.int8)
        cuts = sorted(rng.choice(np.arange(n + 1), size=pieces - 1).tolist())
        _assert_counter_matches_oracle(indices, deltas, table, low, high, cuts)

    @pytest.mark.parametrize("low, high", [(0, 3), (0, 7)])
    def test_long_saturating_runs(self, low, high):
        """Runs far longer than the counter range sit at the bound."""
        rng = np.random.default_rng(high)
        pattern = [(1, 900), (0, 50), (-1, 700), (1, 2), (-1, 3), (0, 400), (1, 5)]
        deltas = np.concatenate(
            [np.full(length, d, dtype=np.int8) for d, length in pattern]
        )
        # One hot entry plus a sprinkle of others between its events.
        others = rng.integers(1, 8, deltas.size)
        indices = np.where(rng.random(deltas.size) < 0.9, 0, others)
        table = np.full(8, (low + high) // 2, dtype=np.int8)
        _assert_counter_matches_oracle(indices, deltas, table, low, high)
        _assert_counter_matches_oracle(indices, deltas, table, low, high, [1000, 1001])

    @pytest.mark.parametrize("extra", [0, 1])
    def test_event_rounds_switch(self, scan_paths, extra):
        """A chain at the switch walks events in rounds; one more collapses."""
        n = 3000
        hot = _switch(n) + extra
        indices, deltas, size = _hot_entry_stream(n, hot, run=1, seed=extra)
        table = np.full(size, 1, dtype=np.int8)
        _assert_counter_matches_oracle(indices, deltas, table, 0, 3)
        assert (scan_paths[0] == ("rounds", n)) == (extra == 0)

    def test_run_rounds_and_doubling_switch(self, scan_paths):
        """Collapsed chains at the run switch take rounds; beyond, doubling."""
        n, run = 3000, 4
        seen = set()
        for hot_runs in range(_switch(n) // run, n // run):
            hot = hot_runs * run
            runs = hot_runs + (n - hot) // 2
            if hot <= _switch(n) or abs(hot_runs - _switch(runs)) > 1:
                continue
            indices, deltas, size = _hot_entry_stream(n, hot, run, seed=hot_runs)
            table = np.full(size, 2, dtype=np.int8)
            scan_paths.clear()
            _assert_counter_matches_oracle(indices, deltas, table, 0, 3)
            path = scan_paths[0][0]
            assert path == ("rounds" if hot_runs <= _switch(runs) else "doubling")
            assert scan_paths[0][1] < n
            seen.add(path)
        assert seen == {"rounds", "doubling"}

    def test_empty_stream_leaves_table(self):
        table = np.array([0, 3, 1], dtype=np.int8)
        out = vector.counter_scan(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int8), table, 0, 3
        )
        assert out.shape == (0,) and table.tolist() == [0, 3, 1]


def _chooser_events(monkeypatch, predictor, addresses, outcomes) -> int:
    """Events the chooser saw: the size of the scan's last counter scan."""
    sizes: list[int] = []
    scan = vector.counter_scan

    def spy(indices, *args, **kwargs):
        sizes.append(int(indices.size))
        return scan(indices, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(vector, "counter_scan", spy)
        predictor.scan(addresses, outcomes)
    return sizes[-1]


def _hybrid_disagreeing(predictor: HybridPredictor) -> None:
    """Bimodal strongly taken, global strongly not-taken."""
    predictor._bimodal[:] = 3
    predictor._global[:] = 0


def _tournament_disagreeing(predictor: TournamentPredictor) -> None:
    """Each branch reads its own strongly-taken local counter; global not-taken."""
    predictor._local_history = list(range(predictor.local_history_entries))
    predictor._local_pht = [7] * predictor.local_pht_entries
    predictor._global_pht = [0] * predictor.global_entries


@pytest.mark.parametrize(
    "factory, disagree",
    [
        (PREDICTOR_FACTORIES["hybrid"], _hybrid_disagreeing),
        (PREDICTOR_FACTORIES["hybrid-uneven-chooser"], _hybrid_disagreeing),
        (PREDICTOR_FACTORIES["tournament"], _tournament_disagreeing),
    ],
    ids=["hybrid", "hybrid-uneven-chooser", "tournament"],
)
@pytest.mark.parametrize("chunk", [1, 5, 1 << 18])
class TestChooserSplit:
    """The chooser scans only where the components disagree."""

    def _engines(self, factory, setup, addresses, outcomes, chunk, monkeypatch):
        scalar, vectored = factory(), factory()
        setup(scalar)
        setup(vectored)
        events = zip(addresses.tolist(), outcomes.tolist())
        mask_s = np.array([scalar.step(pc, o) for pc, o in events], dtype=bool)
        with monkeypatch.context() as patch:
            patch.setattr(vector, "CHUNK_EVENTS", chunk)
            mask_v = vectored.scan(addresses, outcomes)
        assert np.array_equal(mask_s, mask_v)
        assert _comparable_state(scalar) == _comparable_state(vectored)

    def test_components_always_agree(self, factory, disagree, chunk, monkeypatch):
        """From power-on, an all-taken trace never splits the components."""
        addresses = (np.arange(300, dtype=np.int64) % 37) * 4
        outcomes = np.ones(300, dtype=np.int64)
        self._engines(factory, lambda p: None, addresses, outcomes, chunk, monkeypatch)
        assert _chooser_events(monkeypatch, factory(), addresses, outcomes) == 0

    def test_components_always_disagree(self, factory, disagree, chunk, monkeypatch):
        """Preset tables that split on every event: the chooser sees all."""
        addresses = np.arange(64, dtype=np.int64) * 4
        outcomes = np.zeros(64, dtype=np.int64)
        self._engines(factory, disagree, addresses, outcomes, chunk, monkeypatch)
        predictor = factory()
        disagree(predictor)
        assert _chooser_events(monkeypatch, predictor, addresses, outcomes) == 64


class TestLruEngineHandover:
    """LRU structures keep one state form and convert on handover."""

    def test_scan_continues_from_oracle_state(self):
        """Oracle accesses, then the vector scan, equal the oracle alone."""
        addresses = _cache_addresses(7, 600)
        config = CACHE_CONFIGS["two-way"]
        oracle, mixed = SetAssociativeCache(config), SetAssociativeCache(config)
        expected = [oracle.access(a) for a in addresses.tolist()]
        head = [mixed.access(a) for a in addresses[:250].tolist()]
        tail = mixed.scan(addresses[250:])
        assert head + tail.tolist() == expected
        assert mixed._sets == oracle._sets

    def test_oracle_continues_from_scan_state(self):
        """The vector scan, then oracle steps, equal the oracle alone."""
        addresses, outcomes = _make_trace(11, 500)
        oracle = BranchTargetBuffer(entries=16, associativity=2)
        mixed = BranchTargetBuffer(entries=16, associativity=2)
        expected = [
            oracle.step(pc, o) for pc, o in zip(addresses.tolist(), outcomes.tolist())
        ]
        head = mixed.scan(addresses[:200], outcomes[:200]).tolist()
        tail = [
            mixed.step(pc, o)
            for pc, o in zip(addresses[200:].tolist(), outcomes[200:].tolist())
        ]
        assert head + tail == expected
        assert mixed._sets == oracle._sets


def _empty_trace(structure) -> list[np.ndarray]:
    """An empty trace: one stream per argument of the structure's step."""
    n_streams = len(inspect.signature(structure.step).parameters)
    return [np.zeros(0, dtype=np.int64)] * n_streams


class TestEdgeCases:
    """Deterministic corners the hypothesis sweeps may not always hit."""

    @pytest.mark.parametrize("name", sorted(STRUCTURE_FACTORIES))
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_empty_stream(self, name, engine):
        structure = STRUCTURE_FACTORIES[name]()
        trace = _empty_trace(structure)
        assert structure.simulate(*trace, warmup=0, engine=engine) == 0
        assert structure.simulate(*trace, warmup=5, engine=engine) == 0
        mask = structure.simulate_mask(*trace, engine=engine)
        assert mask.dtype == bool and mask.shape == (0,)

    @pytest.mark.parametrize("name", sorted(PREDICTOR_FACTORIES) + ["btb"])
    def test_all_not_taken(self, name):
        addresses = (np.arange(200, dtype=np.int64) % 37) * 4
        outcomes = np.zeros(200, dtype=np.int64)
        for warmup in (0, 100, 200, 250):
            counts = {
                engine: STRUCTURE_FACTORIES[name]().simulate(
                    addresses, outcomes, warmup=warmup, engine=engine
                )
                for engine in ("scalar", "vector")
            }
            assert counts["scalar"] == counts["vector"]
            if name == "btb":
                # A not-taken branch never needs a target.
                assert counts["vector"] == 0
        # Counting past the end of the trace counts nothing.
        assert (
            STRUCTURE_FACTORIES[name]().simulate(
                addresses, outcomes, warmup=200, engine="vector"
            )
            == 0
        )

    @pytest.mark.parametrize("name", sorted(STRUCTURE_FACTORIES))
    def test_negative_warmup_raises(self, name):
        structure = STRUCTURE_FACTORIES[name]()
        with pytest.raises(ConfigurationError):
            structure.simulate(*_empty_trace(structure), warmup=-1)

    @pytest.mark.parametrize("name", sorted(STRUCTURE_FACTORIES))
    def test_unknown_engine_rejected(self, name):
        structure = STRUCTURE_FACTORIES[name]()
        trace = _empty_trace(structure)
        with pytest.raises(ConfigurationError):
            structure.simulate(*trace, engine="simd")
        with pytest.raises(ConfigurationError):
            structure.simulate_mask(*trace, engine="simd")


def test_core_model_engines_bit_identical():
    """End to end: the core model's counts match across engines."""
    spec = make_tiny_spec()
    trace = generate_trace(spec, seed=9, n_events=1500)
    executable = Camino().build(spec, trace, layout_seed=3)
    config = XeonE5440Config()
    results = [
        XeonCoreModel(config).execute(executable, engine=engine)
        for engine in ("scalar", "vector")
    ]
    assert results[0] == results[1]
