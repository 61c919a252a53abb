"""Vectorized batch kernels for the per-event simulation loops.

Every predictor/cache update loop in this package is a sequential
recurrence over one trace: saturating counters indexed by (pc, history)
hashes, LRU stacks indexed by set, last-value tables indexed by pc.
These kernels replace the per-event Python loops with numpy array
passes while reproducing the scalar semantics *bit for bit* — the
scalar loops stay as the differential-testing oracle (METHODOLOGY.md
§12), and `tests/test_vector_differential.py` enforces equality.

The key observation making branch structures vectorizable is that the
trace is known ahead of time: global/local history registers are pure
functions of past outcomes, so every table index can be materialized
up front.  What remains per table entry is an independent sequential
recurrence, handled by one of four segmented scans:

* :func:`counter_scan` — saturating-counter tables.  Counter updates
  are clamped additions ``x -> min(max(x + d, lo), hi)``; that function
  family is closed under composition, so per-event pre-update states
  come from a segmented Hillis–Steele scan over (delta, lo, hi)
  triples.  Runs of equal deltas within a segment collapse to a single
  clamp step first (exact for same-sign deltas), which shortens the
  scan on the taken-biased streams real traces produce.
* :func:`shifted_histories` — per-event shift-register values (global
  branch history, ITTAGE target history) in ``ceil(bits/shift)``
  passes.
* :func:`local_history_scan` — per-address shift registers (PAs and
  tournament BHTs): the same recurrence, segmented by table entry.
* :func:`last_value_scan` / :func:`sticky_install_scan` — last-target
  tables and set-once bias bits.
* :func:`folded_histories` — TAGE's folded global histories, each an
  XOR of delayed trailing windows of the outcome stream.

LRU state (caches, BTB) follows from Mattson stack distance: an access
hits an A-way true-LRU set iff fewer than A distinct tags touched that
set since the previous access to the same tag.  :func:`lru_scan`
counts those distinct tags offline for every access at once, as the
popcount of a bitset sparse table over each set's key ids, with no
loop over per-set depth.

All kernels carry state across :data:`CHUNK_EVENTS`-sized chunks so
memory stays bounded on long traces.

Every structure plugs its kernel into one contract, :class:`Structure`:
it supplies ``reset``, the per-event oracle ``step`` and the vector
``scan``; the inherited ``simulate``/``simulate_mask`` own validation,
reset, engine dispatch and counting.  The only per-event loop here is
the oracle's, run when ``engine == "scalar"``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError

#: Engines accepted by every ``simulate(..., engine=...)`` knob.
ENGINES = ("scalar", "vector")

#: Events processed per kernel invocation; state is carried between
#: chunks, so results are independent of the chunk size.
CHUNK_EVENTS = 1 << 18

# Sentinel bounds for the identity clamp function (no-op composition
# partner in the segmented scan).  Far outside any counter range but
# small enough that adding a trace-length delta cannot overflow int64.
_NEG = -(1 << 40)
_POS = 1 << 40


def require_engine(engine: str) -> str:
    """Validate an ``engine`` knob value and return it."""
    if engine not in ENGINES:
        raise ConfigurationError(
            f"engine must be one of {ENGINES}, got {engine!r}"
        )
    return engine


class Structure(ABC):
    """A simulated address-hashed structure: one miss question per event.

    A trace is an address array plus zero or more parallel streams
    (branch outcomes, indirect targets).  Subclasses supply three hooks:

    * :meth:`reset` — restore the power-on state;
    * :meth:`step` — the per-event oracle: consume one event (one
      element of every stream) and return True on a miss;
    * :meth:`scan` — the vector kernel: ``scan(addresses, *streams)``
      returns the whole miss mask (one bool per event) and leaves the
      post-trace state.

    :meth:`simulate_mask` and :meth:`simulate` own everything else, so
    the two engines can differ only inside ``scan``.
    """

    @abstractmethod
    def reset(self) -> None:
        """Restore the power-on state."""

    @abstractmethod
    def step(self, *event: int) -> bool:
        """Simulate one event; return True on a miss."""

    @abstractmethod
    def scan(self, addresses: np.ndarray, *streams: np.ndarray) -> np.ndarray:
        """Simulate the whole trace; return the per-event miss mask."""

    def simulate_mask(
        self, addresses: np.ndarray, *streams: np.ndarray, engine: str = "vector"
    ) -> np.ndarray:
        """Reset, stream the trace through, return the per-event miss mask.

        *engine* selects the implementation, never the result:
        ``"vector"`` runs :meth:`scan`; ``"scalar"`` runs :meth:`step`
        once per event.  Both leave identical masks and post-trace
        state (enforced by the differential test suite).
        """
        require_engine(engine)
        self.reset()
        if engine == "scalar":
            step = self.step
            misses = [False] * int(addresses.size)
            for i, event in enumerate(
                zip(addresses.tolist(), *[stream.tolist() for stream in streams])
            ):
                if step(*event):
                    misses[i] = True
            return np.array(misses, dtype=bool)
        return self.scan(addresses, *streams)

    def simulate(
        self,
        addresses: np.ndarray,
        *streams: np.ndarray,
        warmup: int = 0,
        engine: str = "vector",
    ) -> int:
        """Reset and stream the trace; return the misses at index >= *warmup*.

        The warm-up events still train the structure; they are only not
        counted.  The window plays the role SimPoint warming plays in
        the paper's simulations: the canonical traces are short slices,
        so counting cold-start transients would distort event rates.
        """
        if warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {warmup}")
        mask = self.simulate_mask(addresses, *streams, engine=engine)
        return int(np.count_nonzero(mask[warmup:]))


def iter_chunks(n: int) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` slices covering ``range(n)``.

    Slices hold :data:`CHUNK_EVENTS` events, read at call time.
    """
    chunk = CHUNK_EVENTS
    for start in range(0, n, chunk):
        yield start, min(start + chunk, n)


def _stable_order(indices: np.ndarray, value_bound: int) -> np.ndarray:
    """Stable argsort of bounded non-negative integer keys.

    Casting to the narrowest sufficient integer type lets numpy use
    radix sorting, which dominates the scan cost otherwise.
    """
    if value_bound <= (1 << 15):
        return np.argsort(indices.astype(np.int16), kind="stable")
    if value_bound <= (1 << 31):
        return np.argsort(indices.astype(np.int32), kind="stable")
    return np.argsort(indices, kind="stable")


def _trailing_packed(values: np.ndarray, depth: int, shift: int) -> np.ndarray:
    """Bit-pack the trailing window before each position.

    Returns ``s`` with ``s[i] = OR_j values[i - 1 - j] << (shift * j)``
    for ``j in 0 .. depth - 1`` (missing positions contribute zero).
    *values* must already be masked to *shift* bits, so the packed
    fields are disjoint and OR equals the weighted sum.  Pure integer
    shift/OR passes — exact, no float round-trip.
    """
    n = int(values.size)
    out = np.zeros(n, dtype=np.int64)
    w = values.astype(np.int64)
    for j in range(min(depth, n)):
        if j:
            w <<= shift
        out[j + 1 :] |= w[: n - 1 - j]
    return out


def shifted_histories(
    bits: int, values: np.ndarray, carry_in: int, shift: int = 1
) -> tuple[np.ndarray, int]:
    """Per-event values of a shift register fed by *values*.

    Models ``h_next = ((h << shift) | value) & ((1 << bits) - 1)`` with
    *values* already masked to *shift* bits.  Returns the register as
    seen *before* each event, plus the carry-out after the last event.
    """
    mask = (1 << bits) - 1
    n = int(values.size)
    if n == 0:
        return np.zeros(0, dtype=np.int64), carry_in
    depth = -(-bits // shift)
    hist = _trailing_packed(values, depth, shift)
    head = min(depth, n)
    hist[:head] |= np.int64(carry_in) << (shift * np.arange(head, dtype=np.int64))
    hist &= mask
    carry_out = int(((hist[n - 1] << shift) | values[n - 1]) & mask)
    return hist, carry_out


def folded_histories(
    stream: np.ndarray, start: int, lengths: tuple[int, ...], bits: int
) -> np.ndarray:
    """Per-event folded global histories (TAGE's compressed registers).

    *stream* holds outcome bits, oldest first; ``stream[:start]`` is the
    carried history, with ``start >= max(lengths)``.  Row ``t`` holds,
    before each event ``start + i`` for ``i`` in ``0 .. stream.size -
    start`` (the last column is the post-trace register)::

        XOR_{j < lengths[t]} stream[start + i - 1 - j] << (j mod bits)

    which is what the incremental fold (shift in, XOR the evicted bit
    out, wrap bit *bits* to bit 0) holds.  Each row is the XOR of
    ``ceil(length / bits)`` delayed *bits*-wide trailing windows, all
    slices of one :func:`_trailing_packed` pass.
    """
    window = _trailing_packed(np.append(stream, 0), bits, 1)
    stop = int(stream.size) + 1
    out = np.zeros((len(lengths), stop - start), dtype=np.int64)
    for row, length in zip(out, lengths):
        for k in range(0, length, bits):
            part = window[start - k : stop - k]
            if length - k < bits:
                part = part & ((1 << (length - k)) - 1)
            row ^= part
    return out


class IndexGroups:
    """Sorted grouping of one table-index stream.

    Precomputes the stable sort and segment boundaries every scan
    needs; scans over *different* tables indexed by the *same* stream
    (e.g. a hybrid's bimodal and chooser tables) share one instance
    and pay for the sort once.
    """

    __slots__ = ("order", "entry", "seg_first", "seg_last", "_position")

    def __init__(self, indices: np.ndarray, table_size: int) -> None:
        n = int(indices.size)
        narrow = np.int16 if table_size <= (1 << 15) else np.int32
        keys = indices.astype(narrow)
        self.order = np.argsort(keys, kind="stable")
        entry = keys[self.order]
        seg_first = np.empty(n, dtype=bool)
        seg_last = np.empty(n, dtype=bool)
        if n:
            seg_first[0] = True
            np.not_equal(entry[1:], entry[:-1], out=seg_first[1:])
            seg_last[-1] = True
            seg_last[:-1] = seg_first[1:]
        self.entry = entry
        self.seg_first = seg_first
        self.seg_last = seg_last
        self._position = None

    @property
    def position(self) -> np.ndarray:
        """Each event's rank within its entry's segment (sorted order)."""
        if self._position is None:
            n = int(self.entry.size)
            arange = np.arange(n, dtype=np.int32)
            self._position = arange - np.maximum.accumulate(
                np.where(self.seg_first, arange, 0)
            )
        return self._position

    def rounds(self) -> tuple[np.ndarray, list[int]]:
        """Sorted positions grouped by rank within their segment.

        Round ``r`` is ``by_rank[bounds[r]:bounds[r + 1]]``: the
        ``r``-th event of every segment.  Entries are distinct within a
        round, so one gather/scatter per round has no conflicts.
        """
        position = self.position
        depth = int(position.max())
        by_rank = _stable_order(position, depth + 1)
        bounds = np.searchsorted(position[by_rank], np.arange(depth + 2))
        return by_rank, bounds.tolist()


#: Longest per-entry run chain handled by the round-based strategy in
#: :func:`counter_scan`; longer chains (one entry dominating the
#: stream) switch to the segmented doubling scan.  Tuned on the
#: campaign branch streams: pc-indexed tables (bimodal, bi-mode
#: choice) are skewed enough that round counts near 100 lose to the
#: log-depth doubling scan, while history-hashed streams (depth ~40)
#: must stay on the cheaper direct path.
SCAN_ROUNDS_LIMIT = 64


def _clamp_doubling(
    amount: np.ndarray,
    lo_run: np.ndarray,
    hi_run: np.ndarray,
    rseg_first: np.ndarray,
) -> None:
    """In-place segmented inclusive scan over clamp functions.

    Each position holds ``f(x) = min(max(x + A, L), U)``; composition
    keeps the family closed, so a Hillis-Steele doubling pass leaves
    every position holding the composition of its whole segment
    prefix.  Once most positions have absorbed their full prefix the
    pass narrows to the still-linked indices only.
    """
    runs = int(amount.size)
    rseg = np.cumsum(rseg_first)
    stride = 1
    active = None
    while stride < runs:
        if active is None:
            linked = rseg[stride:] == rseg[:-stride]
            count = int(np.count_nonzero(linked))
            if count == 0:
                return
            if count * 4 < runs:
                active = np.nonzero(linked)[0] + stride
                continue
            a_left = np.where(linked, amount[:-stride], 0)
            l_left = np.where(linked, lo_run[:-stride], _NEG)
            u_left = np.where(linked, hi_run[:-stride], _POS)
            hi_new = np.minimum(
                np.maximum(u_left + amount[stride:], lo_run[stride:]),
                hi_run[stride:],
            )
            lo_new = np.minimum(
                np.maximum(l_left + amount[stride:], lo_run[stride:]), hi_new
            )
            amount[stride:] += a_left
            lo_run[stride:] = lo_new
            hi_run[stride:] = hi_new
        else:
            left = active - stride
            still = left >= 0
            still &= rseg[np.maximum(left, 0)] == rseg[active]
            active = active[still]
            if active.size == 0:
                return
            left = active - stride
            a_right = amount[active]
            hi_new = np.minimum(
                np.maximum(hi_run[left] + a_right, lo_run[active]),
                hi_run[active],
            )
            lo_new = np.minimum(
                np.maximum(lo_run[left] + a_right, lo_run[active]), hi_new
            )
            a_new = amount[left] + a_right
            amount[active] = a_new
            lo_run[active] = lo_new
            hi_run[active] = hi_new
        stride <<= 1


def counter_scan(
    indices: np.ndarray,
    deltas: np.ndarray,
    table: np.ndarray,
    low: int,
    high: int,
    groups: IndexGroups | None = None,
) -> np.ndarray:
    """Pre-update states of saturating counters under a delta stream.

    Event ``i`` applies ``table[indices[i]] = min(max(x + deltas[i],
    low), high)`` to the value ``x`` it observed.  Returns those
    observed (pre-update) values in stream order and leaves *table*
    holding every entry's final state.  Deltas must not change sign
    within one event (i.e. each delta is applied once); -1, 0 and +1
    are the only values the predictors use.  Pass *groups* to reuse a
    sort computed for another scan over the same index stream.
    """
    n = int(indices.size)
    if n == 0:
        return np.zeros(0, dtype=table.dtype)
    if groups is None:
        groups = IndexGroups(indices, int(table.size))
    order = groups.order
    entry = groups.entry
    seg_first = groups.seg_first
    delta = deltas[order].astype(np.int8)
    out = np.empty(n, dtype=table.dtype)

    event_depth = int(groups.position.max())
    if event_depth < SCAN_ROUNDS_LIMIT:
        # Round-based recurrence straight over events: round r applies
        # the r-th event of every segment at once; entries are distinct
        # within a round, so the table gather/scatter has no conflicts.
        pre = np.empty(n, dtype=table.dtype)
        by_pos, bounds = groups.rounds()
        for r in range(event_depth + 1):
            sl = by_pos[bounds[r] : bounds[r + 1]]
            g = entry[sl]
            x = table[g]
            pre[sl] = x
            table[g] = np.minimum(np.maximum(x + delta[sl], low), high)
        out[order] = pre
        return out

    # Collapse runs of equal deltas on one entry into single clamp
    # steps: a monotone walk saturates and stays, so clamp(x + d*len)
    # equals len iterated steps exactly — and any |amount| beyond the
    # counter range acts exactly like the range itself.
    span = high - low
    run_first = seg_first.copy()
    run_first[1:] |= delta[1:] != delta[:-1]
    run_start = np.flatnonzero(run_first)
    runs = run_start.size
    run_len = np.empty(runs, dtype=np.int64)
    run_len[:-1] = np.diff(run_start)
    run_len[-1] = n - run_start[-1]

    amount = delta[run_start] * np.minimum(run_len, span).astype(np.int8)
    run_entry = entry[run_start]
    rseg_first = seg_first[run_start]

    arange_r = np.arange(runs, dtype=np.int32)
    position = arange_r - np.maximum.accumulate(
        np.where(rseg_first, arange_r, 0)
    )
    depth = int(position.max())

    if depth < SCAN_ROUNDS_LIMIT:
        run_pre = np.empty(runs, dtype=table.dtype)
        by_pos = _stable_order(position, depth + 1)
        bounds = np.searchsorted(position[by_pos], np.arange(depth + 2))
        for r in range(depth + 1):
            sl = by_pos[int(bounds[r]) : int(bounds[r + 1])]
            g = run_entry[sl]
            x = table[g]
            run_pre[sl] = x
            table[g] = np.minimum(np.maximum(x + amount[sl], low), high)
    else:
        amount = amount.astype(np.int64)
        lo_run = np.full(runs, low, dtype=np.int64)
        hi_run = np.full(runs, high, dtype=np.int64)
        _clamp_doubling(amount, lo_run, hi_run, rseg_first)
        start = table[run_entry].astype(np.int64)
        run_pre = start.copy()
        inner = np.flatnonzero(~rseg_first)
        if inner.size:
            left = inner - 1
            run_pre[inner] = np.minimum(
                np.maximum(start[inner] + amount[left], lo_run[left]),
                hi_run[left],
            )
        rseg_last = np.empty(runs, dtype=bool)
        rseg_last[-1] = True
        rseg_last[:-1] = rseg_first[1:]
        table[run_entry[rseg_last]] = np.minimum(
            np.maximum(start[rseg_last] + amount[rseg_last], lo_run[rseg_last]),
            hi_run[rseg_last],
        )

    run_id = np.cumsum(run_first, dtype=np.int32) - 1
    offset = np.arange(n, dtype=np.int64) - run_start[run_id]
    offset = np.minimum(offset, span).astype(np.int8)
    out[order] = np.minimum(
        np.maximum(run_pre[run_id] + delta * offset, low), high
    )
    return out


def last_value_scan(
    indices: np.ndarray,
    values: np.ndarray,
    table: np.ndarray,
    groups: IndexGroups | None = None,
) -> np.ndarray:
    """Pre-update contents of a last-value table.

    Event ``i`` reads ``table[indices[i]]`` then overwrites it with
    ``values[i]``.  Returns the values read, in stream order.
    """
    n = int(indices.size)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if groups is None:
        groups = IndexGroups(indices, int(table.size))
    order, entry = groups.order, groups.entry
    seg_first, seg_last = groups.seg_first, groups.seg_last
    value = values[order].astype(np.int64)
    previous = np.empty(n, dtype=np.int64)
    previous[seg_first] = table[entry[seg_first]]
    inner = np.nonzero(~seg_first)[0]
    previous[inner] = value[inner - 1]
    table[entry[seg_last]] = value[seg_last]
    out = np.empty(n, dtype=np.int64)
    out[order] = previous
    return out


def sticky_install_scan(
    indices: np.ndarray,
    values: np.ndarray,
    table: np.ndarray,
    groups: IndexGroups | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Set-once table reads (agree-predictor bias bits).

    An entry holding -1 is *unset*; the first event touching it
    installs its value.  Returns ``(seen, installed)`` in stream
    order: the entry value each event observed (-1 at installing
    events) and a mask of the installing events.
    """
    n = int(indices.size)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    if groups is None:
        groups = IndexGroups(indices, int(table.size))
    order, entry, seg_first = groups.order, groups.entry, groups.seg_first
    value = values[order].astype(np.int64)
    seg_id = np.cumsum(seg_first) - 1
    base = table[entry[seg_first]].astype(np.int64)
    first_value = value[seg_first]
    effective = np.where(base >= 0, base, first_value)
    base_ev = base[seg_id]
    seen = np.where(base_ev >= 0, base_ev, np.where(seg_first, -1, effective[seg_id]))
    installed = seg_first & (base_ev < 0)
    table[entry[seg_first]] = effective
    out_seen = np.empty(n, dtype=np.int64)
    out_seen[order] = seen
    out_installed = np.empty(n, dtype=bool)
    out_installed[order] = installed
    return out_seen, out_installed


def local_history_scan(
    indices: np.ndarray,
    outcomes: np.ndarray,
    table: np.ndarray,
    history_bits: int,
    groups: IndexGroups | None = None,
) -> np.ndarray:
    """Pre-update values of per-entry outcome shift registers.

    Event ``i`` reads ``table[indices[i]]`` then shifts ``outcomes[i]``
    in: ``table[g] = ((h << 1) | outcome) & mask``.  Returns the values
    read, in stream order.

    Bit ``j`` of an event's register is simply the outcome ``j+1``
    events earlier *on the same entry*; in entry-sorted order that is
    the trailing window sum, with bits reaching past the segment start
    masked off and replaced by the entry's initial register.
    """
    n = int(indices.size)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    mask = (1 << history_bits) - 1
    if groups is None:
        groups = IndexGroups(indices, int(table.size))
    order, entry = groups.order, groups.entry
    seg_first, seg_last = groups.seg_first, groups.seg_last
    outcome = outcomes[order].astype(np.int64)
    arange = np.arange(n, dtype=np.int64)
    position = arange - np.maximum.accumulate(np.where(seg_first, arange, 0))
    raw = _trailing_packed(outcome, history_bits, 1)
    depth = np.minimum(position, history_bits)
    init = table[entry].astype(np.int64)
    history = (raw & ((np.int64(1) << depth) - 1)) | (init << depth)
    history &= mask
    table[entry[seg_last]] = ((history[seg_last] << 1) | outcome[seg_last]) & mask
    out = np.empty(n, dtype=np.int64)
    out[order] = history
    return out


class LruState:
    """A bank of true-LRU sets as one tag matrix.

    Row ``s`` holds set ``s``'s resident tags, MRU first; empty ways
    hold -1 and always trail the resident ones, exactly like the scalar
    insert-then-evict list discipline.
    """

    __slots__ = ("tags",)

    def __init__(self, n_sets: int, associativity: int) -> None:
        self.tags = np.full((n_sets, associativity), -1, dtype=np.int64)

    def to_ways_lists(self) -> list[list[int]]:
        """MRU-first way lists, matching the scalar representation."""
        return [[tag for tag in row if tag >= 0] for row in self.tags.tolist()]


def _window_distinct(
    ids: np.ndarray, widths: np.ndarray, lo: np.ndarray, hi: np.ndarray, ways: int
) -> np.ndarray:
    """Distinct ids in each window ``[lo, hi)``, counted up to *ways*.

    *ids* (unsigned) numbers each position's key within its set,
    *widths* is the set's id count per position, and every window lies
    inside one set.  A bitset sparse table answers a window of length
    ``>= 2**L`` as the OR of its first and last ``2**L`` positions
    (level ``L`` ORs two level ``L - 1`` blocks); the popcount is the
    count.  Ids go one 64-bit word at a time, over the positions of the
    sets that reach the word, so extra memory stays linear in the
    stream; a window drops out once its count reaches *ways*.
    """
    count = np.zeros(hi.size, dtype=np.int64)
    live = np.arange(hi.size)
    base = 0
    while live.size:
        inside = widths > max(base, ways)
        at = np.cumsum(inside) - 1
        a, b = at[lo[live]], at[hi[live]]
        # Ids below the word wrap around and shift out to zero.
        bits = np.left_shift(np.uint64(1), ids[inside] - np.uint64(base))
        level = np.frexp(b - a)[1] - 1
        by_level = _stable_order(level, 64)
        start = 0
        for lv, stop in enumerate(np.cumsum(np.bincount(level))):
            q = by_level[start:stop]
            count[live[q]] += np.bitwise_count(bits[a[q]] | bits[b[q] - (1 << lv)])
            bits = bits[: -(1 << lv)] | bits[1 << lv :]
            start = stop
        base += 64
        live = live[(count[live] < ways) & (widths[hi[live]] > base)]
    return count


def lru_scan(state: LruState, set_ids: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """Stream ``(set, tag)`` accesses through an LRU bank; miss mask.

    Mattson stack distance, computed offline: the incoming resident
    ways are replayed first as synthetic accesses (LRU to MRU), the
    stream is stably grouped by set, and repeats of a set's previous
    tag (MRU hits with no state change) are condensed away.  One
    stable sort on a dense (set, tag) key then puts each access right
    after its previous occurrence.  An access hits iff that occurrence
    exists with fewer than ``associativity`` distinct tags in between:
    certain when its set never holds more tags than it has ways or
    fewer positions lie in between, otherwise decided by
    :func:`_window_distinct`.  The post-state is each set's last
    ``associativity`` distinct tags by last occurrence.
    """
    if set_ids.size == 0:
        return np.zeros(0, dtype=bool)
    table = state.tags
    n_sets, ways = table.shape
    lru_first = table[:, ::-1].ravel()
    resident = lru_first >= 0
    carried = int(np.count_nonzero(resident))
    if carried:
        set_ids = np.concatenate(
            [np.repeat(np.arange(n_sets, dtype=np.int64), ways)[resident], set_ids]
        )
        tags = np.concatenate([lru_first[resident], tags])

    by_set = _stable_order(set_ids, n_sets)
    sets = set_ids[by_set]
    tag = tags[by_set]
    kept = np.empty(by_set.size, dtype=bool)
    kept[0] = True
    kept[1:] = (sets[1:] != sets[:-1]) | (tag[1:] != tag[:-1])
    kept = by_set[kept]
    sets = set_ids[kept]
    tag = tags[kept]
    m = int(kept.size)

    # Dense tag ranks: an occupancy table over a small span, else sorted.
    low = int(tag.min())
    span = int(tag.max()) - low + 1
    if span <= 4 * m:
        occupied = np.zeros(span, dtype=bool)
        occupied[tag - low] = True
        rank = np.cumsum(occupied)
        dense = rank[tag - low] - 1
        n_tags = int(rank[-1])
    else:
        distinct, dense = np.unique(tag, return_inverse=True)
        n_tags = int(distinct.size)
    # Sorted by (set, tag, position): a repeat follows its previous.
    key = sets * n_tags + dense
    order = _stable_order(key, n_sets * n_tags)
    repeat = np.diff(key[order], prepend=-1) == 0
    first = ~repeat
    sorted_sets = sets[order]
    widths = np.bincount(sorted_sets[first], minlength=n_sets)
    hit = repeat & ((np.diff(order, prepend=0) <= ways) | (widths[sorted_sets] <= ways))
    unsure = np.flatnonzero(repeat & ~hit)
    if unsure.size:
        # Each set's keys numbered 0 .. width - 1 in tag order.
        ids = np.empty(m, dtype=np.uint64)
        ids[order] = np.cumsum(first) - (np.cumsum(widths) - widths + 1)[sorted_sets]
        count = _window_distinct(
            ids, widths[sets], order[unsure - 1] + 1, order[unsure], ways
        )
        hit[unsure] = count < ways

    # Post-state: each (set, tag)'s last occurrence, newest first.
    newest = np.sort(order[np.append(first[1:], True)])[::-1]
    final_sets = sets[newest]
    first = np.empty(newest.size, dtype=bool)
    first[0] = True
    np.not_equal(final_sets[1:], final_sets[:-1], out=first[1:])
    index = np.arange(newest.size)
    rank = index - np.maximum.accumulate(np.where(first, index, 0))
    stays = rank < ways
    table.fill(-1)
    table[final_sets[stays], rank[stays]] = tag[newest[stays]]

    miss = np.zeros(by_set.size, dtype=bool)
    miss[kept[order]] = ~hit
    return miss[carried:]
