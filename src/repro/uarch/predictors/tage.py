"""TAGE and L-TAGE predictors (Seznec, CBP-2 / JILP 2007).

TAGE combines a bimodal base predictor with several partially tagged
tables indexed by geometrically increasing global-history lengths.
L-TAGE adds a loop predictor that captures long regular loops exactly.
The paper uses L-TAGE as "currently the most accurate branch predictor
in the academic literature" (§7.2.2) and estimates the CPI it would
yield on the Xeon via the interferometry regression model.

The implementation follows the reference simulator's structure —
folded-history index/tag computation (maintained incrementally in O(1)
per branch), provider/alternate prediction, useful counters, and
allocation on mispredictions — simplified where hardware-bit-exactness
is irrelevant to this study.

The vector ``scan`` rests on one fact: every history register is a
function of the outcome stream alone.  So the folded histories, and
with them every table index and tag, are computed as arrays up front
(:func:`repro.uarch.vector.folded_histories`); only the table state
machine stays a per-event loop over plain integers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch import vector
from repro.uarch.predictors.base import BranchPredictor, require_power_of_two


class _FoldedHistory:
    """A geometric history folded down to *bits* bits, updated in O(1)."""

    __slots__ = ("comp", "length", "bits", "mask", "evict_shift")

    def __init__(self, length: int, bits: int, comp: int = 0) -> None:
        self.comp = comp
        self.length = length
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.evict_shift = length % bits

    def update(self, new_bit: int, evicted_bit: int) -> None:
        comp = ((self.comp << 1) | new_bit) ^ (evicted_bit << self.evict_shift)
        comp ^= comp >> self.bits
        self.comp = comp & self.mask


class _LoopEntry:
    """One loop-predictor entry."""

    __slots__ = ("tag", "past_iter", "current_iter", "confidence", "age")

    def __init__(self) -> None:
        self.tag = -1
        self.past_iter = 0
        self.current_iter = 0
        self.confidence = 0
        self.age = 0

    def resolve(self, tag: int, outcome: int, tage_correct: bool) -> bool:
        """Predict, then train on *outcome*; True if the final prediction was right.

        A confident hit overrides TAGE; otherwise TAGE's correctness
        stands.  One call per branch, from L-TAGE's oracle and its scan.
        """
        hit = self.tag == tag
        correct = tage_correct
        if hit and self.confidence >= 3 and self.past_iter > 0:
            # Predict taken until the recorded trip count is reached.
            correct = (1 if self.current_iter + 1 < self.past_iter else 0) == outcome
        if hit:
            if outcome:
                self.current_iter += 1
                if self.past_iter and self.current_iter > self.past_iter:
                    # Trip count changed; lose confidence.
                    self.confidence = 0
                    self.past_iter = 0
            else:
                finished = self.current_iter + 1
                if self.past_iter == finished:
                    if self.confidence < 7:
                        self.confidence += 1
                else:
                    self.past_iter = finished
                    self.confidence = 0
                self.current_iter = 0
        elif not tage_correct and outcome == 0:
            # Allocate on a mispredicted loop-exit-looking branch.
            if self.age == 0:
                self.tag = tag
                self.past_iter = 0
                self.current_iter = 0
                self.confidence = 0
                self.age = 7
            else:
                self.age -= 1
        return correct


class TagePredictor(BranchPredictor):
    """Tagged geometric-history predictor.

    The tagged tables are three flat per-field lists (tag, 3-bit
    counter, 2-bit useful), table ``i`` entry ``j`` at ``i << table_bits
    | j``, shared by the oracle :meth:`step` and the vector :meth:`scan`.

    Parameters
    ----------
    table_bits:
        log2 entries of each tagged table.
    history_lengths:
        Geometric history lengths, shortest first.
    tag_bits:
        Tag width of the tagged tables.
    bimodal_bits:
        log2 entries of the bimodal base table.
    """

    #: Loop-predictor entries: none here, L-TAGE adds them.
    loop_entries = 0

    def __init__(
        self,
        table_bits: int = 10,
        history_lengths: tuple[int, ...] = (5, 14, 40, 114),
        tag_bits: int = 9,
        bimodal_bits: int = 12,
        name: str = "tage",
    ) -> None:
        if sorted(history_lengths) != list(history_lengths):
            raise ConfigurationError("history_lengths must be increasing")
        require_power_of_two(1 << table_bits, "TAGE table size")
        self.table_bits = table_bits
        self.history_lengths = tuple(history_lengths)
        self.tag_bits = tag_bits
        self.bimodal_bits = bimodal_bits
        self.name = name
        self.n_tables = len(history_lengths)
        self._reset_structures()

    def _reset_structures(self) -> None:
        self._bimodal = [2] * (1 << self.bimodal_bits)
        entries = self.n_tables << self.table_bits
        self._tag = [0] * entries
        self._counter = [4] * entries  # 3-bit counter, 4 = weakly taken
        self._useful = [0] * entries
        self._hist = 0
        self._fold_idx = [
            _FoldedHistory(length, self.table_bits) for length in self.history_lengths
        ]
        self._fold_tag0 = [
            _FoldedHistory(length, self.tag_bits) for length in self.history_lengths
        ]
        self._fold_tag1 = [
            _FoldedHistory(length, self.tag_bits - 1) for length in self.history_lengths
        ]
        # Deterministic allocation tie-breaker (LFSR).
        self._lfsr = 0xACE1
        self._use_alt_on_new = 8  # 4-bit counter, >= 8 means "use alt"
        self._loop = [_LoopEntry() for _ in range(self.loop_entries)]

    def reset(self) -> None:
        self._reset_structures()

    def storage_bits(self) -> int:
        tagged = self.n_tables * (1 << self.table_bits) * (self.tag_bits + 3 + 2)
        return tagged + 2 * (1 << self.bimodal_bits)

    def _next_random(self) -> int:
        lfsr = self._lfsr
        bit = ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1
        self._lfsr = (lfsr >> 1) | (bit << 15)
        return self._lfsr

    def _indices_and_tags(self, pc: int) -> tuple[list[int], list[int]]:
        idx_mask = (1 << self.table_bits) - 1
        tag_mask = (1 << self.tag_bits) - 1
        pc2 = pc >> 2
        indices = []
        tags = []
        for i in range(self.n_tables):
            idx = (pc2 ^ (pc2 >> (self.table_bits - i)) ^ self._fold_idx[i].comp) & idx_mask
            tag = (pc2 ^ self._fold_tag0[i].comp ^ (self._fold_tag1[i].comp << 1)) & tag_mask
            indices.append((i << self.table_bits) | idx)
            tags.append(tag)
        return indices, tags

    def _update_histories(self, outcome: int) -> None:
        old_hist = self._hist
        for i in range(self.n_tables):
            length = self.history_lengths[i]
            evicted = (old_hist >> (length - 1)) & 1
            self._fold_idx[i].update(outcome, evicted)
            self._fold_tag0[i].update(outcome, evicted)
            self._fold_tag1[i].update(outcome, evicted)
        max_len = self.history_lengths[-1]
        self._hist = ((old_hist << 1) | outcome) & ((1 << max_len) - 1)

    # The oracle: defining step (not predict_and_update) keeps the
    # scalar engine at one call per event.
    def step(self, pc: int, outcome: int) -> bool:
        indices, tags = self._indices_and_tags(pc)
        tag_table, counters, useful = self._tag, self._counter, self._useful

        provider = -1
        alt = -1
        for i in range(self.n_tables - 1, -1, -1):
            if tag_table[indices[i]] == tags[i]:
                if provider < 0:
                    provider = i
                else:
                    alt = i
                    break

        bim_idx = (pc >> 2) & ((1 << self.bimodal_bits) - 1)
        bim_pred = 1 if self._bimodal[bim_idx] >= 2 else 0

        if alt >= 0:
            alt_pred = 1 if counters[indices[alt]] >= 4 else 0
        else:
            alt_pred = bim_pred

        if provider >= 0:
            slot = indices[provider]
            provider_pred = 1 if counters[slot] >= 4 else 0
            # Newly allocated, unconfident entries may defer to alt.
            weak = counters[slot] in (3, 4) and useful[slot] == 0
            if weak and self._use_alt_on_new >= 8:
                prediction = alt_pred
            else:
                prediction = provider_pred
        else:
            provider_pred = alt_pred
            prediction = alt_pred

        correct = prediction == outcome

        # --- update ---
        if provider >= 0:
            slot = indices[provider]
            weak = counters[slot] in (3, 4) and useful[slot] == 0
            if weak and provider_pred != alt_pred:
                # Track whether alt beats a fresh provider.
                if alt_pred == outcome and self._use_alt_on_new < 15:
                    self._use_alt_on_new += 1
                elif alt_pred != outcome and self._use_alt_on_new > 0:
                    self._use_alt_on_new -= 1
            # Useful bit: provider was right where alt was wrong.
            if provider_pred != alt_pred:
                if provider_pred == outcome:
                    if useful[slot] < 3:
                        useful[slot] += 1
                elif useful[slot] > 0:
                    useful[slot] -= 1
            # Train the provider counter.
            if outcome:
                if counters[slot] < 7:
                    counters[slot] += 1
            elif counters[slot] > 0:
                counters[slot] -= 1
            if provider == 0 or useful[slot] == 0:
                # Also keep the base predictor warm for this branch.
                self._train_bimodal(bim_idx, outcome)
        else:
            self._train_bimodal(bim_idx, outcome)

        # Allocate on a misprediction if a longer history table exists.
        if not correct and provider < self.n_tables - 1:
            start = provider + 1
            allocated = False
            rand = self._next_random()
            # Skip one table with probability 1/2 to decorrelate.
            if start < self.n_tables - 1 and (rand & 1):
                start += 1
            for i in range(start, self.n_tables):
                slot = indices[i]
                if useful[slot] == 0:
                    tag_table[slot] = tags[i]
                    counters[slot] = 4 if outcome else 3
                    allocated = True
                    break
            if not allocated:
                for i in range(start, self.n_tables):
                    slot = indices[i]
                    if useful[slot] > 0:
                        useful[slot] -= 1

        self._update_histories(outcome)
        return not correct

    def _train_bimodal(self, idx: int, outcome: int) -> None:
        counter = self._bimodal[idx]
        if outcome:
            if counter < 3:
                self._bimodal[idx] = counter + 1
        elif counter > 0:
            self._bimodal[idx] = counter - 1

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        n = int(addresses.size)
        misses = np.zeros(n, dtype=bool)
        for start, stop in vector.iter_chunks(n):
            missed = self._scan_chunk(addresses[start:stop] >> 2, outcomes[start:stop])
            misses[start:stop][missed] = True
        return misses

    def _hash_chunk(
        self, pcs: np.ndarray, outcomes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every event's table slots and tags, as ``(n_tables, n)`` arrays.

        Advances the global history and the folded registers past the
        chunk, from the same arrays.
        """
        n = int(pcs.size)
        lengths = self.history_lengths
        max_len = lengths[-1]
        carried = np.frombuffer(
            format(self._hist, f"0{max_len}b").encode(), dtype=np.uint8
        )
        stream = np.concatenate([carried - ord("0"), outcomes]).astype(np.int64)
        self._hist = int((stream[-max_len:] + ord("0")).astype(np.uint8).tobytes(), 2)
        widths = (self.table_bits, self.tag_bits, self.tag_bits - 1)
        folds = [
            vector.folded_histories(stream, max_len, lengths, bits) for bits in widths
        ]
        self._fold_idx, self._fold_tag0, self._fold_tag1 = (
            [
                _FoldedHistory(length, bits, comp)
                for length, comp in zip(lengths, fold[:, -1].tolist())
            ]
            for fold, bits in zip(folds, widths)
        )
        fold_idx, fold_tag0, fold_tag1 = (fold[:, :n] for fold in folds)
        table = np.arange(self.n_tables, dtype=np.int64)[:, None]
        slots = (
            (pcs ^ (pcs >> (self.table_bits - table)) ^ fold_idx)
            & ((1 << self.table_bits) - 1)
        ) | (table << self.table_bits)
        tags = (pcs ^ fold_tag0 ^ (fold_tag1 << 1)) & ((1 << self.tag_bits) - 1)
        return slots, tags

    def _scan_chunk(self, pcs: np.ndarray, outcomes: np.ndarray) -> list[int]:
        """:meth:`step` over one chunk; returns the positions that missed."""
        slots, tags = self._hash_chunk(pcs, outcomes)
        slot_rows = zip(*slots.tolist())
        tag_rows = zip(*tags.tolist())
        bim_index = (pcs & ((1 << self.bimodal_bits) - 1)).tolist()
        has_loop = self.loop_entries > 0
        if has_loop:
            loop_index = (pcs & (self.loop_entries - 1)).tolist()
            loop_key = (pcs >> self.loop_entries.bit_length()).tolist()
        else:
            loop_index = loop_key = bim_index  # unread without a loop predictor
        outs = outcomes.tolist()
        tag_table, counters, useful = self._tag, self._counter, self._useful
        bimodal, loops = self._bimodal, self._loop
        lfsr, use_alt = self._lfsr, self._use_alt_on_new
        top = self.n_tables - 1
        longest_first = range(top, -1, -1)
        missed: list[int] = []
        # repro: allow-PERF001 TAGE's provider/alt choice, useful bits, use-alt counter, LFSR and allocation (and L-TAGE's loop predictor) form one state machine along the event chain; every index and tag it reads is precomputed by the array pass in _hash_chunk
        for e, (outcome, where, keys, bim_slot, li, lkey) in enumerate(
            zip(outs, slot_rows, tag_rows, bim_index, loop_index, loop_key)
        ):
            provider = alt = -1
            for i in longest_first:
                if tag_table[where[i]] == keys[i]:
                    if provider < 0:
                        provider = i
                    else:
                        alt = i
                        break
            bim = bimodal[bim_slot]
            alt_pred = counters[where[alt]] >= 4 if alt >= 0 else bim >= 2
            train_bimodal = True
            if provider >= 0:
                slot = where[provider]
                counter = counters[slot]
                u = useful[slot]
                provider_pred = counter >= 4
                weak = u == 0 and (counter == 3 or counter == 4)
                if weak and use_alt >= 8:
                    correct = alt_pred == outcome
                else:
                    correct = provider_pred == outcome
                if provider_pred != alt_pred:
                    if weak:
                        if alt_pred == outcome:
                            if use_alt < 15:
                                use_alt += 1
                        elif use_alt > 0:
                            use_alt -= 1
                    if provider_pred == outcome:
                        if u < 3:
                            u += 1
                            useful[slot] = u
                    elif u > 0:
                        u -= 1
                        useful[slot] = u
                if outcome:
                    if counter < 7:
                        counters[slot] = counter + 1
                elif counter > 0:
                    counters[slot] = counter - 1
                train_bimodal = provider == 0 or u == 0
            else:
                correct = alt_pred == outcome
            if train_bimodal:
                if outcome:
                    if bim < 3:
                        bimodal[bim_slot] = bim + 1
                elif bim > 0:
                    bimodal[bim_slot] = bim - 1
            if not correct and provider < top:
                start = provider + 1
                bit = (lfsr ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1
                lfsr = (lfsr >> 1) | (bit << 15)
                if start < top and lfsr & 1:
                    start += 1
                for i in range(start, top + 1):
                    slot = where[i]
                    if useful[slot] == 0:
                        tag_table[slot] = keys[i]
                        counters[slot] = 4 if outcome else 3
                        break
                else:
                    for i in range(start, top + 1):
                        slot = where[i]
                        if useful[slot] > 0:
                            useful[slot] -= 1
            if has_loop:
                correct = loops[li].resolve(lkey, outcome, correct)
            if not correct:
                missed.append(e)
        self._lfsr, self._use_alt_on_new = lfsr, use_alt
        return missed


class LTagePredictor(TagePredictor):
    """L-TAGE: TAGE plus a loop predictor.

    The loop predictor captures branches with a constant iteration
    count exactly (confidence builds when the same trip count repeats);
    when confident, it overrides TAGE for that branch.
    """

    def __init__(
        self,
        table_bits: int = 11,
        history_lengths: tuple[int, ...] = (5, 14, 40, 114),
        tag_bits: int = 9,
        bimodal_bits: int = 13,
        loop_entries: int = 256,
        name: str = "L-TAGE",
    ) -> None:
        self.loop_entries = require_power_of_two(loop_entries, "loop predictor entries")
        super().__init__(
            table_bits=table_bits,
            history_lengths=history_lengths,
            tag_bits=tag_bits,
            bimodal_bits=bimodal_bits,
            name=name,
        )

    def storage_bits(self) -> int:
        return super().storage_bits() + self.loop_entries * (14 + 14 + 14 + 3 + 8)

    def step(self, pc: int, outcome: int) -> bool:
        pc2 = pc >> 2
        entry = self._loop[pc2 & (self.loop_entries - 1)]
        # Run TAGE for training regardless (records its own correctness).
        tage_correct = not super().step(pc, outcome)
        return not entry.resolve(pc2 >> self.loop_entries.bit_length(), outcome, tage_correct)
