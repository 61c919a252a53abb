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
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.uarch.predictors.base import BranchPredictor, require_power_of_two


class _FoldedHistory:
    """A geometric history folded down to *bits* bits, updated in O(1)."""

    __slots__ = ("comp", "length", "bits", "mask", "evict_shift")

    def __init__(self, length: int, bits: int) -> None:
        self.comp = 0
        self.length = length
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.evict_shift = length % bits

    def update(self, new_bit: int, evicted_bit: int) -> None:
        comp = ((self.comp << 1) | new_bit) ^ (evicted_bit << self.evict_shift)
        comp ^= comp >> self.bits
        self.comp = comp & self.mask


class _TaggedEntry:
    """One entry of a tagged TAGE component."""

    __slots__ = ("tag", "counter", "useful")

    def __init__(self) -> None:
        self.tag = 0
        self.counter = 4  # 3-bit counter, 4 = weakly taken
        self.useful = 0


class TagePredictor(BranchPredictor):
    """Tagged geometric-history predictor.

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
        self._tables = [
            [_TaggedEntry() for _ in range(1 << self.table_bits)]
            for _ in range(self.n_tables)
        ]
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
            indices.append(idx)
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

    # No array formulation exists, so the oracle is the production path:
    # defining step (not predict_and_update) keeps it one call per event.
    def step(self, pc: int, outcome: int) -> bool:
        indices, tags = self._indices_and_tags(pc)
        tables = self._tables

        provider = -1
        alt = -1
        for i in range(self.n_tables - 1, -1, -1):
            if tables[i][indices[i]].tag == tags[i]:
                if provider < 0:
                    provider = i
                else:
                    alt = i
                    break

        bim_idx = (pc >> 2) & ((1 << self.bimodal_bits) - 1)
        bim_pred = 1 if self._bimodal[bim_idx] >= 2 else 0

        if alt >= 0:
            alt_entry = tables[alt][indices[alt]]
            alt_pred = 1 if alt_entry.counter >= 4 else 0
        else:
            alt_pred = bim_pred

        if provider >= 0:
            entry = tables[provider][indices[provider]]
            provider_pred = 1 if entry.counter >= 4 else 0
            # Newly allocated, unconfident entries may defer to alt.
            weak = entry.counter in (3, 4) and entry.useful == 0
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
            entry = tables[provider][indices[provider]]
            weak = entry.counter in (3, 4) and entry.useful == 0
            if weak and provider_pred != alt_pred:
                # Track whether alt beats a fresh provider.
                if alt_pred == outcome and self._use_alt_on_new < 15:
                    self._use_alt_on_new += 1
                elif alt_pred != outcome and self._use_alt_on_new > 0:
                    self._use_alt_on_new -= 1
            # Useful bit: provider was right where alt was wrong.
            if provider_pred != alt_pred:
                if provider_pred == outcome:
                    if entry.useful < 3:
                        entry.useful += 1
                elif entry.useful > 0:
                    entry.useful -= 1
            # Train the provider counter.
            if outcome:
                if entry.counter < 7:
                    entry.counter += 1
            elif entry.counter > 0:
                entry.counter -= 1
            if provider == 0 or tables[provider][indices[provider]].useful == 0:
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
                entry = tables[i][indices[i]]
                if entry.useful == 0:
                    entry.tag = tags[i]
                    entry.counter = 4 if outcome else 3
                    allocated = True
                    break
            if not allocated:
                for i in range(start, self.n_tables):
                    entry = tables[i][indices[i]]
                    if entry.useful > 0:
                        entry.useful -= 1

        self._update_histories(outcome)
        return not correct

    def _train_bimodal(self, idx: int, outcome: int) -> None:
        counter = self._bimodal[idx]
        if outcome:
            if counter < 3:
                self._bimodal[idx] = counter + 1
        elif counter > 0:
            self._bimodal[idx] = counter - 1


class _LoopEntry:
    """One loop-predictor entry."""

    __slots__ = ("tag", "past_iter", "current_iter", "confidence", "age")

    def __init__(self) -> None:
        self.tag = -1
        self.past_iter = 0
        self.current_iter = 0
        self.confidence = 0
        self.age = 0


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

    def _reset_structures(self) -> None:
        super()._reset_structures()
        self._loop = [_LoopEntry() for _ in range(self.loop_entries)]

    def storage_bits(self) -> int:
        return super().storage_bits() + self.loop_entries * (14 + 14 + 14 + 3 + 8)

    def step(self, pc: int, outcome: int) -> bool:
        loop_idx = (pc >> 2) & (self.loop_entries - 1)
        loop_tag = (pc >> 2) >> self.loop_entries.bit_length()
        entry = self._loop[loop_idx]

        loop_hit = entry.tag == loop_tag
        loop_pred = None
        if loop_hit and entry.confidence >= 3 and entry.past_iter > 0:
            # Predict taken until the recorded trip count is reached.
            loop_pred = 1 if entry.current_iter + 1 < entry.past_iter else 0

        # Run TAGE for training regardless (records its own correctness).
        tage_correct = not super().step(pc, outcome)

        if loop_pred is not None:
            correct = loop_pred == outcome
        else:
            correct = tage_correct

        # --- loop predictor update ---
        if loop_hit:
            if outcome:
                entry.current_iter += 1
                if entry.past_iter and entry.current_iter > entry.past_iter:
                    # Trip count changed; lose confidence.
                    entry.confidence = 0
                    entry.past_iter = 0
            else:
                finished = entry.current_iter + 1
                if entry.past_iter == finished:
                    if entry.confidence < 7:
                        entry.confidence += 1
                else:
                    entry.past_iter = finished
                    entry.confidence = 0
                entry.current_iter = 0
        elif not tage_correct and outcome == 0:
            # Allocate on a mispredicted loop-exit-looking branch.
            if entry.age == 0:
                entry.tag = loop_tag
                entry.past_iter = 0
                entry.current_iter = 0
                entry.confidence = 0
                entry.age = 7
            else:
                entry.age -= 1
        return not correct
