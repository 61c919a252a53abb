"""Bi-Mode predictor (Lee, Chen & Mudge, MICRO 1997).

Another anti-aliasing design: two gshare-indexed direction PHTs (a
"taken" bank and a "not-taken" bank) are selected per branch by a
pc-indexed choice PHT.  Mostly-taken branches train the taken bank and
mostly-not-taken branches the other, so destructive aliasing between
opposite-bias branches — the dominant interferometry signal — is
largely removed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch import vector
from repro.uarch.predictors.base import BranchPredictor, require_power_of_two


class BiModePredictor(BranchPredictor):
    """Choice PHT + dual direction PHTs with gshare indexing."""

    def __init__(
        self,
        entries: int = 4096,
        history_bits: int = 8,
        choice_entries: int = 2048,
        name: str | None = None,
    ) -> None:
        self.entries = require_power_of_two(entries, "bi-mode direction entries")
        self.choice_entries = require_power_of_two(choice_entries, "bi-mode choice entries")
        if not 1 <= history_bits <= 24:
            raise ConfigurationError(f"history_bits must be in [1, 24], got {history_bits}")
        self.history_bits = history_bits
        self.name = name if name is not None else f"bimode-{entries}x{history_bits}"
        self._taken: list[int] = []
        self._not_taken: list[int] = []
        self._choice: list[int] = []
        self._history = 0
        self.reset()

    def reset(self) -> None:
        self._taken = [2] * self.entries
        self._not_taken = [1] * self.entries
        self._choice = [2] * self.choice_entries
        self._history = 0

    def storage_bits(self) -> int:
        return 2 * (2 * self.entries) + 2 * self.choice_entries + self.history_bits

    def _indices(self, pc, history):
        """(choice, direction) table indices — the one place index math lives.

        Polymorphic over Python ints and numpy arrays (>>, ^ and & are
        elementwise), so both engines share the identical expression.
        """
        pc2 = pc >> 2
        return (
            pc2 & (self.choice_entries - 1),
            (pc2 ^ history) & (self.entries - 1),
        )

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        choice_idx, direction_idx = self._indices(pc, self._history)
        use_taken_bank = self._choice[choice_idx] >= 2
        bank = self._taken if use_taken_bank else self._not_taken
        counter = bank[direction_idx]
        prediction = 1 if counter >= 2 else 0

        # Update the chosen bank always.
        if outcome:
            if counter < 3:
                bank[direction_idx] = counter + 1
        elif counter > 0:
            bank[direction_idx] = counter - 1
        # Update the choice PHT unless it was overridden *and* correct
        # (the standard partial-update rule).
        chosen_agrees = (1 if use_taken_bank else 0) == outcome
        if not (prediction == outcome and not chosen_agrees):
            choice = self._choice[choice_idx]
            if outcome:
                if choice < 3:
                    self._choice[choice_idx] = choice + 1
            elif choice > 0:
                self._choice[choice_idx] = choice - 1
        self._history = ((self._history << 1) | outcome) & (
            (1 << self.history_bits) - 1
        )
        return prediction == outcome

    def scan(self, addresses: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        # Indices come from _indices, shared with predict_and_update
        # (the >>/^/& operators are elementwise on arrays): an earlier
        # version inlined the math over a 31-bit-truncated pc and
        # silently diverged from the scalar path on high addresses.
        choice = np.array(self._choice, dtype=np.int8)
        # Both direction banks live in one table (taken half first):
        # the solver scans the selected entry per event, so fusing the
        # banks halves the scan count per round.
        banks = np.concatenate(
            [
                np.array(self._taken, dtype=np.int8),
                np.array(self._not_taken, dtype=np.int8),
            ]
        )
        history = self._history
        n = int(addresses.size)
        mis = np.empty(n, dtype=bool)
        for start, stop in vector.iter_chunks(n):
            outc = outcomes[start:stop]
            hist, history = vector.shifted_histories(
                self.history_bits, outc, history
            )
            choice_idx, direction_idx = self._indices(
                addresses[start:stop], hist
            )
            _coupled_scan(
                choice_idx,
                direction_idx,
                outc == 1,
                choice,
                banks,
                mis[start:stop],
            )
        self._taken = banks[: self.entries].tolist()
        self._not_taken = banks[self.entries :].tolist()
        self._choice = choice.tolist()
        self._history = history
        return mis


#: Fixpoint round budget before a chunk is bisected.  A chunk of n
#: events provably converges within n + 1 rounds (see _coupled_scan),
#: so any chunk small enough to exhaust this budget has already split.
_FIXPOINT_ROUNDS = 16


def _coupled_scan(
    choice_idx: np.ndarray,
    direction_idx: np.ndarray,
    taken_ev: np.ndarray,
    choice: np.ndarray,
    banks: np.ndarray,
    out: np.ndarray,
) -> None:
    """Solve one chunk of the coupled choice/bank recurrence exactly.

    Bi-mode resists the hybrid/tournament decomposition because its
    coupling is cyclic: the choice PHT selects the bank, the bank's
    prediction decides whether the choice PHT trains (the partial
    update skips it iff the prediction was correct while the choice
    disagreed with the outcome).  Selection needs the prediction;
    the prediction needs the selection.

    The cycle is broken by speculating the skip mask and iterating to
    a fixpoint.  Round 0 guesses skip = all-False and scans everything
    once: the choice PHT under full ±1 deltas, then the *selected*
    direction entry per event — the two banks share one fused table
    (*banks*, taken half first) and an event indexes
    ``direction_idx + (0 | entries)``, so selection costs one scan,
    not two (the unselected bank's pre-state is never read by the
    prediction).  Every later round is an incremental repair: the skip
    mask changed at a handful of events, so only the choice entries
    containing those events can see different delta streams — their
    segments are rescanned from the pre-chunk state and patched into
    the trial table, and the same sparsification cascades into the
    bank scan through the events whose selection flipped.  Each round
    computes exactly the full Jacobi iterate, at the cost of the few
    affected segments (real campaign chunks repair hundreds of events,
    not tens of thousands).

    Correctness: any fixpoint equals the true per-event execution, by
    induction on trace order — event ``i``'s pre-states depend only on
    masks of strictly earlier events, so a consistent mask is the true
    one.  Termination: the prefix of events on which the mask agrees
    with the truth grows by at least one per round (same induction),
    giving convergence within n + 1 rounds; in practice a mask error
    rarely flips a later threshold crossing and chunks converge in a
    handful of rounds.  A chunk that exhausts the round budget is
    bisected — the prefix is self-contained by causality, so solving
    it alone is exact and the suffix resumes from the committed
    tables.  Tables mutate to their post-chunk state only on the
    converged round; *out* receives the chunk's mispredict mask.
    """
    n = int(taken_ev.size)
    if n == 0:
        return
    entries = int(banks.size) // 2
    delta = np.where(taken_ev, np.int8(1), np.int8(-1))
    zero8 = np.int8(0)

    # Round 0: full scans under the all-False skip guess.
    skip = np.zeros(n, dtype=bool)
    trial_choice = choice.copy()
    pre_choice = vector.counter_scan(
        choice_idx, delta, trial_choice, 0, 3
    )
    use_taken = pre_choice >= 2
    combined_idx = np.where(use_taken, direction_idx, direction_idx + entries)
    trial_banks = banks.copy()
    pre_dir = vector.counter_scan(combined_idx, delta, trial_banks, 0, 3)
    prediction = pre_dir >= 2
    new_skip = (prediction == taken_ev) & (use_taken != taken_ev)

    # Entry-marking buffers for the repair rounds, allocated once.
    choice_touched = np.zeros(int(choice.size), dtype=bool)
    bank_touched = np.zeros(entries, dtype=bool)
    for _ in range(_FIXPOINT_ROUNDS):
        changed = np.flatnonzero(new_skip != skip)
        if changed.size == 0:
            choice[:] = trial_choice
            banks[:] = trial_banks
            np.not_equal(prediction, taken_ev, out=out)
            return
        skip = new_skip
        # Repair the choice scan: only entries holding a changed event
        # see a different delta stream.  Reset them to the pre-chunk
        # state and rescan their segments in stream order.
        choice_touched[:] = False
        choice_touched[choice_idx[changed]] = True
        sel = np.flatnonzero(choice_touched[choice_idx])
        ci_sub = choice_idx[sel]
        trial_choice[ci_sub] = choice[ci_sub]
        pre_sub = vector.counter_scan(
            ci_sub,
            np.where(skip[sel], zero8, delta[sel]),
            trial_choice,
            0,
            3,
        )
        use_sub = pre_sub >= 2
        moved = sel[use_sub != use_taken[sel]]
        use_taken[sel] = use_sub
        if moved.size:
            # Cascade into the banks: a flipped selection moves the
            # event between table halves, so both halves of its
            # direction entry must be rescanned (their event
            # sequences changed).
            bank_touched[:] = False
            bank_touched[direction_idx[moved]] = True
            bsel = np.flatnonzero(bank_touched[direction_idx])
            di_sub = direction_idx[bsel]
            combined_sub = np.where(
                use_taken[bsel], di_sub, di_sub + entries
            )
            trial_banks[di_sub] = banks[di_sub]
            trial_banks[di_sub + entries] = banks[di_sub + entries]
            pre_bsub = vector.counter_scan(
                combined_sub, delta[bsel], trial_banks, 0, 3
            )
            prediction[bsel] = pre_bsub >= 2
        new_skip = (prediction == taken_ev) & (use_taken != taken_ev)
    half = n // 2  # n >= 2 here: a single event converges in 2 rounds
    _coupled_scan(
        choice_idx[:half],
        direction_idx[:half],
        taken_ev[:half],
        choice,
        banks,
        out[:half],
    )
    _coupled_scan(
        choice_idx[half:],
        direction_idx[half:],
        taken_ev[half:],
        choice,
        banks,
        out[half:],
    )
