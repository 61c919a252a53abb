"""Disk-backed campaign store: measure once, reuse everywhere.

The paper amortizes its measurement cost across experiments — the same
100 reorderings per benchmark feed Figs. 1-2, 6-8 and Table 1.  The
:class:`CampaignStore` extends that amortization across *processes*: a
content-addressed cache of observation sets keyed by everything that
determines a campaign's bits:

* benchmark name,
* canonical trace length (the scale's ``trace_events``),
* counter protocol (``runs_per_group``),
* machine identity (seed) and machine configuration,
* heap-randomization flag,
* persistence format version.

Because every observation is a pure function of that key plus the
layout index, a stored campaign with *n* layouts serves any request for
``<= n`` layouts bit-identically, and a request for more layouts only
measures (and persists) the missing suffix — so the rounds of §6.3's
escalation (:meth:`repro.harness.lab.Laboratory.escalate`) never
re-measure earlier reorderings.

Layout on disk: one JSON file per campaign under the store root,
``<benchmark>[-heap]-<key digest>.json``, in the
:mod:`repro.persistence` format (version 2, with provenance).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro import faults
from repro.core.observations import ObservationSet
from repro.errors import ConfigurationError, CorruptCampaignError, ReproError
from repro.persistence import (
    _FORMAT_VERSION,
    CampaignProvenance,
    dump_campaign,
    load_campaign,
    write_atomic,
)

_LOG = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.machine.config import XeonE5440Config

def config_digest(config: "XeonE5440Config") -> str:
    """Short content digest of a machine configuration."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class CampaignKey:
    """One campaign: everything that determines its measured bits.

    Every observation is a pure function of a key and a layout index,
    so the key is all a worker needs to rebuild the machine and the
    interferometer that measure the campaign, and all the store needs
    to address it.  Keys are frozen and hashable: they cross the worker
    boundary by value and index suite results.
    """

    benchmark: str
    trace_events: int
    runs_per_group: int
    machine_seed: int
    config: XeonE5440Config
    randomize_heap: bool
    format_version: int = _FORMAT_VERSION

    def digest(self) -> str:
        """Content address of this key (stable across processes).

        The configuration enters through its :func:`config_digest`, so
        store files written before keys carried the whole configuration
        keep their names.
        """
        fields = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "config"
        }
        fields["config_digest"] = config_digest(self.config)
        payload = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @property
    def filename(self) -> str:
        """Human-greppable store filename for this campaign."""
        slug = "".join(c if c.isalnum() else "_" for c in self.benchmark)
        heap = "-heap" if self.randomize_heap else ""
        return f"{slug}{heap}-{self.digest()}.json"

    @property
    def provenance(self) -> CampaignProvenance:
        """The provenance block persisted alongside this campaign."""
        return CampaignProvenance(
            trace_events=self.trace_events,
            runs_per_group=self.runs_per_group,
            machine_seed=self.machine_seed,
            randomize_heap=self.randomize_heap,
        )


@dataclass
class StoreStats:
    """Hit/miss and layout counters for one store instance.

    Counters are mutated through the ``record_*`` methods only, each a
    single critical section under an internal lock: the serving layer
    (:mod:`repro.serve`) drives one store from several executor threads
    at once, and unguarded ``+=`` read-modify-writes would lose counts
    (the draft defect ASYNC003 was built to catch).  The plain integer
    attributes remain readable for tests and summaries; readers wanting
    a consistent multi-counter view take :meth:`snapshot`.
    """

    hits: int = 0
    misses: int = 0
    layouts_loaded: int = 0
    layouts_measured: int = 0
    quarantined: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record_hit(self, layouts: int) -> None:
        """A campaign served entirely from the store."""
        with self._lock:
            self.hits += 1
            self.layouts_loaded += layouts

    def record_miss(self, loaded: int, measured: int) -> None:
        """A campaign that needed measurement (partial reuse counted)."""
        with self._lock:
            self.misses += 1
            self.layouts_loaded += loaded
            self.layouts_measured += measured

    def record_quarantine(self) -> None:
        """A corrupt store file was moved aside."""
        with self._lock:
            self.quarantined += 1

    def snapshot(self) -> dict:
        """A consistent point-in-time view of every counter."""
        with self._lock:
            requests = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "layouts_loaded": self.layouts_loaded,
                "layouts_measured": self.layouts_measured,
                "quarantined": self.quarantined,
                "hit_rate": self.hits / requests if requests else 0.0,
            }

    def summary(self) -> str:
        """One-line rendering for CLI summaries."""
        view = self.snapshot()
        quarantine = (
            f", {view['quarantined']} quarantined"
            if view["quarantined"]
            else ""
        )
        return (
            f"{view['hits']} hits, {view['misses']} misses{quarantine}; "
            f"{view['layouts_loaded']} layouts loaded, "
            f"{view['layouts_measured']} measured"
        )


class CampaignStore:
    """A directory of persisted campaigns, consulted before measuring."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ConfigurationError(
                f"campaign store root {self.root} exists and is not a directory"
            ) from exc
        self.stats = StoreStats()

    def path_for(self, key: CampaignKey) -> Path:
        """Store file of one campaign."""
        return self.root / key.filename

    def quarantine(self, path: Path, reason: str) -> Path | None:
        """Move a corrupt store file aside so it can never poison a run.

        The file is renamed to ``<name>.corrupt-<digest>`` (deleted if
        even the rename fails) and a warning logged; the caller then
        treats the campaign as a miss and re-measures.  Returns the
        quarantine path, or ``None`` if the file could only be removed.
        """
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()[:8]
        except OSError:
            digest = "unreadable"
        target = path.with_name(f"{path.name}.corrupt-{digest}")
        try:
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return None
            target = None
        self.stats.record_quarantine()
        _LOG.warning(
            "quarantined corrupt campaign file %s -> %s (%s); "
            "the campaign will be re-measured",
            path,
            target if target is not None else "<deleted>",
            reason,
        )
        return target

    def load(self, key: CampaignKey) -> ObservationSet | None:
        """The stored campaign for *key*, or ``None`` if absent.

        An unreadable, truncated, or checksum-failing file is
        *quarantined* and treated as a miss — corruption costs a
        re-measurement, never a crash or a poisoned result.  The
        persisted provenance is checked against the key; a mismatch
        (a file placed or edited by hand) raises rather than silently
        mixing observation sets measured under different protocols.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            observations, provenance = load_campaign(path)
        except CorruptCampaignError as exc:
            self.quarantine(path, reason=str(exc))
            return None
        if observations.benchmark != key.benchmark:
            raise ReproError(
                f"{path}: stored campaign is for {observations.benchmark!r}, "
                f"expected {key.benchmark!r}"
            )
        if provenance is not None and provenance != key.provenance:
            raise ReproError(
                f"{path}: stored provenance {provenance} does not match the "
                f"requested campaign {key.provenance}; refusing to mix protocols"
            )
        return observations

    def save(self, key: CampaignKey, observations: ObservationSet) -> Path:
        """Persist a campaign atomically.

        The payload is written to a temp file in the store directory,
        fsynced, and renamed over the target with ``os.replace`` — a
        killed process leaves either the previous file or the complete
        new one, never a torn write.  (An injected
        :class:`~repro.faults.FaultPlan` may still deliver a truncated
        payload, exercising the checksum + quarantine recovery path.)
        """
        if observations.benchmark != key.benchmark:
            raise ConfigurationError(
                f"observation set is for {observations.benchmark!r}, "
                f"key is for {key.benchmark!r}"
            )
        path = self.path_for(key)
        payload = dump_campaign(observations, provenance=key.provenance)
        plan = faults.active_plan()
        if plan is not None:
            payload = plan.torn_payload(
                payload, key=key.filename, benchmark=key.benchmark
            )
        write_atomic(path, payload)
        return path

    def load_prefix(self, key: CampaignKey, n_layouts: int) -> ObservationSet:
        """The stored first *n_layouts* observations of a campaign.

        A stored campaign at least that long serves the request in full
        and is counted as a *hit*.  Otherwise the (possibly empty)
        stored prefix is returned uncounted: the caller measures only
        the missing suffix, saves the union, and records the *miss*
        with :meth:`StoreStats.record_miss` — partial reuse still
        avoids re-measuring the prefix.
        """
        if n_layouts <= 0:
            raise ConfigurationError(
                f"n_layouts must be positive, got {n_layouts}"
            )
        stored = self.load(key)
        prefix = ObservationSet(benchmark=key.benchmark)
        if stored is not None:
            prefix.extend(stored.observations[:n_layouts])
        if len(prefix) == n_layouts:
            self.stats.record_hit(n_layouts)
        return prefix
