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
* campaign file format version.

Because every observation is a pure function of that key plus the
layout index, a stored campaign with *n* layouts serves any request for
``<= n`` layouts bit-identically, and a request for more layouts only
measures (and persists) the missing suffix — so the rounds of §6.3's
escalation (:meth:`repro.harness.lab.Laboratory.escalate`) never
re-measure earlier reorderings.

Layout on disk: one JSON file per campaign under the store root,
``<benchmark>[-heap]-<key digest>.json``.  This module owns the file
format: :func:`dump_campaign` is the one serializer (the store's
:meth:`CampaignStore.save` and the server's responses both use it) and
:meth:`CampaignStore.load` the one reader.  A file is a JSON envelope
(sorted keys, ``indent=1``) holding ``format_version`` 2, the
benchmark, a provenance block of four key fields, a checksum of the
observation records, and the records themselves.  Anything else —
another version, a missing checksum or provenance block — is corrupt:
it is quarantined and the campaign re-measured.
"""

from __future__ import annotations

import csv
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
from repro.core.observations import METRICS, Observation, ObservationSet
from repro.errors import ConfigurationError, CorruptCampaignError, ReproError
from repro.machine.counters import Counter
from repro.machine.pmc import Measurement

_LOG = logging.getLogger(__name__)

#: The campaign file format.  It is part of every key's digest, so the
#: store never addresses a file of another version.
_FORMAT_VERSION = 2

#: The key fields a file's provenance block records, each with the type
#: it is read back as.  A stored block must equal the key's.
_PROVENANCE_FIELDS = (
    ("trace_events", int),
    ("runs_per_group", int),
    ("machine_seed", int),
    ("randomize_heap", bool),
)

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
    def provenance(self) -> dict:
        """The provenance block a campaign file of this key records."""
        return {name: getattr(self, name) for name, _ in _PROVENANCE_FIELDS}


def _records_checksum(records: list[dict]) -> str:
    """Content digest of the observation records (the envelope payload).

    Guards against silent in-place corruption of a stored campaign —
    bit flips or hand edits that still parse as JSON are detected on
    load and the file quarantined instead of poisoning a run.
    """
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def dump_campaign(key: CampaignKey, observations: ObservationSet) -> str:
    """The campaign file of *observations* measured under *key*.

    The one serializer: :meth:`CampaignStore.save` writes these bytes
    and the campaign server (:mod:`repro.serve`) sends them.
    """
    if observations.benchmark != key.benchmark:
        raise ConfigurationError(
            f"observation set is for {observations.benchmark!r}, "
            f"key is for {key.benchmark!r}"
        )
    records = [
        {
            "layout_index": obs.layout_index,
            "layout_seed": obs.layout_seed,
            "heap_seed": obs.heap_seed,
            "fingerprint": obs.measurement.executable_fingerprint,
            "counters": {
                event.value: count
                for event, count in obs.measurement.counters.items()
            },
        }
        for obs in observations
    ]
    payload = {
        "format_version": _FORMAT_VERSION,
        "benchmark": key.benchmark,
        "provenance": key.provenance,
        "checksum": _records_checksum(records),
        "observations": records,
    }
    # sort_keys keeps the envelope byte-stable regardless of the order
    # this dict (or a future caller's) was constructed in (DET006).
    return json.dumps(payload, indent=1, sort_keys=True)


def _read_campaign(path: Path) -> tuple[ObservationSet, dict]:
    """Parse one campaign file into its observations and provenance.

    Raises :class:`~repro.errors.CorruptCampaignError` for anything but
    an intact file of the current format: unreadable or truncated
    bytes, another format version, a missing or malformed provenance
    block, a missing or failing checksum, malformed records.
    """
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptCampaignError(
            f"cannot read observation set from {path}: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise CorruptCampaignError(
            f"{path}: expected a JSON object envelope, got {type(payload).__name__}"
        )
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise CorruptCampaignError(
            f"{path}: format version {version!r}, expected {_FORMAT_VERSION}"
        )
    try:
        provenance = {
            name: cast(payload["provenance"][name])
            for name, cast in _PROVENANCE_FIELDS
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCampaignError(
            f"{path}: missing or malformed provenance block: {exc}"
        ) from exc
    try:
        records = payload["observations"]
        stored_checksum = payload.get("checksum")
        actual = _records_checksum(records)
        if actual != stored_checksum:
            raise CorruptCampaignError(
                f"{path}: payload checksum mismatch (stored "
                f"{stored_checksum}, computed {actual}); file is corrupt"
            )
        observations = ObservationSet(benchmark=payload["benchmark"])
        for record in records:
            layout_seed = int(record["layout_seed"])
            heap_seed = (
                None if record["heap_seed"] is None else int(record["heap_seed"])
            )
            observations.append(
                Observation(
                    layout_index=int(record["layout_index"]),
                    layout_seed=layout_seed,
                    heap_seed=heap_seed,
                    measurement=Measurement(
                        executable_fingerprint=record["fingerprint"],
                        layout_seed=layout_seed,
                        heap_seed=heap_seed,
                        counters={
                            Counter(name): int(count)
                            for name, count in record["counters"].items()
                        },
                    ),
                )
            )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CorruptCampaignError(
            f"{path}: malformed observation records: {exc}"
        ) from exc
    return observations, provenance


def write_atomic(path: str | Path, text: str) -> None:
    """Write *text* durably: temp file in the same directory + rename.

    A process killed mid-write can never leave a half-written file at
    *path* — either the old content survives or the new content is
    complete.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def export_observations_csv(observations: ObservationSet, path: str | Path) -> None:
    """Write one row per layout with every derived metric (for plotting)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["benchmark", "layout_index", "layout_seed", "heap_seed"]
                        + list(METRICS))
        for obs in observations:
            writer.writerow(
                [observations.benchmark, obs.layout_index, obs.layout_seed,
                 obs.heap_seed]
                + [obs.metric(metric) for metric in METRICS]
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

        The one reader of campaign files.  A corrupt file (see
        :func:`_read_campaign`) is *quarantined* and treated as a miss —
        corruption costs a re-measurement, never a crash or a poisoned
        result.  The stored provenance block is checked against the
        key's; a mismatch (a file placed or edited by hand) raises
        rather than silently mixing observation sets measured under
        different protocols.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            observations, provenance = _read_campaign(path)
        except CorruptCampaignError as exc:
            self.quarantine(path, reason=str(exc))
            return None
        if observations.benchmark != key.benchmark:
            raise ReproError(
                f"{path}: stored campaign is for {observations.benchmark!r}, "
                f"expected {key.benchmark!r}"
            )
        if provenance != key.provenance:
            raise ReproError(
                f"{path}: stored provenance {provenance} does not match the "
                f"requested campaign {key.provenance}; refusing to mix protocols"
            )
        return observations

    def save(self, key: CampaignKey, observations: ObservationSet) -> Path:
        """Persist a campaign atomically; returns the file's path.

        The one writer of campaign files: :func:`dump_campaign`'s bytes
        go to a temp file in the store directory, are fsynced, and
        replace the target with ``os.replace`` — a killed process leaves
        either the previous file or the complete new one, never a torn
        write.  (An injected
        :class:`~repro.faults.FaultPlan` may still deliver a truncated
        payload, exercising the checksum + quarantine recovery path.)
        """
        path = self.path_for(key)
        payload = dump_campaign(key, observations)
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
