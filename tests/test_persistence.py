"""The campaign file format: the store's one writer and one reader.

:func:`repro.store.dump_campaign` serializes, :meth:`CampaignStore.save`
writes and :meth:`CampaignStore.load` reads.  Round trips are exact;
the envelope's bytes depend on content only; anything but an intact
format-2 file with checksum and provenance is a quarantined miss.
"""

from __future__ import annotations

import csv
import json

import pytest

from repro import faults
from repro.store import CampaignStore, dump_campaign, export_observations_csv

from tests.test_model import _synthetic_observations
from tests.test_store import _key


@pytest.fixture(autouse=True)
def _intact_writes():
    """Exact file contents, so intact writes only (torn ones:
    tests/test_faults.py)."""
    with faults.injected(None):
        yield


def _saved(tmp_path, n):
    """A store holding one synthetic campaign of *n* layouts under ``_key()``."""
    store = CampaignStore(tmp_path)
    observations = _synthetic_observations(n=n, benchmark="456.hmmer")
    store.save(_key(), observations)
    return store, observations


def _rewrite(store, edit):
    """Apply *edit* to the stored envelope of ``_key()`` and write it back."""
    path = store.path_for(_key())
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, sort_keys=True))


def _assert_quarantined_miss(store):
    assert store.load(_key()) is None
    assert store.stats.quarantined == 1
    assert not store.path_for(_key()).exists()


class TestObservationRoundTrip:
    def test_json_round_trip_exact(self, tmp_path):
        _, original = _saved(tmp_path, n=20)
        reloaded = CampaignStore(tmp_path).load(_key())
        assert reloaded.benchmark == original.benchmark
        assert len(reloaded) == len(original)
        assert (reloaded.cpis == original.cpis).all()
        assert (reloaded.mpkis == original.mpkis).all()
        assert (reloaded.series("l2_mpki") == original.series("l2_mpki")).all()

    def test_layout_metadata_preserved(self, tmp_path):
        store, original = _saved(tmp_path, n=5)
        for a, b in zip(original, store.load(_key())):
            assert a.layout_index == b.layout_index
            assert a.layout_seed == b.layout_seed
            assert a.heap_seed == b.heap_seed

    def test_missing_file(self, tmp_path):
        store = CampaignStore(tmp_path)
        assert store.load(_key()) is None
        assert store.stats.quarantined == 0

    def test_corrupt_file(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.path_for(_key()).write_text("{not json")
        _assert_quarantined_miss(store)

    def test_wrong_version(self, tmp_path):
        store, _ = _saved(tmp_path, n=4)
        _rewrite(store, lambda payload: payload.update(format_version=99))
        _assert_quarantined_miss(store)


class TestByteStability:
    """DET006: serialized bytes depend on content, not dict history."""

    def test_envelope_bytes_stable_across_key_order(self, tmp_path):
        store, observations = _saved(tmp_path, n=6)
        # The loader rebuilds every dict from scratch in its own
        # insertion order, so byte-equality here proves the envelope
        # does not depend on construction order.
        reference = dump_campaign(_key(), observations)
        assert store.path_for(_key()).read_text() == reference
        assert dump_campaign(_key(), store.load(_key())) == reference

    def test_checksum_is_order_independent(self, tmp_path):
        from repro.store import _records_checksum

        store, _ = _saved(tmp_path, n=4)
        path = store.path_for(_key())
        payload = json.loads(path.read_text())
        # Scramble the key order of every record (JSON object order is
        # insertion order in Python dicts) and re-checksum.
        scrambled = [
            dict(sorted(record.items(), reverse=True))
            for record in payload["observations"]
        ]
        assert _records_checksum(scrambled) == payload["checksum"]
        # A scrambled-but-equal file still loads and verifies.
        payload["observations"] = scrambled
        path.write_text(json.dumps(payload))  # repro: allow-DET006 deliberately unsorted to prove the loader accepts any key order
        assert len(store.load(_key())) == 4
        assert store.stats.quarantined == 0

    def test_envelope_keys_are_sorted_on_disk(self, tmp_path):
        store, _ = _saved(tmp_path, n=3)
        payload = json.loads(store.path_for(_key()).read_text())
        assert list(payload) == sorted(payload)


class TestProvenance:
    def test_provenance_round_trip(self, tmp_path):
        store, original = _saved(tmp_path, n=5)
        payload = json.loads(store.path_for(_key()).read_text())
        assert payload["provenance"] == {
            "trace_events": 2500,
            "runs_per_group": 5,
            "machine_seed": 7,
            "randomize_heap": False,
        }
        assert (store.load(_key()).cpis == original.cpis).all()

    def test_format_version_is_2(self, tmp_path):
        store, _ = _saved(tmp_path, n=4)
        payload = json.loads(store.path_for(_key()).read_text())
        assert payload["format_version"] == 2

    def test_missing_provenance_is_quarantined(self, tmp_path):
        store, _ = _saved(tmp_path, n=4)
        _rewrite(store, lambda payload: payload.pop("provenance"))
        _assert_quarantined_miss(store)

    def test_missing_checksum_is_quarantined(self, tmp_path):
        store, _ = _saved(tmp_path, n=4)
        _rewrite(store, lambda payload: payload.pop("checksum"))
        _assert_quarantined_miss(store)

    def test_v1_file_is_quarantined(self, tmp_path):
        """A version-1 file (no provenance) is corrupt, not read."""
        store, _ = _saved(tmp_path, n=5)

        def to_v1(payload):
            payload["format_version"] = 1
            del payload["provenance"]

        _rewrite(store, to_v1)
        _assert_quarantined_miss(store)

    def test_malformed_provenance_rejected(self, tmp_path):
        store, _ = _saved(tmp_path, n=4)
        _rewrite(store, lambda payload: payload["provenance"].pop("machine_seed"))
        _assert_quarantined_miss(store)


class TestCsvExport:
    def test_csv_rows(self, tmp_path):
        observations = _synthetic_observations(n=7)
        path = tmp_path / "obs.csv"
        export_observations_csv(observations, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 8  # header + 7
        header = rows[0]
        assert "cpi" in header
        assert "mpki" in header
        cpi_col = header.index("cpi")
        values = [float(row[cpi_col]) for row in rows[1:]]
        assert values == pytest.approx(list(observations.cpis))
