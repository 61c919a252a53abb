"""Tests for the disk-backed campaign store and the parallel Laboratory."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import faults
from repro.errors import ConfigurationError, ReproError
from repro.harness.lab import SCALES, Laboratory, Scale
from repro.machine.config import TimingParameters, XeonE5440Config
from repro.store import CampaignKey, CampaignStore, dump_campaign

from tests.test_model import _synthetic_observations

#: A deliberately tiny scale so every store test measures only a handful
#: of layouts.
TINY = Scale(
    name="tiny",
    n_layouts=4,
    trace_events=2500,
    mase_trace_events=2000,
    mase_configs=5,
    ltage_layouts=4,
)


def _key(
    benchmark="456.hmmer", trace_events=2500, seed=7, heap=False, runs=5,
    config=None,
):
    return CampaignKey(
        benchmark=benchmark,
        trace_events=trace_events,
        runs_per_group=runs,
        machine_seed=seed,
        config=XeonE5440Config() if config is None else config,
        randomize_heap=heap,
    )


class TestCampaignKey:
    def test_digest_stable(self):
        assert _key().digest() == _key().digest()

    def test_digest_varies_with_every_component(self):
        base = _key().digest()
        assert _key(benchmark="470.lbm").digest() != base
        assert _key(trace_events=6000).digest() != base
        assert _key(seed=8).digest() != base
        assert _key(heap=True).digest() != base
        assert _key(runs=3).digest() != base
        slower = XeonE5440Config(timing=TimingParameters(mispredict_penalty=20.0))
        assert _key(config=slower).digest() != base

    def test_filenames_are_pinned(self):
        """Store files keep their names: a refactor of the key that
        changed these would orphan every campaign already on disk."""
        assert _key().filename == "456_hmmer-efb40cbd7a44347d.json"
        lab = Laboratory(scale=SCALES["ci"])
        assert (
            lab.campaign_key("456.hmmer", heap=False).filename
            == "456_hmmer-a19978364110730d.json"
        )
        assert (
            lab.campaign_key("456.hmmer", heap=True).filename
            == "456_hmmer-heap-ba5c5baa55614ebb.json"
        )

    def test_file_bytes_are_pinned(self, tmp_path):
        """Store files keep their bytes: a campaign stored by an earlier
        version of the code is read and served, never re-measured."""

        def sha(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()

        envelope = dump_campaign(
            _key(), _synthetic_observations(n=4, benchmark="456.hmmer")
        )
        assert sha(envelope.encode()) == (
            "3a88ac9799351c4f16d6684e7a3d2ad277d4b30b61fbaa6a53b91b6657f15201"
        )
        with faults.injected(None):
            lab = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
            lab.observations("456.hmmer")
            lab.heap_observations("456.hmmer")
        files = sorted(tmp_path.iterdir())
        assert {p.name: sha(p.read_bytes()) for p in files} == {
            "456_hmmer-efb40cbd7a44347d.json": (
                "e5894f1a97f4907eb5e4d36996c1833a9a4224bf61689dadc4600bdc87d5e176"
            ),
            "456_hmmer-heap-95163b129f830886.json": (
                "3f655dc428946c22e4638bb9695d3e92dff481516185b3fc45c5485b44737e5c"
            ),
        }

    def test_file_is_sorted_indented_json(self):
        """A campaign file is ``json.dumps(..., indent=1, sort_keys=True)``
        of its own content, whatever the number of records."""
        for n in (0, 1, 5):
            envelope = dump_campaign(
                _key(), _synthetic_observations(n=n, benchmark="456.hmmer")
            )
            content = json.loads(envelope)
            assert len(content["observations"]) == n
            assert envelope == json.dumps(content, indent=1, sort_keys=True)

    def test_campaign_key_fields(self):
        lab = Laboratory(scale=TINY, machine_seed=7)
        key = lab.campaign_key("456.hmmer", heap=False)
        assert key.benchmark == "456.hmmer"
        assert key.trace_events == TINY.trace_events
        assert key.runs_per_group == lab.interferometer.runs_per_group
        assert key.machine_seed == 7
        assert key.config == lab.machine.config
        assert not key.randomize_heap
        assert lab.campaign_key("456.hmmer", heap=True).randomize_heap

    def test_filename_mentions_benchmark_and_heap(self):
        assert "456_hmmer" in _key().filename
        assert "-heap-" in _key(heap=True).filename


class TestStoreRoundTrip:
    def test_synthetic_round_trip_bit_equal(self, tmp_path):
        original = _synthetic_observations(n=12, benchmark="456.hmmer")
        store = CampaignStore(tmp_path)
        key = _key()
        store.save(key, original)
        reloaded = CampaignStore(tmp_path).load(key)
        assert reloaded is not None
        assert (reloaded.cpis == original.cpis).all()
        assert (reloaded.mpkis == original.mpkis).all()
        assert (reloaded.series("l2_mpki") == original.series("l2_mpki")).all()

    def test_prefix_is_a_hit_once_stored(self, tmp_path):
        store = CampaignStore(tmp_path)
        assert len(store.load_prefix(_key(), 6)) == 0
        assert store.stats.hits == 0  # the caller measures and counts a miss
        original = _synthetic_observations(n=6, benchmark="456.hmmer")
        store.save(_key(), original)

        second = CampaignStore(tmp_path)
        again = second.load_prefix(_key(), 6)
        assert second.stats.hits == 1
        assert second.stats.layouts_loaded == 6
        assert second.stats.layouts_measured == 0
        assert (original.cpis == again.cpis).all()

    def test_partial_campaign_extends_incrementally(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.save(_key(), _synthetic_observations(n=4, benchmark="456.hmmer"))
        prefix = store.load_prefix(_key(), 10)
        # A short prefix is not a hit: only the missing suffix is measured.
        assert [o.layout_index for o in prefix] == [0, 1, 2, 3]
        assert store.stats.hits == 0
        store.save(_key(), _synthetic_observations(n=10, benchmark="456.hmmer"))
        # the extension was persisted: a third request is a pure hit
        third = CampaignStore(tmp_path)
        assert len(third.load_prefix(_key(), 10)) == 10
        assert third.stats.hits == 1

    def test_benchmark_mismatch_rejected(self, tmp_path):
        store = CampaignStore(tmp_path)
        with pytest.raises(ConfigurationError):
            store.save(_key(), _synthetic_observations(n=4, benchmark="other"))

    def test_provenance_mismatch_rejected(self, tmp_path):
        store = CampaignStore(tmp_path)
        key = _key()
        store.save(key, _synthetic_observations(n=4, benchmark="456.hmmer"))
        # Forge a key with the same digest-addressed file but different
        # provenance by renaming the stored file.
        other = _key(seed=8)
        store.path_for(key).rename(store.path_for(other))
        with pytest.raises(ReproError, match="provenance"):
            store.load(other)

    def test_bad_n_layouts(self, tmp_path):
        store = CampaignStore(tmp_path)
        with pytest.raises(ConfigurationError):
            store.load_prefix(_key(), 0)


class TestCacheInvalidation:
    def test_changed_scale_misses(self, tmp_path):
        lab_a = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        lab_a.observations("456.hmmer")
        assert lab_a.store.stats.misses == 1

        other_scale = Scale(
            name="tiny6k", n_layouts=4, trace_events=6000,
            mase_trace_events=2000, mase_configs=5, ltage_layouts=4,
        )
        lab_b = Laboratory(scale=other_scale, machine_seed=7, cache_dir=tmp_path)
        lab_b.observations("456.hmmer")
        assert lab_b.store.stats.hits == 0
        assert lab_b.store.stats.misses == 1

    def test_changed_machine_seed_misses(self, tmp_path):
        Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path).observations(
            "456.hmmer"
        )
        lab = Laboratory(scale=TINY, machine_seed=8, cache_dir=tmp_path)
        lab.observations("456.hmmer")
        assert lab.store.stats.hits == 0
        assert lab.store.stats.misses == 1

    def test_heap_flag_separates_campaigns(self, tmp_path):
        lab = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        code = lab.observations("456.hmmer")
        heap = lab.heap_observations("456.hmmer")
        assert lab.store.stats.misses == 2
        assert not (code.cpis == heap.cpis).all()


class TestLaboratoryStore:
    def test_second_lab_measures_nothing_and_is_bit_equal(self, tmp_path):
        lab1 = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        a = lab1.observations("456.hmmer")
        assert lab1.store.stats.layouts_measured == TINY.n_layouts

        lab2 = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        b = lab2.observations("456.hmmer")
        assert lab2.store.stats.layouts_measured == 0
        assert lab2.store.stats.hits == 1
        assert (a.cpis == b.cpis).all()
        assert (a.mpkis == b.mpkis).all()
        for x, y in zip(a, b):
            assert x.layout_index == y.layout_index
            assert x.layout_seed == y.layout_seed

    def test_campaign_log_records_source(self, tmp_path):
        lab1 = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        lab1.observations("456.hmmer")
        assert lab1.campaign_log[-1].source == "measured"
        assert lab1.campaign_log[-1].layouts_per_second > 0

        lab2 = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        lab2.observations("456.hmmer")
        assert lab2.campaign_log[-1].source == "cache"
        assert lab2.campaign_log[-1].measured == 0

    def test_store_survives_cache_larger_than_requested(self, tmp_path):
        big = Scale(
            name="tiny8", n_layouts=8, trace_events=2500,
            mase_trace_events=2000, mase_configs=5, ltage_layouts=4,
        )
        Laboratory(scale=big, machine_seed=7, cache_dir=tmp_path).observations(
            "456.hmmer"
        )
        small_lab = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        obs = small_lab.observations("456.hmmer")
        assert len(obs) == TINY.n_layouts
        assert small_lab.store.stats.hits == 1
        assert small_lab.store.stats.layouts_measured == 0


class TestParallelLaboratory:
    def test_workers_bit_identical_to_serial(self):
        serial = Laboratory(scale=TINY, machine_seed=7)
        parallel = Laboratory(scale=TINY, machine_seed=7, workers=2)
        names = ["456.hmmer", "445.gobmk"]
        parallel.prefetch(names)
        for name in names:
            a = serial.observations(name)
            b = parallel.observations(name)
            assert (a.cpis == b.cpis).all()
            assert (a.mpkis == b.mpkis).all()
            assert [o.layout_seed for o in a] == [o.layout_seed for o in b]

    def test_prefetch_serial_path_populates_cache(self):
        lab = Laboratory(scale=TINY, machine_seed=7)
        lab.prefetch(["456.hmmer"])
        assert "456.hmmer" in lab._observations

    def test_prefetch_resumes_partial_store(self, tmp_path):
        store_lab = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        key = store_lab.campaign_key("456.hmmer", heap=False)
        # persist only a 2-layout prefix
        prefix = store_lab.interferometer.observe(
            store_lab.benchmark("456.hmmer"), n_layouts=2
        )
        store_lab.store.save(key, prefix)

        lab = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path, workers=2)
        lab.prefetch(["456.hmmer"])
        obs = lab.observations("456.hmmer")
        assert len(obs) == TINY.n_layouts
        assert lab.store.stats.layouts_measured == TINY.n_layouts - 2
        serial = Laboratory(scale=TINY, machine_seed=7)
        assert (serial.observations("456.hmmer").cpis == obs.cpis).all()

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            Laboratory(scale=TINY, machine_seed=7, workers=-1)


class TestEscalationWithStore:
    """Exact store contents and counts, so intact writes only (torn
    ones: tests/test_escalation.py)."""

    @pytest.fixture(autouse=True)
    def _intact_writes(self):
        with faults.injected(None):
            yield

    def test_escalation_resumes_from_store(self, tmp_path):
        first = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        stored = first.escalate(["445.gobmk", "429.mcf"])

        second = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        resumed = second.escalate(["445.gobmk", "429.mcf"])
        assert second.store.stats.layouts_measured == 0  # nothing re-measured
        for name, result in stored.items():
            assert resumed[name].p_values == result.p_values
            assert (resumed[name].observations.cpis == result.observations.cpis).all()

    def test_escalation_persists_incrementally(self, tmp_path):
        lab = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        result = lab.escalate(["433.milc"])["433.milc"]  # exhausts the budget
        key = lab.campaign_key("433.milc", heap=False)
        stored = CampaignStore(tmp_path).load(key)
        assert stored is not None
        assert len(stored) == result.samples_used == 3 * TINY.n_layouts
        # One save per round, each extending the last.
        assert [(r.n_layouts, r.measured) for r in lab.campaign_log] == [
            (4, 4), (8, 4), (12, 4),
        ]

    def test_shorter_requests_never_shorten_the_store(self, tmp_path):
        Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path).escalate(
            ["433.milc"]
        )
        lab = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
        lab.prefetch(["433.milc"])
        assert len(lab.observations("433.milc")) == TINY.n_layouts
        key = lab.campaign_key("433.milc", heap=False)
        assert len(CampaignStore(tmp_path).load(key)) == 3 * TINY.n_layouts

    def test_escalation_store_accounting(self, tmp_path):
        """Each round follows the campaign path's rule: a round that
        measures is one miss (its stored prefix counted as loaded), a
        round served entirely from the store is a hit."""

        def stats_after(run):
            lab = Laboratory(scale=TINY, machine_seed=7, cache_dir=tmp_path)
            run(lab)
            stats = lab.store.stats
            return (
                stats.hits, stats.misses,
                stats.layouts_loaded, stats.layouts_measured,
            )

        # 429.mcf at TINY is significant only at 12 layouts (round 3).
        assert stats_after(lambda lab: lab.observations("429.mcf")) == (0, 1, 0, 4)

        def escalate(lab):
            lab.escalate(["429.mcf"])

        assert stats_after(escalate) == (1, 2, 16, 8)  # extends the stored prefix
        assert stats_after(escalate) == (3, 0, 24, 0)  # every round from store


class TestStoreStatsThreadSafety:
    """The serving layer mutates one store's stats from executor threads
    while the event loop reads them; every increment must survive."""

    def test_concurrent_recording_loses_no_counts(self):
        import threading

        from repro.store import StoreStats

        stats = StoreStats()
        workers, rounds = 8, 500
        barrier = threading.Barrier(workers)

        def hammer() -> None:
            barrier.wait()
            for _ in range(rounds):
                stats.record_hit(layouts=2)
                stats.record_miss(loaded=1, measured=3)
                stats.record_quarantine()

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = workers * rounds
        assert stats.hits == total
        assert stats.misses == total
        assert stats.quarantined == total
        assert stats.layouts_loaded == 3 * total
        assert stats.layouts_measured == 3 * total

    def test_snapshot_is_consistent_under_concurrent_writes(self):
        import threading

        from repro.store import StoreStats

        stats = StoreStats()
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                stats.record_hit(layouts=1)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                view = stats.snapshot()
                # hits and layouts_loaded move in lockstep inside one
                # critical section; a snapshot may never observe a gap.
                assert view["hits"] == view["layouts_loaded"]
        finally:
            stop.set()
            thread.join()
