"""Tests for the disk-backed campaign store and the parallel Laboratory."""

from __future__ import annotations

import pytest

from repro.core.interferometer import Interferometer
from repro.core.escalation import SampleEscalation
from repro.errors import ConfigurationError, ReproError
from repro.harness.lab import Laboratory, Scale
from repro.machine.system import XeonE5440
from repro.store import CampaignKey, CampaignStore, config_digest
from repro.workloads.suite import get_benchmark

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


def _key(benchmark="456.hmmer", trace_events=2500, seed=7, heap=False, runs=5):
    machine = XeonE5440(seed=seed)
    return CampaignKey(
        benchmark=benchmark,
        trace_events=trace_events,
        runs_per_group=runs,
        machine_seed=seed,
        config_digest=config_digest(machine.config),
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

    def test_for_interferometer(self, machine):
        interferometer = Interferometer(machine, trace_events=2500)
        key = CampaignKey.for_interferometer(interferometer, "456.hmmer")
        assert key.benchmark == "456.hmmer"
        assert key.trace_events == 2500
        assert key.machine_seed == machine.seed
        assert not key.randomize_heap

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
        key = store_lab._campaign_key("456.hmmer", heap=False)
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
    def test_escalation_resumes_from_store(self, tmp_path, machine, monkeypatch):
        interferometer = Interferometer(machine, trace_events=2500)
        benchmark = get_benchmark("445.gobmk")

        store = CampaignStore(tmp_path)
        first = SampleEscalation(
            interferometer, batch=6, max_samples=12, store=store
        ).run(benchmark)
        assert len(first.observations) >= 6

        measured = []
        original = Interferometer.observe_one

        def counting(self, bench, index):
            measured.append(index)
            return original(self, bench, index)

        monkeypatch.setattr(Interferometer, "observe_one", counting)
        second = SampleEscalation(
            interferometer, batch=6, max_samples=12, store=CampaignStore(tmp_path)
        ).run(benchmark)
        assert measured == []  # cached campaign re-used, nothing re-measured
        assert second.significant == first.significant
        assert (
            second.observations.cpis[: len(first.observations)]
            == first.observations.cpis
        ).all()

    def test_escalation_persists_incrementally(self, tmp_path, machine):
        interferometer = Interferometer(machine, trace_events=2500)
        benchmark = get_benchmark("470.lbm")  # insensitive: exhausts budget
        store = CampaignStore(tmp_path)
        result = SampleEscalation(
            interferometer, batch=4, max_samples=8, store=store
        ).run(benchmark)
        key = CampaignKey.for_interferometer(interferometer, benchmark.name)
        stored = CampaignStore(tmp_path).load(key)
        assert stored is not None
        assert len(stored) == result.samples_used


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
