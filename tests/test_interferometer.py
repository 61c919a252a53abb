"""Tests for the interferometer and observation sets."""

from __future__ import annotations

import pytest

from repro.core.interferometer import Interferometer, heap_seed, layout_seed
from repro.core.observations import Observation, ObservationSet
from repro.errors import ConfigurationError, ModelError


@pytest.fixture(scope="module")
def interferometer(machine):
    return Interferometer(machine, trace_events=2000)


@pytest.fixture(scope="module")
def observations(interferometer, perlbench):
    return interferometer.observe(perlbench, n_layouts=6)


class TestSeeds:
    def test_layout_seed_deterministic(self):
        assert layout_seed("x", 3) == layout_seed("x", 3)

    def test_layout_seeds_distinct(self):
        seeds = {layout_seed("400.perlbench", i) for i in range(200)}
        assert len(seeds) == 200

    def test_layout_seeds_differ_per_benchmark(self):
        assert layout_seed("a", 0) != layout_seed("b", 0)

    def test_heap_seed_differs_from_layout_seed(self):
        assert heap_seed("a", 0) != layout_seed("a", 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            layout_seed("a", -1)


class TestObserve:
    def test_observation_count(self, observations):
        assert len(observations) == 6

    def test_layout_indices_sequential(self, observations):
        assert [obs.layout_index for obs in observations] == list(range(6))

    def test_metrics_accessible(self, observations):
        assert observations.cpis.shape == (6,)
        assert observations.mpkis.shape == (6,)
        assert (observations.series("l2_mpki") >= 0).all()

    def test_unknown_metric(self, observations):
        with pytest.raises(ModelError):
            observations.series("nope")

    def test_mean(self, observations):
        assert observations.mean("cpi") == pytest.approx(float(observations.cpis.mean()))

    def test_empty_series_rejected(self):
        with pytest.raises(ModelError):
            ObservationSet(benchmark="x").series("cpi")

    def test_extend_continues_indices(self, interferometer, perlbench, observations):
        extended = ObservationSet(benchmark=perlbench.name)
        extended.extend(observations.observations)
        more = interferometer.observe(
            perlbench, n_layouts=2, start_index=len(extended)
        )
        extended.extend(more.observations)
        assert len(extended) == 8
        assert extended.observations[-1].layout_index == 7

    def test_same_layout_same_measurement(self, interferometer, perlbench):
        a = interferometer.observe_one(perlbench, 0)
        b = interferometer.observe_one(perlbench, 0)
        assert a.measurement.counters == b.measurement.counters

    def test_cpis_vary_across_layouts(self, observations):
        assert observations.cpis.std() > 0.0

    def test_heap_seeds_absent_by_default(self, observations):
        assert all(obs.heap_seed is None for obs in observations)

    def test_bad_layout_count(self, interferometer, perlbench):
        with pytest.raises(ConfigurationError):
            interferometer.observe(perlbench, n_layouts=0)


class TestHeapMode:
    def test_heap_seeds_assigned(self, machine, perlbench):
        interferometer = Interferometer(
            machine, trace_events=2000, randomize_heap=True
        )
        obs = interferometer.observe(perlbench, n_layouts=3)
        assert all(o.heap_seed is not None for o in obs)
        assert len({o.heap_seed for o in obs}) == 3


class TestCorePinning:
    def test_core_stable_per_benchmark(self, interferometer):
        assert interferometer.core_for("403.gcc") == interferometer.core_for("403.gcc")

    def test_core_in_range(self, interferometer, machine):
        for name in ("a", "b", "c", "d"):
            assert 0 <= interferometer.core_for(name) < machine.n_cores
