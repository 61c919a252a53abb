"""Tests for the campaign suite runner (``repro.core.park``)."""

from __future__ import annotations

import pytest

from repro.core.park import observe_suite
from repro.errors import ConfigurationError

from tests.test_faults import campaign_keys


class TestCampaigns:
    def test_observe_suite_serial(self):
        keys = campaign_keys("456.hmmer", "470.lbm")
        results = observe_suite(keys, 4)
        assert list(results) == keys
        assert all(len(obs) == 4 for obs in results.values())

    def test_parallel_equals_serial(self):
        keys = campaign_keys("456.hmmer", "445.gobmk")
        serial = observe_suite(keys, 3)
        parallel = observe_suite(keys, 3, workers=2)
        for key in serial:
            assert (serial[key].cpis == parallel[key].cpis).all()
            assert (serial[key].mpkis == parallel[key].mpkis).all()

    def test_same_machine_seed_same_measurements(self):
        [a] = campaign_keys("456.hmmer", seed=5)
        [b] = campaign_keys("456.hmmer", seed=5)
        obs_a = observe_suite([a], 3)[a]
        obs_b = observe_suite([b], 3)[b]
        assert (obs_a.cpis == obs_b.cpis).all()

    def test_different_machine_seed_different_noise(self):
        [a] = campaign_keys("456.hmmer", seed=5)
        [b] = campaign_keys("456.hmmer", seed=6)
        obs_a = observe_suite([a], 3)[a]
        obs_b = observe_suite([b], 3)[b]
        assert not (obs_a.cpis == obs_b.cpis).all()

    def test_heap_randomization_propagates(self):
        [key] = campaign_keys("454.calculix", heap=True)
        observations = observe_suite([key], 3)[key]
        assert all(obs.heap_seed is not None for obs in observations)

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            observe_suite(campaign_keys("456.hmmer"), 2, workers=-1)

    def test_duplicate_benchmarks_rejected(self):
        """Duplicates used to be measured twice and silently collapsed
        (last one wins) in the results dict; now they are an error."""
        with pytest.raises(ConfigurationError, match="duplicate"):
            observe_suite(campaign_keys("456.hmmer", "470.lbm", "456.hmmer"), 2)

    def test_start_indices_resume_suffix(self):
        [key] = campaign_keys("456.hmmer")
        full = observe_suite([key], 4)[key]
        suffix = observe_suite([key], 4, start_indices={key: 2})[key]
        assert [o.layout_index for o in suffix] == [2, 3]
        assert (suffix.cpis == full.cpis[2:]).all()

    def test_start_index_out_of_range(self):
        [key] = campaign_keys("456.hmmer")
        with pytest.raises(ConfigurationError):
            observe_suite([key], 4, start_indices={key: 5})


class TestCustomConfig:
    def test_custom_config_reaches_workers(self):
        """A key with a custom machine config is measured with it —
        serially and in worker processes alike."""
        from repro.machine.config import TimingParameters, XeonE5440Config

        free = XeonE5440Config(
            timing=TimingParameters(mispredict_penalty=0.0, coupling_mpki_l1d=0.0)
        )
        [default] = campaign_keys("445.gobmk", seed=5)
        [cheap] = campaign_keys("445.gobmk", seed=5, config=free)
        baseline = observe_suite([default], 2)[default]
        cheap_serial = observe_suite([cheap], 2)[cheap]
        cheap_parallel = observe_suite([cheap], 2, workers=2)[cheap]
        # Zero misprediction penalty lowers CPI...
        assert cheap_serial.cpis.mean() < baseline.cpis.mean()
        # ...and the parallel path uses the same config.
        assert (cheap_parallel.cpis == cheap_serial.cpis).all()
