"""Tests for the reference machine: core model, timing, PMC protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.errors import MeasurementError
from repro.machine.config import NoiseParameters, TimingParameters, XeonE5440Config
from repro.machine.counters import PAPER_EVENTS, Counter
from repro.machine.pmc import CounterGroupPlan, measure_executable
from repro.machine.system import XeonE5440
from repro.machine.timing import (
    core_frequency_offset,
    deterministic_cycles,
    jittered_count,
    noisy_cycles,
)

from tests.conftest import make_tiny_spec


@pytest.fixture(scope="module")
def exe(camino, tiny_spec, tiny_trace):
    return camino.build(tiny_spec, tiny_trace, layout_seed=1)


class TestCoreModel:
    def test_counts_deterministic(self, machine, exe):
        a = machine._oracle_counts(exe)
        b = machine._oracle_counts(exe)
        assert a == b

    def test_counts_plausible(self, machine, exe):
        counts = machine._oracle_counts(exe)
        assert 0 < counts.mispredicts <= counts.branches
        assert counts.instructions > counts.branches
        assert counts.l1i_misses <= counts.l1i_accesses
        assert counts.l1d_misses <= counts.l1d_accesses
        assert counts.l2_misses <= counts.l1i_misses + counts.l1d_misses

    def test_layouts_change_mispredicts(self, machine, camino, tiny_spec, tiny_trace):
        values = {
            machine._oracle_counts(
                camino.build(tiny_spec, tiny_trace, layout_seed=seed)
            ).mispredicts
            for seed in range(8)
        }
        assert len(values) > 1

    def test_instructions_layout_invariant(
        self, machine, camino, tiny_spec, tiny_trace
    ):
        values = {
            machine._oracle_counts(
                camino.build(tiny_spec, tiny_trace, layout_seed=seed)
            ).instructions
            for seed in range(5)
        }
        assert len(values) == 1

    def test_derived_rates(self, machine, exe):
        counts = machine._oracle_counts(exe)
        assert counts.mpki == pytest.approx(
            units.mpki(counts.mispredicts, counts.instructions)
        )
        assert counts.l2_mpki <= counts.l1d_mpki + counts.l1i_mpki + 1e-9


class TestTiming:
    def test_deterministic_cycles_formula(self, machine, exe):
        counts = machine._oracle_counts(exe)
        spec = exe.spec
        timing = TimingParameters()
        cycles = deterministic_cycles(counts, spec, timing)
        floor = counts.instructions * spec.intrinsic_cpi
        assert cycles >= floor
        # Remove branch penalty -> fewer cycles.
        no_branch = TimingParameters(mispredict_penalty=0.0)
        assert deterministic_cycles(counts, spec, no_branch) < cycles

    def test_noise_reproducible(self):
        noise = NoiseParameters()
        a = noisy_cycles(1e6, machine_seed=1, core=0, run_key="k", noise=noise)
        b = noisy_cycles(1e6, machine_seed=1, core=0, run_key="k", noise=noise)
        assert a == b

    def test_noise_varies_by_run_key(self):
        noise = NoiseParameters()
        values = {
            noisy_cycles(1e6, machine_seed=1, core=0, run_key=f"k{i}", noise=noise)
            for i in range(10)
        }
        assert len(values) == 10

    def test_noise_small(self):
        noise = NoiseParameters()
        for i in range(20):
            value = noisy_cycles(1e6, 1, 0, f"r{i}", noise)
            assert abs(value - 1e6) / 1e6 < 0.05

    def test_core_offsets_differ(self):
        noise = NoiseParameters()
        offsets = {core_frequency_offset(1, core, noise) for core in range(8)}
        assert len(offsets) == 8

    def test_jittered_count_near_value(self):
        noise = NoiseParameters()
        for i in range(20):
            value = jittered_count(10_000, 1, f"r{i}", "EV", noise)
            assert abs(value - 10_000) <= 100

    def test_jitter_zero_passthrough(self):
        noise = NoiseParameters(counter_jitter=0.0)
        assert jittered_count(1234, 1, "k", "EV", noise) == 1234


class TestRunOnce:
    def test_fixed_counters_always_present(self, machine, exe):
        reading = machine.run_once(exe)
        assert Counter.CYCLES in reading
        assert Counter.INSTRUCTIONS in reading

    def test_two_programmable_events(self, machine, exe):
        reading = machine.run_once(
            exe, [Counter.BRANCH_MISPREDICTS, Counter.L2_MISSES]
        )
        assert Counter.BRANCH_MISPREDICTS in reading
        assert Counter.L2_MISSES in reading

    def test_three_programmable_rejected(self, machine, exe):
        with pytest.raises(MeasurementError):
            machine.run_once(
                exe,
                [Counter.BRANCH_MISPREDICTS, Counter.L2_MISSES, Counter.L1I_MISSES],
            )

    def test_fixed_events_do_not_consume_slots(self, machine, exe):
        reading = machine.run_once(
            exe,
            [Counter.CYCLES, Counter.INSTRUCTIONS, Counter.BRANCH_MISPREDICTS,
             Counter.L2_MISSES],
        )
        assert Counter.BRANCH_MISPREDICTS in reading

    def test_invalid_core(self, machine, exe):
        with pytest.raises(MeasurementError):
            machine.run_once(exe, core=99)

    def test_counter_matches_oracle(self, machine, exe):
        counts = machine._oracle_counts(exe)
        reading = machine.run_once(exe, [Counter.BRANCHES])
        # BRANCHES has jitter disabled? No - jitter applies; allow 1%.
        assert reading[Counter.BRANCHES] == pytest.approx(counts.branches, rel=0.01)

    def test_instructions_exact(self, machine, exe):
        counts = machine._oracle_counts(exe)
        assert machine.run_once(exe)[Counter.INSTRUCTIONS] == counts.instructions


class TestCounterGroups:
    def test_plan_packs_pairs(self):
        plan = CounterGroupPlan.for_events(PAPER_EVENTS)
        assert all(len(group) <= 2 for group in plan.groups)
        assert sum(len(g) for g in plan.groups) == len(PAPER_EVENTS)
        assert plan.n_runs == 5 * len(plan.groups)

    def test_plan_rejects_duplicates(self):
        with pytest.raises(MeasurementError):
            CounterGroupPlan.for_events(
                [Counter.L2_MISSES, Counter.L2_MISSES]
            )

    def test_plan_rejects_fixed_only(self):
        with pytest.raises(MeasurementError):
            CounterGroupPlan.for_events([Counter.CYCLES])


class TestMeasurement:
    def test_all_events_collected(self, machine, exe):
        measurement = measure_executable(machine, exe)
        for event in PAPER_EVENTS:
            assert measurement[event] >= 0
        assert measurement.cycles > 0
        assert measurement.instructions > 0

    def test_derived_metrics(self, machine, exe):
        measurement = measure_executable(machine, exe)
        assert measurement.cpi == pytest.approx(
            units.cpi(measurement.cycles, measurement.instructions)
        )
        assert measurement.mpki >= 0.0

    def test_missing_event_raises(self, machine, exe):
        measurement = measure_executable(
            machine, exe, events=[Counter.BRANCH_MISPREDICTS]
        )
        with pytest.raises(MeasurementError):
            measurement[Counter.L2_MISSES]

    def test_measurement_reproducible(self, machine, exe):
        a = measure_executable(machine, exe)
        b = measure_executable(machine, exe)
        assert dict(a.counters) == dict(b.counters)

    def test_median_of_five_rejects_spikes(self, camino, tiny_spec, tiny_trace):
        """Median-of-5 cycles should be less variable than single runs."""
        spiky = XeonE5440Config(
            noise=NoiseParameters(spike_probability=0.3, spike_magnitude=0.1)
        )
        machine = XeonE5440(config=spiky, seed=3)
        exe = camino.build(tiny_spec, tiny_trace, layout_seed=1)
        counts = machine._oracle_counts(exe)
        spec = exe.spec
        det = deterministic_cycles(counts, spec, spiky.timing)
        singles = [
            machine.run_once(exe, run_key=f"solo{i}")[Counter.CYCLES]
            for i in range(40)
        ]
        median_err = abs(
            measure_executable(machine, exe, events=[Counter.BRANCHES]).cycles - det
        )
        single_errs = np.abs(np.array(singles) - det)
        # The median-run error should beat the *average* single-run error.
        assert median_err <= np.mean(single_errs)

    def test_run_once_reads_requested_events(self, machine, exe):
        reading = machine.run_once(exe, [Counter.BRANCH_MISPREDICTS])
        assert set(reading) == {
            Counter.CYCLES, Counter.INSTRUCTIONS, Counter.BRANCH_MISPREDICTS,
        }

    def test_bad_runs_per_group(self, machine, exe):
        with pytest.raises(MeasurementError):
            measure_executable(machine, exe, runs_per_group=0)
