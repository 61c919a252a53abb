"""Small-surface tests: errors, scale validation, timing coupling,
and report rendering details."""

from __future__ import annotations

import pytest

from repro.errors import (
    AllocationError,
    ConfigurationError,
    LinkError,
    MeasurementError,
    ModelError,
    ReproError,
    WorkloadError,
)
from repro.harness.lab import Scale
from repro.harness.report import format_cell, format_table
from repro.machine.config import TimingParameters, XeonE5440Config
from repro.machine.core_model import StructuralCounts
from repro.machine.timing import deterministic_cycles

from tests.conftest import make_tiny_spec


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            LinkError,
            AllocationError,
            MeasurementError,
            ModelError,
            WorkloadError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_catching_base_does_not_catch_programming_errors(self):
        with pytest.raises(TypeError):
            try:
                raise TypeError("not ours")
            except ReproError:  # pragma: no cover - must not trigger
                pass


class TestScaleValidation:
    def test_too_few_layouts_rejected(self):
        with pytest.raises(ConfigurationError):
            Scale("bad", n_layouts=2, trace_events=100, mase_trace_events=100,
                  mase_configs=None, ltage_layouts=1)

    def test_valid_scale(self):
        scale = Scale("ok", n_layouts=5, trace_events=100, mase_trace_events=100,
                      mase_configs=10, ltage_layouts=2)
        assert scale.name == "ok"


class TestTimingCoupling:
    def _counts(self, mispredicts, l1d_misses=500, l1d_accesses=1000):
        return StructuralCounts(
            instructions=100_000,
            branches=15_000,
            mispredicts=mispredicts,
            btb_misses=0,
            indirect_mispredicts=0,
            l1i_accesses=10_000,
            l1i_misses=0,
            l1d_accesses=l1d_accesses,
            l1d_misses=l1d_misses,
            l2_misses=0,
        )

    def test_coupling_term_superlinear_with_miss_rate(self):
        """The §3.1 interaction: the same misprediction count costs more
        when the data cache is missing more."""
        spec = make_tiny_spec()
        timing = TimingParameters(coupling_mpki_l1d=5.0)
        cold = deterministic_cycles(self._counts(1000, l1d_misses=900), spec, timing)
        warm = deterministic_cycles(self._counts(1000, l1d_misses=100), spec, timing)
        # Remove the direct l1d penalty difference to isolate coupling.
        direct = (900 - 100) * timing.l1d_penalty
        assert cold - warm > direct

    def test_no_coupling_when_disabled(self):
        spec = make_tiny_spec()
        timing = TimingParameters(coupling_mpki_l1d=0.0)
        a = deterministic_cycles(self._counts(1000, l1d_misses=900), spec, timing)
        b = deterministic_cycles(self._counts(1000, l1d_misses=100), spec, timing)
        assert a - b == pytest.approx(800 * timing.l1d_penalty)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(l2_penalty=-1.0)

    def test_bad_warmup_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            XeonE5440Config(warmup_fraction=1.0)


class TestReportDetails:
    def test_format_cell_precision(self):
        assert format_cell(1.23456, precision=2) == "1.23"
        assert format_cell(7) == "7"
        assert format_cell(False) == "no"

    def test_table_right_alignment(self):
        text = format_table(["v"], [(1.5,), (22.5,)])
        lines = text.splitlines()
        assert lines[-1].endswith("22.500")
        assert lines[-2].endswith(" 1.500")
