"""repro — Program Interferometry (Wang & Jiménez, IISWC 2011), reproduced.

Program interferometry measures the performance impact of
address-hashed microarchitectural structures (branch predictor tables,
caches) by running many semantically equivalent executables whose code
and heap layouts differ, and regressing performance on the adverse
events each layout elicits.

Quickstart::

    from repro import (
        Camino, Interferometer, PerformanceModel, XeonE5440, get_benchmark,
    )

    machine = XeonE5440(seed=1)
    interferometer = Interferometer(machine)
    benchmark = get_benchmark("400.perlbench")
    observations = interferometer.observe(benchmark, n_layouts=40)
    model = PerformanceModel.from_observations(observations)
    print(model.slope, model.intercept)
    print(model.perfect_event_prediction().prediction)  # CPI at 0 MPKI

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results of every table and figure.

Every public name is imported on first use (PEP 562), so ``import
repro`` loads no numpy, and ``python -m repro.lint`` runs on the
standard library alone.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

__all__ = [
    "AgreePredictor",
    "Benchmark",
    "BiModePredictor",
    "BimodalPredictor",
    "BlameAnalysis",
    "BranchPredictor",
    "Camino",
    "CampaignExecutionError",
    "CampaignKey",
    "CampaignProvenance",
    "CampaignStore",
    "CampaignTimeoutError",
    "ConflictAvoidingPlacer",
    "CorruptCampaignError",
    "Counter",
    "DieHardAllocator",
    "Executable",
    "FailureReport",
    "FaultPlan",
    "GAsPredictor",
    "GsharePredictor",
    "GskewPredictor",
    "HybridPredictor",
    "Interferometer",
    "LTagePredictor",
    "LinearityStudy",
    "MaseSimulator",
    "ObservationSet",
    "PerceptronPredictor",
    "PerfectPredictor",
    "PerformanceModel",
    "PinTool",
    "PredictorEvaluator",
    "ReproError",
    "RetryPolicy",
    "SequentialAllocator",
    "ShutdownRequested",
    "SuiteExecutionError",
    "TagePredictor",
    "TransientError",
    "XeonE5440",
    "XeonE5440Config",
    "bootstrap_interval",
    "bootstrap_regression_prediction",
    "export_observations_csv",
    "get_benchmark",
    "hot_grouping_order",
    "layout_seed",
    "load_campaign",
    "load_observations",
    "load_trace",
    "mase_suite",
    "measure_executable",
    "run_cache_interferometry",
    "save_observations",
    "save_trace",
    "spec2006",
    "units",
    "__version__",
]

#: ``name -> (defining module, attribute)`` for every lazily exported
#: name; an attribute of ``None`` exports the module itself.
_EXPORTS: dict[str, tuple[str, str | None]] = {
    "units": ("repro.units", None),
    "BlameAnalysis": ("repro.core", "BlameAnalysis"),
    "Interferometer": ("repro.core", "Interferometer"),
    "ObservationSet": ("repro.core", "ObservationSet"),
    "PerformanceModel": ("repro.core", "PerformanceModel"),
    "PredictorEvaluator": ("repro.core", "PredictorEvaluator"),
    "layout_seed": ("repro.core", "layout_seed"),
    "run_cache_interferometry": ("repro.core", "run_cache_interferometry"),
    "CampaignExecutionError": ("repro.errors", "CampaignExecutionError"),
    "CampaignTimeoutError": ("repro.errors", "CampaignTimeoutError"),
    "CorruptCampaignError": ("repro.errors", "CorruptCampaignError"),
    "ReproError": ("repro.errors", "ReproError"),
    "ShutdownRequested": ("repro.errors", "ShutdownRequested"),
    "SuiteExecutionError": ("repro.errors", "SuiteExecutionError"),
    "TransientError": ("repro.errors", "TransientError"),
    "FailureReport": ("repro.faults", "FailureReport"),
    "FaultPlan": ("repro.faults", "FaultPlan"),
    "RetryPolicy": ("repro.faults", "RetryPolicy"),
    "DieHardAllocator": ("repro.heap", "DieHardAllocator"),
    "SequentialAllocator": ("repro.heap", "SequentialAllocator"),
    "XeonE5440": ("repro.machine", "XeonE5440"),
    "XeonE5440Config": ("repro.machine", "XeonE5440Config"),
    "measure_executable": ("repro.machine", "measure_executable"),
    "Counter": ("repro.machine.counters", "Counter"),
    "LinearityStudy": ("repro.mase", "LinearityStudy"),
    "MaseSimulator": ("repro.mase", "MaseSimulator"),
    "PinTool": ("repro.pintool", "PinTool"),
    "CampaignProvenance": ("repro.persistence", "CampaignProvenance"),
    "export_observations_csv": ("repro.persistence", "export_observations_csv"),
    "load_campaign": ("repro.persistence", "load_campaign"),
    "load_observations": ("repro.persistence", "load_observations"),
    "load_trace": ("repro.persistence", "load_trace"),
    "save_observations": ("repro.persistence", "save_observations"),
    "save_trace": ("repro.persistence", "save_trace"),
    "CampaignKey": ("repro.store", "CampaignKey"),
    "CampaignStore": ("repro.store", "CampaignStore"),
    "bootstrap_interval": ("repro.stats.bootstrap", "bootstrap_interval"),
    "bootstrap_regression_prediction": (
        "repro.stats.bootstrap",
        "bootstrap_regression_prediction",
    ),
    "Camino": ("repro.toolchain", "Camino"),
    "Executable": ("repro.toolchain", "Executable"),
    "ConflictAvoidingPlacer": ("repro.toolchain.placement", "ConflictAvoidingPlacer"),
    "hot_grouping_order": ("repro.toolchain.placement", "hot_grouping_order"),
    "AgreePredictor": ("repro.uarch", "AgreePredictor"),
    "BiModePredictor": ("repro.uarch", "BiModePredictor"),
    "BimodalPredictor": ("repro.uarch", "BimodalPredictor"),
    "BranchPredictor": ("repro.uarch", "BranchPredictor"),
    "GAsPredictor": ("repro.uarch", "GAsPredictor"),
    "GsharePredictor": ("repro.uarch", "GsharePredictor"),
    "GskewPredictor": ("repro.uarch", "GskewPredictor"),
    "HybridPredictor": ("repro.uarch", "HybridPredictor"),
    "LTagePredictor": ("repro.uarch", "LTagePredictor"),
    "PerceptronPredictor": ("repro.uarch", "PerceptronPredictor"),
    "PerfectPredictor": ("repro.uarch", "PerfectPredictor"),
    "TagePredictor": ("repro.uarch", "TagePredictor"),
    "Benchmark": ("repro.workloads", "Benchmark"),
    "get_benchmark": ("repro.workloads", "get_benchmark"),
    "mase_suite": ("repro.workloads", "mase_suite"),
    "spec2006": ("repro.workloads", "spec2006"),
}


def __getattr__(name: str) -> Any:
    """Import a public name on first use and cache it in the module."""
    try:
        module, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(module)
    if attribute is not None:
        value = getattr(value, attribute)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
