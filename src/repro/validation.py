"""Installation self-check: fast invariant verification.

``repro-interferometry --selftest`` (or :func:`run_selftest`) runs a
battery of quick checks covering the invariants the whole reproduction
rests on.  Each check is independent and reports pass/fail with a
detail string; the battery is designed to finish in a few seconds so it
can gate CI or a fresh install.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class CheckResult:
    """One self-check's outcome."""

    name: str
    passed: bool
    detail: str


def _check_trace_determinism() -> str:
    from repro.workloads.suite import get_benchmark
    from repro.program.tracegen import generate_trace

    benchmark = get_benchmark("456.hmmer")
    a = generate_trace(benchmark.spec, benchmark.trace_seed, 1500)
    b = generate_trace(benchmark.spec, benchmark.trace_seed, 1500)
    assert (a.outcomes == b.outcomes).all(), "trace outcomes not deterministic"
    return f"{a.n_events} events reproduced bit-identically"


def _check_layout_invariance() -> str:
    from repro.toolchain.camino import Camino
    from repro.workloads.suite import get_benchmark

    benchmark = get_benchmark("456.hmmer")
    trace = benchmark.trace(1500)
    camino = Camino()
    instrs = {
        camino.build(benchmark.spec, trace, layout_seed=seed).n_instructions
        for seed in range(4)
    }
    assert len(instrs) == 1, f"instruction counts differ across layouts: {instrs}"
    return f"4 layouts all retire {instrs.pop()} instructions"


def _check_predictor_ordering() -> str:
    from repro.toolchain.camino import Camino
    from repro.uarch.predictors.hybrid import HybridPredictor
    from repro.uarch.predictors.perfect import PerfectPredictor
    from repro.uarch.predictors.static import AlwaysTakenPredictor
    from repro.workloads.suite import get_benchmark

    benchmark = get_benchmark("445.gobmk")
    trace = benchmark.trace(2000)
    exe = Camino().build(benchmark.spec, trace, layout_seed=0)
    addresses = exe.branch_address_stream()
    outcomes = exe.trace.outcomes
    perfect = PerfectPredictor().simulate(addresses, outcomes)
    hybrid = HybridPredictor(2048, 4096, 8, 2048).simulate(addresses, outcomes)
    static = AlwaysTakenPredictor().simulate(addresses, outcomes)
    assert perfect == 0, "perfect predictor mispredicted"
    assert perfect < hybrid < static, (
        f"ordering violated: perfect={perfect}, hybrid={hybrid}, static={static}"
    )
    return f"perfect 0 < hybrid {hybrid} < static {static} mispredictions"


def _check_stats_against_closed_forms() -> str:
    from repro.stats.distributions import f_sf, t_two_sided_p
    from repro.stats.intervals import critical_t
    from repro.stats.normality import jarque_bera
    from repro.stats.regression import fit_simple

    rng = np.random.default_rng(0)
    x = rng.uniform(0, 10, 50)
    y = 2.0 * x + 1.0 + rng.normal(0, 0.5, 50)
    ours = fit_simple(x, y)
    slope, intercept = np.polyfit(x, y, 1)
    assert abs(ours.slope - slope) < 1e-9, "slope mismatch vs numpy.polyfit"
    assert abs(ours.intercept - intercept) < 1e-9, "intercept mismatch vs numpy.polyfit"

    def close(value: float, exact: float) -> bool:
        return abs(value - exact) <= 1e-12 * abs(exact)

    for t in (0.3, 2.0, 40.0):
        h = math.hypot(math.sqrt(2.0), t)
        assert close(t_two_sided_p(t, 1), 2.0 / math.pi * math.atan(1.0 / t)), "Cauchy p"
        assert close(t_two_sided_p(t, 2), 2.0 / h / (h + t)), "dof-2 p"
        # F(2, d) has the tail (1 + 2f/d)^(-d/2), through the same incomplete beta.
        assert close(f_sf(t, 2, 30), (1.0 + t / 15.0) ** -15.0), "F(2, 30) p"
    assert close(critical_t(0.95, 1), math.tan(math.pi * 0.475)), "Cauchy critical t"
    # At dof 2 the q quantile is (2q − 1)/√(2q(1 − q)).
    assert close(critical_t(0.95, 2), 0.95 / math.sqrt(2 * 0.975 * 0.025)), "dof-2 critical t"
    normality = jarque_bera(rng.exponential(1.0, 200))
    assert close(normality.p_value, math.exp(-normality.statistic / 2.0)), "chi-squared(2) p"
    return "slope/intercept match numpy.polyfit; t, F, chi-squared tails match closed forms"


def _check_measurement_protocol() -> str:
    from repro.machine.pmc import measure_executable
    from repro.machine.system import XeonE5440
    from repro.toolchain.camino import Camino
    from repro.workloads.suite import get_benchmark

    benchmark = get_benchmark("456.hmmer")
    trace = benchmark.trace(1500)
    machine = XeonE5440(seed=1)
    exe = Camino().build(benchmark.spec, trace, layout_seed=0)
    a = measure_executable(machine, exe)
    b = measure_executable(machine, exe)
    assert dict(a.counters) == dict(b.counters), "measurement not reproducible"
    assert a.cpi > 0 and a.mpki >= 0, "nonsensical derived metrics"
    return f"median-of-5 protocol reproducible (CPI {a.cpi:.3f})"


def _check_interferometry_signal() -> str:
    from repro.core.interferometer import Interferometer
    from repro.core.model import PerformanceModel
    from repro.machine.system import XeonE5440
    from repro.workloads.suite import get_benchmark

    machine = XeonE5440(seed=1)
    interferometer = Interferometer(machine, trace_events=4000)
    observations = interferometer.observe(get_benchmark("445.gobmk"), n_layouts=8)
    model = PerformanceModel.from_observations(observations)
    assert model.slope > 0, f"negative misprediction cost: {model.slope}"
    assert model.is_significant(), "no significant CPI/MPKI correlation"
    return (
        f"gobmk: slope {model.slope:.4f}, r {model.r:.2f}, "
        f"p {model.significance().p_value:.1e}"
    )


#: The battery, in dependency-ish order.
CHECKS: dict[str, Callable[[], str]] = {
    "trace-determinism": _check_trace_determinism,
    "layout-invariance": _check_layout_invariance,
    "predictor-ordering": _check_predictor_ordering,
    "stats-vs-closed-form": _check_stats_against_closed_forms,
    "measurement-protocol": _check_measurement_protocol,
    "interferometry-signal": _check_interferometry_signal,
}


def run_selftest() -> list[CheckResult]:
    """Run every check; never raises — failures are reported as results."""
    results = []
    for name, check in CHECKS.items():
        try:
            detail = check()
            results.append(CheckResult(name=name, passed=True, detail=detail))
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            results.append(CheckResult(name=name, passed=False, detail=str(exc)))
    return results


def render_selftest(results: list[CheckResult]) -> str:
    """Human-readable report."""
    lines = ["self-test:"]
    for result in results:
        mark = "ok  " if result.passed else "FAIL"
        lines.append(f"  [{mark}] {result.name}: {result.detail}")
    n_failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - n_failed}/{len(results)} checks passed"
        + ("" if n_failed == 0 else " — INSTALLATION BROKEN")
    )
    return "\n".join(lines)
