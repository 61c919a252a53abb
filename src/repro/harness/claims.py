"""The paper's claims as one executable registry.

Each :class:`Claim` is a predicate over one experiment's result object.
This module is the only place a qualitative shape of the paper is
asserted: ``EXPERIMENTS.md`` renders every verdict from it (see
:mod:`repro.harness.experiments_doc`, which exits 1 when a checked
claim fails) and the tier-1 suite evaluates the claims whose
``min_scale`` is ``ci`` on the ``ci`` laboratory.

``min_scale`` is the smallest scale tier (``ci`` < ``small`` <
``paper``) at which the claim was measured to hold; on a smaller lab
the claim is reported as not checked rather than as passing or failing.
Thresholds are the paper's shapes and are never widened to make a
claim hold at a smaller scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.evaluate import PredictorEvaluator
from repro.core.interferometer import Interferometer
from repro.core.model import PerformanceModel
from repro.core.observations import ObservationSet
from repro.harness import extended, fig1, fig2, fig6, fig7, fig8, result_of, table1
from repro.harness.lab import SCALES, Laboratory, Scale
from repro.machine.config import XeonE5440Config
from repro.machine.counters import Counter
from repro.machine.pmc import measure_executable
from repro.machine.system import XeonE5440
from repro.toolchain.camino import Camino
from repro.toolchain.placement import ConflictAvoidingPlacer, hot_grouping_order
from repro.uarch.predictors.agree import AgreePredictor
from repro.uarch.predictors.bimode import BiModePredictor
from repro.uarch.predictors.hybrid import HybridPredictor
from repro.workloads.params import CACHE_STUDY_BENCHMARK

#: The three branch-insensitive FP benchmarks the suite models (§4.6).
INSENSITIVE = ("410.bwaves", "433.milc", "470.lbm")

HOLDS = "HOLDS"
FAILS = "FAILS"

_SCALE_RANK = {name: rank for rank, name in enumerate(SCALES)}


# ---- ablations: the measurements behind the design choices ------------


def _heap_randomization(lab: Laboratory) -> dict[str, float]:
    """Code reordering alone leaves L1D misses quiet; the heap moves them."""
    code = lab.observations(CACHE_STUDY_BENCHMARK).series("l1d_mpki")
    heap = lab.heap_observations(CACHE_STUDY_BENCHMARK).series("l1d_mpki")
    return {
        "L1D MPKI std, code reordering only": float(code.std()),
        "with heap randomization": float(heap.std()),
    }


def _median_of_five(lab: Laboratory) -> dict[str, float]:
    """Median-of-5 cycles rejects the noise spikes single runs absorb."""
    exe = lab.interferometer.build_executable(lab.benchmark("456.hmmer"), 0)
    singles = [
        lab.machine.run_once(exe, run_key=f"abl/{i}")[Counter.CYCLES] for i in range(30)
    ]
    median = measure_executable(
        lab.machine, exe, events=[Counter.BRANCHES], runs_per_group=5
    ).cycles
    return {
        "single-run cycle std": float(np.std(singles)),
        "median-of-5 error": float(abs(median - np.median(singles))),
    }


def _layouts_vs_interval(lab: Laboratory) -> dict[str, float]:
    """The PI half-width at 0 MPKI from half of the layouts and from all."""
    observations = lab.observations("445.gobmk")
    halves = {}
    for label, count in (("half", len(observations) // 2), ("all", len(observations))):
        subset = ObservationSet(benchmark=observations.benchmark)
        subset.extend(observations.observations[:count])
        prediction = PerformanceModel.from_observations(subset).perfect_event_prediction()
        halves[f"PI half-width, {label} the layouts"] = prediction.prediction.half_width
    return halves


def _table_pressure(lab: Laboratory) -> dict[str, float]:
    """Smaller predictor tables alias more, widening the MPKI spread."""
    spreads = {}
    for label, bimodal, glob in (
        ("small", 512, 1024), ("default", 2048, 4096), ("large", 8192, 16384)
    ):
        config = XeonE5440Config(
            bimodal_entries=bimodal, global_entries=glob, chooser_entries=bimodal
        )
        machine = XeonE5440(config=config, seed=lab.machine.seed)
        observations = Interferometer(machine, trace_events=lab.scale.trace_events).observe(
            lab.benchmark("445.gobmk"), n_layouts=min(12, lab.scale.n_layouts)
        )
        spreads[f"MPKI std, {label} tables"] = float(observations.mpkis.std())
    return spreads


def _antialiasing(lab: Laboratory) -> dict[str, float]:
    """MPKI level and layout-to-layout spread of agree and bi-mode vs the hybrid."""
    observations = lab.observations("445.gobmk").observations[:12]
    evaluator = PredictorEvaluator(
        lab.interferometer,
        [
            HybridPredictor(2048, 4096, 8, 2048, name="hybrid"),
            AgreePredictor(entries=4096, history_bits=8, name="agree"),
            BiModePredictor(entries=4096, history_bits=8, name="bimode"),
        ],
    )
    mpkis = evaluator.mpkis(
        lab.benchmark("445.gobmk"), [obs.layout_index for obs in observations]
    )
    stats = {}
    for name, values in mpkis.items():
        stats[f"{name} MPKI"] = float(np.mean(values))
        stats[f"{name} std"] = float(np.std(values))
    return stats


def _placement(lab: Laboratory) -> dict[str, float]:
    """A conflict-avoiding placement against the random layouts (§2.2)."""
    benchmark = lab.benchmark("445.gobmk")
    trace = benchmark.trace(lab.scale.trace_events)
    random_cpis = lab.observations("445.gobmk").cpis
    search = ConflictAvoidingPlacer().optimize(
        benchmark.spec, trace, iterations=60, seed=7,
        start=hot_grouping_order(benchmark.spec, trace),
    )
    exe = Camino().build_custom(benchmark.spec, trace, list(search.object_files))
    cpi = measure_executable(lab.machine, exe, events=[Counter.BRANCH_MISPREDICTS]).cpi
    return {
        "random-layout CPI": float(random_cpis.mean()),
        "optimized CPI": cpi,
        "share of layouts beaten": float((random_cpis > cpi).mean()),
        "conflict score before search": float(search.initial_score),
        "after": float(search.final_score),
    }


#: Claim-only measurements: ablations no CLI experiment reports.  They
#: share the experiments' per-laboratory memo (:func:`measured`).
ABLATIONS: dict[str, Callable[[Laboratory], dict[str, float]]] = {
    "heap_randomization": _heap_randomization,
    "median_of_five": _median_of_five,
    "layouts_vs_interval": _layouts_vs_interval,
    "table_pressure": _table_pressure,
    "antialiasing": _antialiasing,
    "placement": _placement,
}


def measured(lab: Laboratory, name: str) -> Any:
    """Experiment or ablation *name*'s result on *lab*, run once per lab."""
    return result_of(lab, name, ABLATIONS.get(name))


@dataclass(frozen=True)
class Claim:
    """One qualitative shape of the paper, checkable on a result object."""

    name: str
    paper_ref: str
    min_scale: str
    experiment: str
    holds: Callable[[Any], bool]
    detail: str

    def checked_at(self, scale: Scale) -> bool:
        """Whether a lab at *scale* is large enough to judge this claim."""
        rank = _SCALE_RANK.get(scale.name)
        return rank is not None and rank >= _SCALE_RANK[self.min_scale]

    def verdict(self, lab: Laboratory) -> str:
        """``HOLDS``, ``FAILS``, or why the claim was not checked on *lab*."""
        if not self.checked_at(lab.scale):
            return f"not checked below `{self.min_scale}`"
        return HOLDS if self.holds(measured(lab, self.experiment)) else FAILS


# ---- predicates that need more than one expression --------------------


def _fp_codes_narrowest(result: fig1.Fig1Result) -> bool:
    std = {row.benchmark: row.std_pct for row in result.rows}
    return set(INSENSITIVE) <= set(result.narrowest(4)) and all(
        std[name] < std["445.gobmk"] for name in INSENSITIVE
    )


def _bands_widen_toward_zero(result: fig2.Fig2Result) -> bool:
    widths = [p.ci_high - p.ci_low for p in result.panels]
    widths += [p.pi_high - p.pi_low for p in result.panels]
    return all(width[0] > width[1:].max() for width in widths)


def _branch_r2(result: fig6.Fig6Result, name: str) -> float:
    report = next(r for r in result.reports if r.benchmark == name)
    return report.per_event["mpki"].r_squared


def _gas(result: fig7.Fig7Result) -> list[float]:
    return [result.average_mpki(f"GAs-{kb}KB") for kb in (2, 4, 8, 16)]


def _ltage_beats_sweep(result: fig7.Fig7Result) -> bool:
    real, ltage = result.average_mpki("real"), result.average_mpki("L-TAGE")
    return ltage < min(_gas(result)) and 20 < (real - ltage) / real * 100 < 55


def _ltage_between(result: fig8.Fig8Result) -> bool:
    ltage = result.predictor_cpi("L-TAGE")[0]
    return result.perfect_cpi[0] < ltage < result.real_cpi[0]


def _intercept(result: table1.Table1Result, name: str) -> float:
    """A Table 1 intercept; NaN (comparing false) for a screened-out benchmark."""
    return next((x.intercept for x in result.rows if x.benchmark == name), float("nan"))


def _extended_rows(result: extended.ExtendedResult):
    return [result.rows_for(name) for name in extended.STUDY_BENCHMARKS]


def _cpi_monotone(result: extended.ExtendedResult) -> bool:
    cpis = [[row.predicted_cpi for row in rows] for rows in _extended_rows(result)]
    return all(len(c) == 6 and c == sorted(c) for c in cpis)


def _keeps_signal(r: dict[str, float], name: str) -> bool:
    mean, std = r[f"{name} MPKI"], r[f"{name} std"]
    hybrid = r["hybrid std"] / r["hybrid MPKI"]
    return mean > 0 and std > 0 and 0.5 * hybrid <= std / mean <= 1.5 * hybrid


CLAIMS: tuple[Claim, ...] = (
    Claim("fig1.fp_codes_narrowest", "Fig. 1", "ci", "fig1", _fp_codes_narrowest,
          "the three branch-insensitive FP codes (410.bwaves, 433.milc, 470.lbm) "
          "sit among the four narrowest violins, each narrower than 445.gobmk"),
    Claim("fig2.positive_significant_fits", "Fig. 2", "ci", "fig2",
          lambda r: all(p.model.slope > 0 and p.model.is_significant() for p in r.panels),
          "both panels fit a positive slope that is significant at p <= 0.05"),
    Claim("fig2.pi_contains_ci", "Fig. 2", "ci", "fig2",
          lambda r: all(
              (p.pi_low <= p.ci_low).all() and (p.ci_high <= p.pi_high).all()
              for p in r.panels
          ),
          "the prediction band contains the confidence band everywhere"),
    Claim("fig2.bands_widen_toward_zero", "Fig. 2", "ci", "fig2",
          _bands_widen_toward_zero,
          "both bands are widest at 0 MPKI, the extrapolated end"),
    Claim("fig3.l1d_linear", "Fig. 3a", "ci", "fig3",
          lambda r: r.l1_panel.model.slope > 0,
          "CPI rises with L1D misses under heap randomization"),
    Claim("fig3.l1d_significant", "Fig. 3a", "small", "fig3",
          lambda r: r.l1_panel.model.is_significant(),
          "the L1D fit is significant at p <= 0.05"),
    Claim("fig3.l2_linear", "Fig. 3b", "small", "fig3",
          lambda r: r.l2_panel.model.slope > 0 and r.l2_panel.model.is_significant(),
          "CPI rises with L2 misses, significant at p <= 0.05"),
    Claim("fig3.heap_randomization_needed", "Fig. 3", "ci", "heap_randomization",
          lambda r: r["with heap randomization"]
          > 3 * r["L1D MPKI std, code reordering only"],
          "code reordering alone leaves the data cache quiet: heap "
          "randomization more than triples the L1D MPKI spread"),
    Claim("fig4.outliers_worst", "Fig. 4", "ci", "fig4",
          lambda r: {b.benchmark for b in r.study.sorted_by_perfect_error()[-2:]}
          == {"252.eon", "178.galgel"},
          "the wrong-path-coupled outliers 252.eon and 178.galgel have the two "
          "largest extrapolation errors"),
    Claim("fig4.ltage_interpolates_better", "Fig. 4", "ci", "fig4",
          lambda r: r.study.mean_ltage_error < r.study.mean_perfect_error,
          "interpolating to L-TAGE's operating point is more accurate than "
          "extrapolating to perfect prediction"),
    Claim("fig4.mean_error_below_5pct", "Fig. 4", "ci", "fig4",
          lambda r: r.study.mean_perfect_error < 5.0,
          "the mean perfect-prediction extrapolation error is below 5%"),
    Claim("fig5.linear_panel_closer", "Fig. 5", "ci", "fig5",
          lambda r: np.mean([x.error_at_zero_percent for x in r.linear])
          < np.mean([x.error_at_zero_percent for x in r.nonlinear]),
          "panel (a) lands closer to (0, 1) than panel (b) on average"),
    Claim("fig5.positive_slopes", "Fig. 5", "ci", "fig5",
          lambda r: all(x.slope > 0 for x in r.linear + r.nonlinear),
          "every normalized line has a positive slope"),
    Claim("fig6.branches_dominate", "Fig. 6", "ci", "fig6",
          lambda r: sum(x.dominant_event == "mpki" for x in r.reports) >= 15,
          "branch mispredictions are the dominant event for at least 15 benchmarks"),
    Claim("fig6.lbm_insensitive", "Fig. 6", "ci", "fig6",
          lambda r: _branch_r2(r, "470.lbm") < 0.3,
          "470.lbm's branch r^2 is below 0.3"),
    Claim("fig6.libquantum_branch_bound", "Fig. 6", "ci", "fig6",
          lambda r: _branch_r2(r, "462.libquantum") > 0.6,
          "462.libquantum's branch r^2 is above 0.6"),
    Claim("fig7.gas_budget_order", "Fig. 7", "ci", "fig7",
          lambda r: _gas(r) == sorted(_gas(r), reverse=True),
          "GAs accuracy grows monotonically with the budget, 2KB to 16KB"),
    Claim("fig7.real_near_gas_8kb", "Fig. 7", "ci", "fig7",
          lambda r: r.average_mpki("GAs-4KB") > r.average_mpki("real")
          > 0.85 * r.average_mpki("GAs-8KB"),
          "the real predictor's MPKI is below GAs-4KB's and above 0.85x GAs-8KB's "
          "(the paper places it between GAs-4KB and GAs-8KB)"),
    Claim("fig7.ltage_beats_sweep", "Fig. 7", "ci", "fig7", _ltage_beats_sweep,
          "L-TAGE beats the whole GAs sweep and improves on the real predictor's "
          "MPKI by 20-55% (paper: 37%)"),
    Claim("fig8.perfect_headroom", "§7.2.1", "ci", "fig8",
          lambda r: r.perfect_cpi[0] < r.real_cpi[0]
          and 5.0 < r.perfect_improvement_percent < 20.0,
          "perfect prediction improves suite CPI by 5-20% (paper: 11.8%)"),
    Claim("fig8.ltage_between", "§7.2.2", "ci", "fig8",
          lambda r: _ltage_between(r) and 1.0 < r.ltage_improvement_percent < 10.0,
          "L-TAGE's predicted CPI lies between perfect and real, 1-10% below "
          "real (paper: 4.8%)"),
    Claim("fig8.intervals_widen_toward_zero", "Fig. 8", "ci", "fig8",
          lambda r: r.real_cpi[1] < r.predictor_cpi("L-TAGE")[1] < r.perfect_cpi[1],
          "interval half-widths grow toward 0 MPKI: the real predictor's CI is "
          "the tightest, then L-TAGE's PI, then perfect prediction's"),
    Claim("table1.most_benchmarks_fit", "Table 1", "ci", "table1",
          lambda r: len(r.rows) >= 18,
          "at least 18 benchmarks enter the table (paper: 20)"),
    Claim("table1.positive_slopes_in_pi", "Table 1", "ci", "table1",
          lambda r: all(x.slope > 0 and x.low < x.intercept < x.high for x in r.rows),
          "every slope is positive and every 95% PI contains its intercept"),
    Claim("table1.mcf_towers_over_hmmer", "Table 1", "small", "table1",
          lambda r: _intercept(r, "429.mcf") > 3 * _intercept(r, "456.hmmer"),
          "the memory-bound 429.mcf's intercept exceeds three times the "
          "compute-bound 456.hmmer's (paper: 4.675 vs 0.203)"),
    Claim("significance.twenty_of_23", "§4.6", "paper", "significance",
          lambda r: r.n_significant == 20,
          "exactly 20 of 23 benchmarks reject H0"),
    Claim("significance.near_twenty", "§4.6", "ci", "significance",
          lambda r: 18 <= r.n_significant <= 21,
          "18 to 21 of 23 benchmarks reject H0"),
    Claim("significance.failures_are_fp_codes", "§4.6", "small", "significance",
          lambda r: {x.benchmark for x in r.rows if not x.significant}
          == set(INSENSITIVE),
          "the benchmarks that fail are exactly the branch-starved FP codes"),
    Claim("headline.perfect_headroom", "§1.4", "ci", "headline",
          lambda r: 8.0 < r.perfect_improvement_percent < 40.0,
          "perfect prediction improves 400.perlbench by 8-40% (paper: 26%)"),
    Claim("headline.halving_buys_less", "§1.4", "ci", "headline",
          lambda r: r.halved_improvement_percent < r.perfect_improvement_percent,
          "halving MPKI buys less than perfect prediction"),
    Claim("headline.ten_percent_needs_large_cut", "§1.4", "ci", "headline",
          lambda r: 20.0 < r.reduction_for_10pct < 90.0,
          "a 10% CPI gain needs a 20-90% misprediction cut (paper: 38%)"),
    Claim("extended.cpi_monotone_in_mpki", "§7.2, extended", "ci", "extended",
          _cpi_monotone,
          "for six more predictor designs, predicted CPI rises with MPKI"),
    Claim("extended.tage_among_best", "§7.2, extended", "ci", "extended",
          lambda r: all(
              [x.predictor for x in rows].index("TAGE") <= 2
              for rows in _extended_rows(r)
          ),
          "TAGE is among the three most accurate of the six designs on every "
          "study benchmark"),
    Claim("ablation.median_of_five", "§5.5", "ci", "median_of_five",
          lambda r: r["median-of-5 error"] < 2 * r["single-run cycle std"],
          "a median-of-5 measurement misses the central value by less than two "
          "single-run standard deviations"),
    Claim("ablation.layouts_vs_interval", "§6.3", "ci", "layouts_vs_interval",
          lambda r: r["PI half-width, all the layouts"]
          <= 1.25 * r["PI half-width, half the layouts"],
          "doubling the layouts leaves the PI at 0 MPKI no more than 25% wider"),
    Claim("ablation.table_pressure", "§4.2", "ci", "table_pressure",
          lambda r: r["MPKI std, small tables"] > r["MPKI std, large tables"],
          "smaller predictor tables alias more and widen the MPKI spread"),
    Claim("ablation.antialiasing_keeps_signal", "§2.2", "ci", "antialiasing",
          lambda r: _keeps_signal(r, "agree") and _keeps_signal(r, "bimode"),
          "agree and bi-mode keep the layout signal: their relative MPKI spread "
          "is within 0.5-1.5x the hybrid's"),
    Claim("ablation.placement_beats_random", "§2.2", "ci", "placement",
          lambda r: r["share of layouts beaten"] >= 0.85
          and r["after"] <= r["conflict score before search"],
          "a conflict-avoiding placement beats at least 85% of the random layouts "
          "without raising its conflict score"),
)


def claims_for(*experiments: str) -> list[Claim]:
    """The registry's claims about any of *experiments*, in order."""
    return [claim for claim in CLAIMS if claim.experiment in experiments]
