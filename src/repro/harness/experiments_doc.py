"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Run as a module::

    REPRO_SCALE=small python -m repro.harness.experiments_doc

The document records, for each experiment, the paper's reported values
next to this reproduction's measured ones, and renders the verdict of
every claim in :mod:`repro.harness.claims` about it.  The command exits
1 when a claim checked at the lab's scale fails.  Regenerate after any
recalibration.
"""

from __future__ import annotations

import io
import sys

from repro.harness import claims, result_of
from repro.harness.extended import STUDY_BENCHMARKS
from repro.harness.lab import Laboratory

#: Table 1 of the paper: benchmark -> (slope, intercept, low, high).
PAPER_TABLE1 = {
    "400.perlbench": (0.028, 0.517, 0.488, 0.546),
    "401.bzip2": (0.017, 0.596, 0.485, 0.708),
    "403.gcc": (0.028, 1.839, 1.796, 1.882),
    "416.gamess": (0.041, 0.548, 0.519, 0.577),
    "429.mcf": (0.019, 4.675, 4.531, 4.819),
    "434.zeusmp": (0.373, 0.863, 0.813, 0.913),
    "435.gromacs": (0.020, 0.811, 0.795, 0.827),
    "444.namd": (0.033, 0.620, 0.551, 0.689),
    "445.gobmk": (0.019, 0.643, 0.515, 0.771),
    "450.soplex": (0.016, 1.822, 1.741, 1.904),
    "454.calculix": (0.023, 0.461, 0.460, 0.463),
    "456.hmmer": (0.041, 0.203, 0.032, 0.375),
    "459.GemsFDTD": (0.516, 1.229, 1.189, 1.269),
    "462.libquantum": (0.022, 1.432, 1.431, 1.433),
    "464.h264ref": (0.032, 0.466, 0.451, 0.481),
    "465.tonto": (0.027, 0.632, 0.617, 0.647),
    "471.omnetpp": (0.036, 1.901, 1.860, 1.941),
    "473.astar": (0.022, 2.373, 2.289, 2.456),
    "482.sphinx3": (0.036, 0.916, 0.798, 1.034),
    "483.xalancbmk": (0.029, 1.914, 1.881, 1.947),
}

#: Figure 4 of the paper: named error levels.
PAPER_FIG4 = {
    "178.galgel": 7.5,
    "252.eon": 6.0,
    "458.sjeng": 2.7,
    "mean_perfect": 1.32,
    "mean_ltage": 0.3,
}


def _verdicts(lab: Laboratory, *experiments: str) -> str:
    """One markdown line per registry claim about *experiments*."""
    return "".join(
        f"- **{claim.verdict(lab)}** — {claim.detail} (`{claim.name}`)\n"
        for claim in claims.claims_for(*experiments)
    ) + "\n"


def _measured(result: dict[str, float]) -> str:
    """One table cell summarizing an ablation's measurements."""
    return "; ".join(f"{key} {value:.4g}" for key, value in result.items())


#: The ablations rendered in their own section (Fig. 3's shows the heap one).
ABLATIONS = tuple(name for name in claims.ABLATIONS if name != "heap_randomization")


def build_document(lab: Laboratory) -> str:
    """Run every experiment and render the full markdown report."""
    out = io.StringIO()
    w = out.write

    w("# EXPERIMENTS — paper vs. measured\n\n")
    w("Generated by `python -m repro.harness.experiments_doc` at scale "
      f"**{lab.scale.name}** ({lab.scale.n_layouts} layouts, "
      f"{lab.scale.trace_events} trace events, machine seed "
      f"{lab.machine.seed}).  Absolute CPIs/MPKIs are not expected to "
      "match the paper (our substrate is a scaled simulator, not the "
      "authors' Xeon E5440 testbed); the claims checked are the paper's "
      "*shapes* — orderings, significance outcomes, improvement factors, "
      "and failure cases.  See DESIGN.md for the substitution map.\n\n")

    # ---- Figure 1 -----------------------------------------------------
    f1 = result_of(lab, "fig1")
    most = max(f1.rows, key=lambda r: r.std_pct)
    least = min(f1.rows, key=lambda r: r.std_pct)
    w("## Figure 1 — CPI variation under code reordering (violins)\n\n")
    w("Paper: some benchmarks vary by several percent across 100 "
      "reorderings, others barely move.\n\n")
    w("| quantity | paper | measured |\n|---|---|---|\n")
    w(f"| most layout-sensitive | (e.g. perlbench-class, % level) | "
      f"{most.benchmark}, std {most.std_pct:.2f}% |\n")
    w(f"| least layout-sensitive | FP codes, ~0% | {least.benchmark}, "
      f"std {least.std_pct:.2f}% |\n")
    w(f"| narrowest four violins | FP codes | {', '.join(f1.narrowest(4))} |\n")
    w(f"| suite mean CPI | 1.387 (real predictor) | "
      f"{sum(r.mean_cpi for r in f1.rows) / len(f1.rows):.3f} |\n\n")
    w(_verdicts(lab, "fig1"))

    # ---- Figure 2 -----------------------------------------------------
    f2 = result_of(lab, "fig2")
    w("## Figure 2 — MPKI vs CPI regression with 95% CI/PI\n\n")
    w("| benchmark | paper line | measured line | r |\n|---|---|---|---|\n")
    paper_lines = {
        "400.perlbench": "CPI = 0.02799*MPKI + 0.51667",
        "471.omnetpp": "intercept 1.901, PI [1.86, 1.94]",
    }
    for panel in f2.panels:
        w(f"| {panel.benchmark} | {paper_lines[panel.benchmark]} | "
          f"CPI = {panel.model.slope:.5f}*MPKI + {panel.model.intercept:.5f} "
          f"| {panel.model.r:.3f} |\n")
    w("\n" + _verdicts(lab, "fig2"))
    w("Note the perlbench slope: paper 0.02799, measured "
      f"{f2.panels[0].model.slope:.5f}.\n\n")

    # ---- Figure 3 -----------------------------------------------------
    f3 = result_of(lab, "fig3")
    w("## Figure 3 — cache models under heap randomization (454.calculix)\n\n")
    w("| panel | paper | measured |\n|---|---|---|\n")
    for label, panel in (("L1 (data)", f3.l1_panel), ("L2", f3.l2_panel)):
        test = panel.model.significance()
        w(f"| {label} | linear, significant | slope {panel.model.slope:.5f}, "
          f"r^2 {panel.model.r_squared:.3f}, p {test.p_value:.1e} "
          f"({'significant' if test.rejects_null() else 'NOT significant'}) |\n")
    w(f"| L1D MPKI spread without the randomizing allocator | quiet | "
      f"{_measured(claims.measured(lab, 'heap_randomization'))} |\n")
    w("\n" + _verdicts(lab, "fig3", "heap_randomization"))

    # ---- Figures 4 & 5 -------------------------------------------------
    f4 = result_of(lab, "fig4")
    study = f4.study
    w("## Figure 4 — regression-extrapolation error under MASE\n\n")
    w("| quantity | paper | measured |\n|---|---|---|\n")
    w(f"| mean error, perfect prediction | {PAPER_FIG4['mean_perfect']}% | "
      f"{study.mean_perfect_error:.2f}% |\n")
    w(f"| mean error, L-TAGE | <{PAPER_FIG4['mean_ltage']}% | "
      f"{study.mean_ltage_error:.2f}% |\n")
    for name in ("178.galgel", "252.eon", "458.sjeng"):
        w(f"| {name} error | {PAPER_FIG4[name]}% | "
          f"{study.result_for(name).perfect_error_percent:.2f}% |\n")
    ordered = study.sorted_by_perfect_error()
    w(f"| worst two benchmarks | 178.galgel, 252.eon | "
      f"{ordered[-1].benchmark}, {ordered[-2].benchmark} |\n")
    below_one = sum(1 for b in ordered if b.perfect_error_percent < 1.0)
    w(f"| benchmarks below 1% error | 3/5 of set | "
      f"{below_one}/{len(ordered)} |\n\n")
    w(_verdicts(lab, "fig4"))

    f5 = result_of(lab, "fig5")
    w("## Figure 5 — normalized regression lines, linear vs non-linear\n\n")
    w("| panel | benchmark | intercept (true = 1.0) | err@0 |\n|---|---|---|---|\n")
    for line in f5.linear:
        w(f"| (a) linear | {line.benchmark} | {line.intercept:.4f} | "
          f"{line.error_at_zero_percent:.2f}% |\n")
    for line in f5.nonlinear:
        w(f"| (b) less linear | {line.benchmark} | {line.intercept:.4f} | "
          f"{line.error_at_zero_percent:.2f}% |\n")
    w("\n" + _verdicts(lab, "fig5"))

    # ---- Figure 6 -----------------------------------------------------
    f6 = result_of(lab, "fig6")
    w("## Figure 6 — blame assignment (cumulative r^2)\n\n")
    dominant = max(
        f6.reports, key=lambda r: r.per_event["mpki"].r_squared
    )
    w("| quantity | paper | measured |\n|---|---|---|\n")
    w(f"| mean branch r^2 | 0.27 | {f6.mean_branch_r2:.3f} |\n")
    w(f"| most branch-dominated | 462.libquantum (0.842) | "
      f"{dominant.benchmark} "
      f"({dominant.per_event['mpki'].r_squared:.3f}) |\n")
    n_branch_dominant = sum(1 for r in f6.reports if r.dominant_event == "mpki")
    w(f"| benchmarks where branches dominate | most | "
      f"{n_branch_dominant}/{len(f6.reports)} |\n\n")
    w(_verdicts(lab, "fig6"))

    # ---- Figure 7 -----------------------------------------------------
    f7 = result_of(lab, "fig7")
    real = f7.average_mpki("real")
    ltage = f7.average_mpki("L-TAGE")
    w("## Figure 7 — MPKI of real and simulated predictors\n\n")
    w("| predictor | paper MPKI | measured MPKI |\n|---|---|---|\n")
    w(f"| real (Xeon hybrid) | 6.306 | {real:.2f} |\n")
    for name, paper_value in (
        ("GAs-2KB", "worst of sweep"),
        ("GAs-4KB", "-"),
        ("GAs-8KB", "5.729"),
        ("GAs-16KB", "5.542"),
    ):
        w(f"| {name} | {paper_value} | {f7.average_mpki(name):.2f} |\n")
    w(f"| L-TAGE | 3.995 (-37% vs real) | {ltage:.2f} "
      f"({(ltage - real) / real * 100:+.0f}%) |\n\n")
    w(_verdicts(lab, "fig7"))

    # ---- Figure 8 -----------------------------------------------------
    f8 = result_of(lab, "fig8")
    real_cpi, real_half = f8.real_cpi
    perfect_cpi, perfect_half = f8.perfect_cpi
    ltage_cpi, ltage_half = f8.predictor_cpi("L-TAGE")
    w("## Figure 8 — predicted CPI per predictor (with 95% intervals)\n\n")
    w("| quantity | paper | measured |\n|---|---|---|\n")
    w(f"| suite real CPI (CI) | 1.387 ± 0.012 | {real_cpi:.3f} ± "
      f"{real_half:.3f} |\n")
    w(f"| suite perfect CPI (PI) | 1.223 ± 0.061 | {perfect_cpi:.3f} ± "
      f"{perfect_half:.3f} |\n")
    w(f"| improvement real → perfect | 11.8% (range 7-16%) | "
      f"{f8.perfect_improvement_percent:.1f}% |\n")
    w(f"| suite L-TAGE CPI (PI) | 1.320 ± 0.03 | {ltage_cpi:.3f} ± "
      f"{ltage_half:.3f} |\n")
    w(f"| improvement real → L-TAGE | 4.8% (range 2.4-6.8%) | "
      f"{f8.ltage_improvement_percent:.1f}% |\n\n")
    w(_verdicts(lab, "fig8"))

    # ---- Table 1 ------------------------------------------------------
    t1 = result_of(lab, "table1")
    w("## Table 1 — per-benchmark regression models\n\n")
    w("| benchmark | paper slope | measured slope | paper intercept | "
      "measured intercept [95% PI] |\n|---|---|---|---|---|\n")
    for row in t1.rows:
        paper = PAPER_TABLE1.get(row.benchmark)
        paper_slope = f"{paper[0]:.3f}" if paper else "n/a"
        paper_int = f"{paper[1]:.3f}" if paper else "n/a"
        w(f"| {row.benchmark} | {paper_slope} | {row.slope:.4f} | "
          f"{paper_int} | {row.intercept:.3f} [{row.low:.3f}, "
          f"{row.high:.3f}] |\n")
    w("\n" + _verdicts(lab, "table1"))
    w("Absolute intercepts differ where our scaled memory system "
      "contributes more stall CPI than the real 12MB-L2 Xeon (notably "
      "454.calculix).\n\n")

    # ---- Significance -------------------------------------------------
    sig = result_of(lab, "significance")
    w("## §4.6 / §6.4 — significance screen\n\n")
    w("| quantity | paper | measured |\n|---|---|---|\n")
    w(f"| benchmarks rejecting H0 at p≤0.05 | 20 of 23 | "
      f"{sig.n_significant} of 23 |\n")
    failing = [row.benchmark for row in sig.rows if not row.significant]
    w(f"| non-significant benchmarks | 3 (unnamed in paper) | "
      f"{', '.join(failing)} |\n\n")
    w(_verdicts(lab, "significance"))

    # ---- Headline -----------------------------------------------------
    h = result_of(lab, "headline")
    w("## §1.4 — headline predictions for 400.perlbench\n\n")
    w("| prediction | paper | measured |\n|---|---|---|\n")
    w(f"| perfect-prediction CPI | 0.517 ± 0.029 | {h.perfect_cpi:.3f} ± "
      f"{h.perfect_pi_half:.3f} |\n")
    w(f"| improvement vs current | 26.0% ± 4.2% | "
      f"{h.perfect_improvement_percent:.1f}% |\n")
    w(f"| improvement from halving MPKI | 13.0% ± 2.2% | "
      f"{h.halved_improvement_percent:.1f}% |\n")
    w(f"| misprediction reduction for 10% CPI gain | 38% | "
      f"{h.reduction_for_10pct:.0f}% |\n\n")
    w(_verdicts(lab, "headline"))

    # ---- Ablations and the extended predictor study --------------------
    ext = result_of(lab, "extended")
    tage_ranks = "TAGE's MPKI rank of 6: " + ", ".join(
        f"{name} #{[row.predictor for row in ext.rows_for(name)].index('TAGE') + 1}"
        for name in STUDY_BENCHMARKS
    )
    w("## Ablations and the extended predictor study\n\n")
    w("| claim | paper | measured | verdict |\n|---|---|---|---|\n")
    for claim in claims.claims_for("extended", *ABLATIONS):
        measured = (
            tage_ranks if claim.experiment == "extended"
            else _measured(claims.measured(lab, claim.experiment))
        )
        w(f"| {claim.detail} (`{claim.name}`) | {claim.paper_ref} | {measured} | "
          f"{claim.verdict(lab)} |\n")
    w("\n")

    w("## Known deviations\n\n")
    w("1. **Branch r² levels (Fig. 6)** — higher than the paper's 0.27 "
      "average: our machine model's unattributed variance is smaller "
      "than real hardware's.\n")
    w("2. **Absolute CPI/MPKI levels** — our suite averages ~1.6 CPI / "
      "~9 MPKI vs the paper's 1.387 / 6.306; all relative quantities "
      "(improvements, orderings, significance) match.\n")
    w("3. **L-TAGE estimation error (Fig. 4)** — sub-1% on average like "
      "the paper, but our non-linear outliers keep 2-4% L-TAGE error vs "
      "the paper's <1%, because our traces are ~10^4 branches rather "
      "than 10^9 (less averaging of the wrong-path interaction).\n")
    w("4. **GAs family organization (Fig. 7)** — the budget sweep uses "
      "hybrid-organized predictors at the paper's byte budgets (pure "
      "two-level GAs cannot train at our trace scale); see "
      "`gas_hybrid_family` and DESIGN.md.\n")
    w("5. **Sampling scale** — `small` uses 40 layouts (paper: 100; set "
      "`REPRO_SCALE=paper` for the full campaign); at 40 samples one "
      "borderline benchmark can cross the significance line in either "
      "direction (429.mcf, 433.milc).\n")
    return out.getvalue()


def main() -> int:
    """Write EXPERIMENTS.md to the working directory; 1 if a claim fails."""
    lab = Laboratory()
    document = build_document(lab)
    with open("EXPERIMENTS.md", "w", encoding="utf-8") as handle:
        handle.write(document)
    registry = claims.CLAIMS
    failed = [c.name for c in registry if c.verdict(lab) == claims.FAILS]
    checked = sum(c.checked_at(lab.scale) for c in registry)
    print(f"wrote EXPERIMENTS.md at scale {lab.scale.name}: "
          f"{checked - len(failed)} of {checked} checked claims hold, "
          f"{len(registry) - checked} not checked at this scale")
    if failed:
        print(f"claims that fail: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
