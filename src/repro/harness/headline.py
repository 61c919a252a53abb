"""§1.4 headline predictions for 400.perlbench.

The paper's introduction demonstrates the technique with three
predictions: the CPI of perfect branch prediction (with interval), the
CPI after halving MPKI, and the misprediction reduction required for a
10% CPI improvement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.core.model import PerformanceModel
from repro.harness.lab import Laboratory


@dataclass(frozen=True)
class HeadlineResult:
    """The three §1.4 predictions."""

    benchmark: str
    model: PerformanceModel
    mean_cpi: units.Cpi
    mean_mpki: units.Mpki
    perfect_cpi: units.Cpi
    perfect_pi_half: float
    perfect_improvement_percent: float
    halved_cpi: units.Cpi
    halved_pi_half: float
    halved_improvement_percent: float
    reduction_for_10pct: float

    def render(self) -> str:
        return (
            f"Headline predictions for {self.benchmark} (paper §1.4):\n"
            f"1) perfect prediction: CPI {self.perfect_cpi:.3f} ± "
            f"{self.perfect_pi_half:.3f} — an improvement of "
            f"{self.perfect_improvement_percent:.1f}% "
            f"(paper: 0.517 ± 0.029, 26.0% ± 4.2%)\n"
            f"2) halving MPKI from {self.mean_mpki:.2f} to "
            f"{self.mean_mpki / 2:.2f}: CPI {self.halved_cpi:.3f} ± "
            f"{self.halved_pi_half:.3f}, improvement "
            f"{self.halved_improvement_percent:.1f}% (paper: 13.0% ± 2.2%)\n"
            f"3) a 10% CPI improvement requires a "
            f"{self.reduction_for_10pct:.0f}% misprediction reduction "
            f"(paper: 38%)"
        )


def run(lab: Laboratory, benchmark: str = "400.perlbench") -> HeadlineResult:
    """Compute the §1.4 predictions."""
    model = lab.model(benchmark)
    mean_cpi = float(model.y_values.mean())
    mean_mpki = float(model.x_values.mean())

    perfect = model.perfect_event_prediction()
    halved = model.predict(mean_mpki / 2.0)
    # CPI drop of 10% of the mean requires delta_mpki = 0.1*cpi/slope.
    required_delta = 0.10 * mean_cpi / model.slope
    reduction_percent = required_delta / mean_mpki * 100.0
    return HeadlineResult(
        benchmark=benchmark,
        model=model,
        mean_cpi=mean_cpi,
        mean_mpki=mean_mpki,
        perfect_cpi=perfect.mean,
        perfect_pi_half=perfect.prediction.half_width,
        perfect_improvement_percent=(mean_cpi - perfect.mean) / mean_cpi * 100.0,
        halved_cpi=halved.mean,
        halved_pi_half=halved.prediction.half_width,
        halved_improvement_percent=(mean_cpi - halved.mean) / mean_cpi * 100.0,
        reduction_for_10pct=reduction_percent,
    )
