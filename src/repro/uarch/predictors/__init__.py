"""Branch predictor implementations.

The zoo spans the paper's needs: the static and bimodal baselines, the
gshare/GAs two-level family (Yeh & Patt) used for the hardware-budget
sweep of Figure 7, the per-address PAs variant, the hybrid
GAs+bimodal-with-chooser design the paper attributes to the Xeon E5440
(§5.4), the perceptron predictor (extension), TAGE, and L-TAGE (TAGE
plus a loop predictor) — "currently the most accurate branch predictor
in the academic literature" (§7.2.2) — plus the perfect predictor.

Every predictor exposes :meth:`~base.BranchPredictor.simulate`, which
consumes a bound address stream and outcome stream and returns the
misprediction count; concrete classes supply the per-event oracle
and the vector ``scan``.
"""

from repro.uarch.predictors.agree import AgreePredictor
from repro.uarch.predictors.base import BranchPredictor
from repro.uarch.predictors.bimodal import BimodalPredictor
from repro.uarch.predictors.bimode import BiModePredictor
from repro.uarch.predictors.gskew import GskewPredictor
from repro.uarch.predictors.gas import GAsPredictor
from repro.uarch.predictors.gshare import GsharePredictor
from repro.uarch.predictors.hybrid import HybridPredictor
from repro.uarch.predictors.pas import PAsPredictor
from repro.uarch.predictors.perceptron import PerceptronPredictor
from repro.uarch.predictors.perfect import PerfectPredictor
from repro.uarch.predictors.static import AlwaysNotTakenPredictor, AlwaysTakenPredictor
from repro.uarch.predictors.indirect import IttageLitePredictor, LastTargetPredictor
from repro.uarch.predictors.tage import LTagePredictor, TagePredictor
from repro.uarch.predictors.tournament import TournamentPredictor

__all__ = [
    "AgreePredictor",
    "AlwaysNotTakenPredictor",
    "AlwaysTakenPredictor",
    "BiModePredictor",
    "BimodalPredictor",
    "BranchPredictor",
    "GAsPredictor",
    "GsharePredictor",
    "GskewPredictor",
    "HybridPredictor",
    "IttageLitePredictor",
    "LTagePredictor",
    "LastTargetPredictor",
    "PAsPredictor",
    "PerceptronPredictor",
    "PerfectPredictor",
    "TagePredictor",
    "TournamentPredictor",
]
