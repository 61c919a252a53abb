"""The real-machine stand-in: an Intel Xeon E5440 model behind a PMC facade.

The paper's measurement platform is a Xeon E5440 observed exclusively
through performance monitoring counters (§5.4-§5.5).  This package
mirrors that boundary: :class:`~repro.machine.system.XeonE5440`
structurally simulates each executable's bound address streams through
its (undocumented-to-clients) hybrid predictor, BTB, and cache
hierarchy, converts event counts to cycles with a noisy timing model,
and exposes only the counter-reading interface — two programmable
events per run, median-of-five runs per counter group.
"""

from repro.machine.config import XeonE5440Config
from repro.machine.counters import Counter
from repro.machine.pmc import CounterGroupPlan, measure_executable
from repro.machine.system import XeonE5440

__all__ = [
    "Counter",
    "CounterGroupPlan",
    "XeonE5440",
    "XeonE5440Config",
    "measure_executable",
]
