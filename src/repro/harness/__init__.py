"""Experiment harness: one table of the paper's experiments.

Every figure and table module exposes ``run(lab)``, returning a result
object whose ``render()`` prints the rows and series the paper reports;
a figure with plottable series also exposes ``export(result,
directory)``, writing them as CSV.  :data:`EXPERIMENT_TABLE` lists each
experiment once, with its runner, the campaigns it reads and its
exporter; ``--list``, ``all``, ``--workers`` prefetching, ``--export``,
the claims registry and EXPERIMENTS.md all read it.

A :class:`~repro.harness.lab.Laboratory` carries the machine, the scale
(``REPRO_SCALE`` = ``ci`` / ``small`` / ``paper``) and the campaign
caches.  There is no process-wide laboratory: a run builds one.
:func:`result_of` runs each experiment at most once per laboratory and
keeps its result in ``Laboratory.results``, so Fig. 5 reads Fig. 4's
study and ``--export`` formats the results already printed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.harness import (
    extended,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    headline,
    significance,
    table1,
)
from repro.harness.lab import SCALES, Laboratory, Scale
from repro.workloads.params import CACHE_STUDY_BENCHMARK, FIGURE2_BENCHMARKS

#: ``Experiment.code`` of an experiment that reads every suite campaign.
SUITE = "suite"


@dataclass(frozen=True)
class Experiment:
    """One row of the experiment table."""

    run: Callable[[Laboratory], Any]
    #: Code-reordering campaigns it reads: ``SUITE`` or benchmark names.
    code: str | Sequence[str] = ()
    #: Code+heap randomization campaigns it reads.
    heap: Sequence[str] = ()
    #: Writes the result's plottable series into a directory (None: none).
    export: Callable[[Any, Path], list[Path]] | None = None


EXPERIMENT_TABLE: dict[str, Experiment] = {
    "fig1": Experiment(fig1.run, code=SUITE, export=fig1.export),
    "fig2": Experiment(fig2.run, code=FIGURE2_BENCHMARKS, export=fig2.export),
    "fig3": Experiment(fig3.run, heap=[CACHE_STUDY_BENCHMARK], export=fig3.export),
    # Figures 4 and 5 are MASE-only and read no campaign.
    "fig4": Experiment(fig4.run, export=fig4.export),
    "fig5": Experiment(fig5.run, export=fig5.export),
    "fig6": Experiment(fig6.run, code=SUITE, export=fig6.export),
    "fig7": Experiment(fig7.run, code=SUITE, export=fig7.export),
    "fig8": Experiment(fig8.run, code=SUITE, export=fig8.export),
    "table1": Experiment(table1.run, code=SUITE, export=table1.export),
    "significance": Experiment(significance.run, code=SUITE),
    "headline": Experiment(headline.run, code=["400.perlbench"]),
    "extended": Experiment(extended.run, code=extended.STUDY_BENCHMARKS),
}

#: Experiment name -> runner: the dict the CLI dispatches through and
#: :func:`result_of` runs from, so wrapping an entry in place (to time
#: it, say) covers every run of that experiment.
EXPERIMENTS: dict[str, Callable[[Laboratory], Any]] = {
    name: experiment.run for name, experiment in EXPERIMENT_TABLE.items()
}


def result_of(
    lab: Laboratory, name: str, run: Callable[[Laboratory], Any] | None = None
) -> Any:
    """Experiment *name*'s result on *lab*; each runs at most once per lab.

    The runner is ``EXPERIMENTS[name]``, or *run* for a measurement that
    is not in the table.  A runner that raises stores nothing.
    """
    if name not in lab.results:
        lab.results[name] = (run or EXPERIMENTS[name])(lab)
    return lab.results[name]


def export_csv(
    lab: Laboratory, names: Sequence[str], directory: str | Path
) -> list[Path]:
    """Write the plottable series of the named experiments as CSV.

    Each exporter formats the experiment's stored result.  Experiments
    without plottable series (``significance``, ``headline``,
    ``extended``) write nothing.  Returns the written paths.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for name in names:
        exporter = EXPERIMENT_TABLE[name].export
        if exporter is not None:
            paths.extend(exporter(result_of(lab, name), out))
    return paths


__all__ = [
    "EXPERIMENTS",
    "EXPERIMENT_TABLE",
    "Experiment",
    "Laboratory",
    "SCALES",
    "SUITE",
    "Scale",
    "export_csv",
    "result_of",
]
