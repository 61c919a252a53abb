"""Layer boundaries of the program, wrapped from outside for a traced run.

Each entry patches one public function or method so that every call is
a span of a :class:`~tracer.Tracer`.  Nothing under ``src/`` changes:
the wrappers are installed in the benchmark's own process after the
program is imported, and the process ends with the run.
"""

from __future__ import annotations

import inspect
import sys
from typing import Any, Callable

from tracer import Tracer

#: ``BranchPredictor.simulate`` spans are keyed by the predictor's module.
PREDICTOR_MODULES = (
    "hybrid", "tage", "perceptron", "bimode", "gskew", "gshare",
    "gas", "pas", "agree", "tournament", "bimodal",
)
#: Cache spans are keyed by the level's configured name; the MASE
#: simulator's ``mase-L1I`` etc. run the same kernel at the same level.
CACHE_LEVELS = ("l1i", "l1d", "l2")


def patch(owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.name`` by ``make(original)``, keeping its kind.

    A boundary the program no longer has is skipped with a note, so its
    layer reads 0 instead of the traced run failing.
    """
    try:
        raw = inspect.getattr_static(owner, name)
    except AttributeError:
        print(f"[perfbench] no layer boundary {owner!r}.{name}", file=sys.stderr)
        return
    if isinstance(raw, staticmethod):
        setattr(owner, name, staticmethod(make(raw.__func__)))
    elif isinstance(raw, classmethod):
        setattr(owner, name, classmethod(make(raw.__func__)))
    else:
        setattr(owner, name, make(raw))


def _cache_level(cache: Any, addresses: Any, *args: Any, **kwargs: Any) -> str | None:
    level = cache.config.name.lower().rsplit("-", 1)[-1]
    return f"uarch.{level}" if level in CACHE_LEVELS else None


def _btb_layer(*args: Any, **kwargs: Any) -> str:
    return "uarch.btb"


def _predictor_layer(predictor: Any, *args: Any, **kwargs: Any) -> str | None:
    module = type(predictor).__module__.rsplit(".", 1)[-1]
    return f"uarch.{module}" if module in PREDICTOR_MODULES else None


class ProgramLayers:
    """The wrapped boundaries of one traced run and what they observed."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.stores: list[Any] = []
        self.fingerprints: set[str] = set()

    def _traced(self, layer: Any, after: Any = None) -> Callable[[Callable], Callable]:
        """A :func:`patch` maker wrapping the original in a span of *layer*."""
        return lambda func: self.tracer.traced(func, layer, after)

    def _events(self, layer_of: Callable[..., str | None]) -> Callable[..., None]:
        """An ``after`` hook counting the events in the first array argument."""

        def after(result: Any, owner: Any, addresses: Any, *args: Any, **kwargs: Any) -> None:
            layer = layer_of(owner, addresses)
            self.tracer.counts[f"{layer}.events"] += int(addresses.size)

        return after

    def install_cli(self) -> None:
        """Wrap the layers the experiment CLI drives."""
        from repro import cli
        from repro.core import interferometer
        from repro.core.blame import BlameAnalysis
        from repro.core.model import PerformanceModel
        from repro.machine.core_model import XeonCoreModel
        from repro.machine.pmc import CounterSession
        from repro.mase.simulator import MaseSimulator
        from repro.pintool.brsim import PinTool
        from repro.store import CampaignStore
        from repro.toolchain.camino import Camino
        from repro.uarch.btb import BranchTargetBuffer
        from repro.uarch.caches import SetAssociativeCache
        from repro.uarch.predictors.base import BranchPredictor
        from repro.workloads.suite import Benchmark

        counts = self.tracer.counts
        traced = self._traced

        def render_traced(result: Any, lab: Any) -> None:
            cls = type(result)
            render = getattr(cls, "render", None)
            if render is not None and not getattr(render, "perfbench_traced", False):
                patch(cls, "render", traced("harness.render"))

        for name in list(cli.EXPERIMENTS):
            cli.EXPERIMENTS[name] = self.tracer.traced(
                cli.EXPERIMENTS[name], "harness.experiment", render_traced
            )
        patch(Benchmark, "trace", traced("workloads.trace"))
        patch(Camino, "build", traced("toolchain.build"))
        patch(
            SetAssociativeCache,
            "simulate_mask",
            traced(_cache_level, self._events(_cache_level)),
        )
        patch(BranchTargetBuffer, "simulate", traced(_btb_layer, self._events(_btb_layer)))
        patch(
            BranchPredictor,
            "simulate",
            traced(_predictor_layer, self._events(_predictor_layer)),
        )

        def executed(result: Any, model: Any, executable: Any, *args: Any, **kwargs: Any) -> None:
            self.fingerprints.add(executable.fingerprint)

        patch(XeonCoreModel, "execute", traced("machine.core_model", executed))
        patch(interferometer, "measure_executable", traced("machine.pmc"))

        def count_rereads(read: Callable) -> Callable:
            def wrapper(session: Any, *args: Any, **kwargs: Any) -> Any:
                before = session.retried_reads
                try:
                    return read(session, *args, **kwargs)
                finally:
                    counts["machine.pmc.rereads"] += session.retried_reads - before

            return wrapper

        patch(CounterSession, "read", count_rereads)

        def loaded(result: Any, store: Any, key: Any) -> None:
            if result is not None:
                counts["store.bytes_read"] += store.path_for(key).stat().st_size

        def saved(path: Any, store: Any, key: Any, observations: Any) -> None:
            counts["store.bytes_written"] += path.stat().st_size

        patch(CampaignStore, "load", traced("store.load", loaded))
        patch(CampaignStore, "save", traced("store.save", saved))

        def keep_store(init: Callable) -> Callable:
            def wrapper(store: Any, *args: Any, **kwargs: Any) -> None:
                init(store, *args, **kwargs)
                self.stores.append(store)

            return wrapper

        patch(CampaignStore, "__init__", keep_store)
        patch(PerformanceModel, "from_observations", traced("core.model_fit"))
        patch(BlameAnalysis, "analyze", traced("core.blame"))
        patch(PinTool, "run", traced("pintool.run"))
        patch(MaseSimulator, "prepare", traced("mase.prepare"))
        patch(MaseSimulator, "run", traced("mase.run"))

    def install_lint(self) -> None:
        """Wrap the linter's per-file pass, program build and rule pass.

        ``LintEngine.run`` parses and checks each file through
        ``_parse`` and ``_file_findings`` (``lint_file`` is the
        single-file entry point and is not on this path), so those two
        are the per-file boundary; the self time of ``run`` is the
        program-rule pass plus its bookkeeping.
        """
        from repro.lint.engine import LintEngine

        patch(LintEngine, "_parse", self._traced("lint.parse"))
        patch(LintEngine, "_file_findings", self._traced("lint.file_rules"))
        patch(LintEngine, "build_program_context", self._traced("lint.program_build"))
        patch(LintEngine, "run", self._traced("lint.run"))

    def store_counts(self) -> dict[str, int]:
        """Summed ``StoreStats.snapshot()`` counters of every store opened."""
        totals = {"hits": 0, "misses": 0, "quarantined": 0}
        for store in self.stores:
            view = store.stats.snapshot()
            for key in totals:
                totals[key] += view[key]
        return totals
