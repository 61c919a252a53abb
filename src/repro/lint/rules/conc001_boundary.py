"""CONC001 — what may cross the MachinePark process boundary.

Parallel campaigns are bit-identical to serial ones only because the
worker receives a *value*: a frozen spec it rebuilds its whole world
from.  Anything live smuggled across the ``ProcessPoolExecutor``
boundary breaks that — a lambda or nested function will not pickle at
all; a bound method drags its entire instance (machines, caches, open
stores) into the worker; a live RNG is *copied*, so parent and worker
silently draw identical streams; a mutable (non-frozen) dataclass
forks into two divergent copies the moment either side writes to it.

CONC001 finds locals bound to a process pool (``with
ProcessPoolExecutor(...) as pool`` or plain assignment) and checks
every ``submit``/``map``/``apply_async`` on them:

* the callable must be a module-level function — lambdas, nested
  defs, and bound methods are flagged;
* arguments may not be lambdas, generator expressions, open files,
  live RNG objects, or instances of non-frozen dataclasses.

Thread pools are exempt (nothing is pickled).  Unresolvable arguments
are unknown and never flagged — the rule proves hazards, it does not
guess.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import FunctionInfo, ModuleInfo, Program
from repro.lint.dataflow import FunctionDataflow
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)

#: Constructors whose result is a *process* pool (pickling boundary).
_POOL_CONSTRUCTORS = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
        "multiprocessing.get_context",
    }
)

#: Methods that ship a callable + arguments to a worker.
_SUBMIT_METHODS = frozenset(
    {"submit", "map", "apply", "apply_async", "imap", "imap_unordered",
     "starmap", "starmap_async", "map_async"}
)

#: Constructors whose result is a live RNG object.
_RNG_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "repro.rng.RandomStream",
    }
)


@register
class WorkerBoundaryRule(ProgramRule):
    """Only frozen values may cross a worker submission."""

    id = "CONC001"
    title = "live object crosses the worker boundary"
    severity = "error"
    rationale = (
        "serial/parallel bit-identity holds because workers rebuild "
        "their world from frozen spec values; lambdas and bound methods "
        "fail or smuggle state through pickling, copied RNGs make "
        "parent and worker draw identical streams, and mutable "
        "dataclasses fork into divergent copies"
    )
    hint = (
        "submit a module-level function and pass primitives or frozen "
        "dataclasses (like core.park._CampaignSpec); reconstruct RNGs "
        "and file handles inside the worker from seeds and paths"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        program: Program = ctx.program  # type: ignore[assignment]
        for qualname in sorted(program.functions):
            info = program.functions[qualname]
            module = program.modules.get(info.rel)
            if module is None:
                continue
            yield from self._check_function(
                program, info, module, FunctionDataflow(program.scope_of(info))
            )

    # -- pool discovery ------------------------------------------------

    def _is_pool_construction(self, module: ModuleInfo, value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        resolved = module.imports.resolve(value.func)
        if resolved in _POOL_CONSTRUCTORS:
            return True
        # multiprocessing.get_context("spawn").Pool(...)
        func = value.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "Pool"
            and isinstance(func.value, ast.Call)
            and module.imports.resolve(func.value.func)
            == "multiprocessing.get_context"
        )

    def _pool_names(
        self, module: ModuleInfo, flow: FunctionDataflow
    ) -> set[str]:
        return {
            name
            for name, values in flow.assignments.items()
            if any(self._is_pool_construction(module, v) for v in values)
        }

    # -- submissions ---------------------------------------------------

    def _check_function(
        self,
        program: Program,
        info: FunctionInfo,
        module: ModuleInfo,
        flow: FunctionDataflow,
    ) -> Iterator[Finding]:
        pools = self._pool_names(module, flow)
        if not pools:
            return
        nested_defs = {
            n.name
            for n in ast.walk(info.node)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            and n is not info.node
        }
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _SUBMIT_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in pools
            ):
                continue
            if not node.args:
                continue
            target, *payload = node.args
            yield from self._check_callable(
                info, module, flow, node, target, nested_defs
            )
            for arg in payload + [
                kw.value for kw in node.keywords if kw.value is not None
            ]:
                yield from self._check_argument(
                    program, info, module, flow, node, arg
                )

    def _check_callable(
        self,
        info: FunctionInfo,
        module: ModuleInfo,
        flow: FunctionDataflow,
        site: ast.Call,
        target: ast.expr,
        nested_defs: set[str],
    ) -> Iterator[Finding]:
        if isinstance(target, ast.Lambda):
            yield self.finding_at(
                module.rel,
                site,
                f"{info.name}() submits a lambda to a process pool — "
                "lambdas cannot be pickled",
                source_line=module.source_text(site),
            )
            return
        if isinstance(target, ast.Attribute):
            resolved = module.imports.resolve(target)
            if resolved is None:
                yield self.finding_at(
                    module.rel,
                    site,
                    f"{info.name}() submits bound method "
                    f"{ast.unparse(target)} — pickling it drags the "
                    "whole instance across the worker boundary",
                    source_line=module.source_text(site),
                )
            return
        if isinstance(target, ast.Name):
            if target.id in nested_defs:
                yield self.finding_at(
                    module.rel,
                    site,
                    f"{info.name}() submits nested function "
                    f"{target.id}() — only module-level functions can "
                    "be pickled",
                    source_line=module.source_text(site),
                )
                return
            values = flow.assignments.get(target.id, [])
            if values and all(isinstance(v, ast.Lambda) for v in values):
                yield self.finding_at(
                    module.rel,
                    site,
                    f"{info.name}() submits {target.id}, a lambda — "
                    "lambdas cannot be pickled",
                    source_line=module.source_text(site),
                )

    def _offence_of(
        self,
        program: Program,
        module: ModuleInfo,
        flow: FunctionDataflow,
        arg: ast.expr,
        _via: str | None = None,
    ) -> str | None:
        """Why *arg* may not cross the boundary (None when unprovable)."""
        suffix = f" (via local {_via!r})" if _via else ""
        if isinstance(arg, ast.Lambda):
            return f"a lambda{suffix} cannot cross the process boundary"
        if isinstance(arg, ast.GeneratorExp):
            return (
                f"a generator expression{suffix} cannot cross the "
                "process boundary"
            )
        if isinstance(arg, ast.Call):
            resolved = module.imports.resolve(arg.func)
            if resolved in _RNG_CONSTRUCTORS:
                return (
                    f"a live RNG ({resolved}){suffix} crosses the worker "
                    "boundary — parent and worker would draw identical "
                    "streams"
                )
            if isinstance(arg.func, ast.Name) and arg.func.id == "open":
                return (
                    f"an open file handle{suffix} cannot cross the "
                    "process boundary"
                )
            instantiated = program.instantiated_class(module, arg)
            if (
                instantiated is not None
                and instantiated.is_dataclass
                and not instantiated.is_frozen_dataclass
            ):
                return (
                    f"mutable dataclass {instantiated.name}{suffix} "
                    "crosses the worker boundary — parent and worker "
                    "copies diverge on first write; declare it "
                    "@dataclass(frozen=True)"
                )
            return None
        if isinstance(arg, ast.Name) and _via is None:
            values = flow.assignments.get(arg.id, [])
            if values:
                offences = [
                    self._offence_of(program, module, flow, v, _via=arg.id)
                    for v in values
                ]
                # Provable only when every reaching definition offends.
                if all(o is not None for o in offences):
                    return offences[0]
        return None

    def _check_argument(
        self,
        program: Program,
        info: FunctionInfo,
        module: ModuleInfo,
        flow: FunctionDataflow,
        site: ast.Call,
        arg: ast.expr,
    ) -> Iterator[Finding]:
        offence = self._offence_of(program, module, flow, arg)
        if offence is not None:
            yield self.finding_at(
                module.rel,
                site,
                f"{info.name}() worker submission: {offence}",
                source_line=module.source_text(site),
            )
