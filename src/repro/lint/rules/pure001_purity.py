"""PURE001 — purity of the observation path.

Everything reachable from ``Interferometer.observe`` *is* the
measurement: if any function on that path writes module state, touches
a file, prints, or reads a clock, observations stop being a pure
function of (machine seed, benchmark, layout index) — campaign order
starts to matter, cache replays diverge from fresh measurements, and
the serial/parallel bit-identity guarantee breaks.

The rule computes the call-graph closure of every
``Interferometer.observe`` method in the program (dynamic method-name
edges included, so unknown receiver types over- rather than
under-approximate), intersects it with the measurement core
(``machine/``, ``uarch/``, ``mase/``), and flags in those functions:

* ``global`` declarations and mutations of module-level containers;
* I/O — ``open``/``print``, file-writing ``Path`` methods, ``os``/
  ``shutil``/``subprocess`` filesystem calls;
* clock reads, *including* the otherwise-sanctioned
  :mod:`repro.telemetry` wrappers — telemetry is for harness-side
  progress lines, never for anything the observation path computes.

Soundness limits: reachability needs ``Interferometer.observe`` in the
scanned set (linting a lone subdirectory yields no roots and no
findings); calls the resolver cannot see (getattr, callbacks held in
data) are invisible.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import CallGraph, FunctionInfo, ModuleInfo, Program
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    has_segment,
    register,
)

#: The measurement core whose reachable functions must stay pure.
_SCOPED_DIRS = ("repro/machine", "repro/uarch", "repro/mase")

#: Canonical names whose call is I/O or a clock read.
_IMPURE_CALLS = frozenset(
    {
        "os.remove", "os.unlink", "os.rename", "os.replace", "os.mkdir",
        "os.makedirs", "os.rmdir", "os.system",
        "shutil.copy", "shutil.copyfile", "shutil.copytree", "shutil.move",
        "shutil.rmtree",
        "subprocess.run", "subprocess.Popen", "subprocess.call",
        "subprocess.check_call", "subprocess.check_output",
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.clock_gettime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today",
        "repro.telemetry.tick_seconds", "repro.telemetry.wall_seconds",
        "telemetry.tick_seconds", "telemetry.wall_seconds",
    }
)

#: Builtins that perform I/O when called by bare name.
_IMPURE_BUILTINS = frozenset({"open", "print", "input"})

#: Attribute methods that write (or stream from) the filesystem.
_IMPURE_METHODS = frozenset(
    {
        "write_text", "write_bytes", "read_text", "read_bytes",
        "unlink", "touch", "mkdir", "rmdir", "symlink_to", "hardlink_to",
    }
)

#: Mutating container methods (on module-level names).
_MUTATING_METHODS = frozenset(
    {"append", "add", "update", "setdefault", "pop", "popitem", "clear",
     "extend", "insert", "remove", "discard"}
)


@register
class ObservationPurityRule(ProgramRule):
    """Keep the Interferometer.observe closure side-effect free."""

    id = "PURE001"
    title = "impure observation path"
    severity = "error"
    rationale = (
        "a side effect inside the Interferometer.observe closure makes "
        "observations depend on campaign order, wall-clock, or the "
        "filesystem instead of only (machine seed, benchmark, layout "
        "index), breaking cache replay and serial/parallel bit-identity"
    )
    hint = (
        "hoist the side effect to the harness (Laboratory/CLI) layer; "
        "measurement code must compute values only from its arguments"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        program: Program = ctx.program  # type: ignore[assignment]
        callgraph: CallGraph = ctx.callgraph  # type: ignore[assignment]
        roots = [
            qualname
            for qualname, info in program.functions.items()
            if info.class_name == "Interferometer"
            and info.name in ("observe", "observe_one")
        ]
        if not roots:
            return  # no observation path in the scanned set
        reachable = callgraph.reachable(roots, include_dynamic=True)
        for qualname in sorted(reachable):
            info = program.functions.get(qualname)
            if info is None:
                continue
            if not any(has_segment(info.rel, d) for d in _SCOPED_DIRS):
                continue
            module = program.modules.get(info.rel)
            if module is None:
                continue
            yield from self._check_function(info, module)

    def _check_function(
        self, info: FunctionInfo, module: ModuleInfo
    ) -> Iterator[Finding]:
        local_names = {
            a.arg
            for a in (
                info.node.args.posonlyargs
                + info.node.args.args
                + info.node.args.kwonlyargs
            )
        }
        # Locally bound names shadow module-level ones for the
        # container-mutation check.
        local_names.update(
            n.id
            for n in ast.walk(info.node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        )
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                yield self.finding_at(
                    module.rel,
                    node,
                    f"{info.name}() declares global "
                    f"{', '.join(node.names)} on the observation path",
                    source_line=module.source_text(node),
                )
            elif isinstance(node, ast.Call):
                yield from self._check_call(info, module, node, local_names)

    def _check_call(
        self,
        info: FunctionInfo,
        module: ModuleInfo,
        node: ast.Call,
        local_names: set[str],
    ) -> Iterator[Finding]:
        resolved = module.imports.resolve(node.func)
        if resolved in _IMPURE_CALLS:
            yield self.finding_at(
                module.rel,
                node,
                f"{resolved}() called on the observation path "
                f"(in {info.name}())",
                source_line=module.source_text(node),
            )
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id in _IMPURE_BUILTINS:
            yield self.finding_at(
                module.rel,
                node,
                f"{func.id}() performs I/O on the observation path "
                f"(in {info.name}())",
                source_line=module.source_text(node),
            )
            return
        if isinstance(func, ast.Attribute):
            if func.attr in _IMPURE_METHODS:
                yield self.finding_at(
                    module.rel,
                    node,
                    f"<path>.{func.attr}() touches the filesystem on the "
                    f"observation path (in {info.name}())",
                    source_line=module.source_text(node),
                )
                return
            if (
                func.attr in _MUTATING_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in module.module_level_names
                and func.value.id not in local_names
            ):
                yield self.finding_at(
                    module.rel,
                    node,
                    f"{info.name}() mutates module-level "
                    f"{func.value.id!r} on the observation path",
                    source_line=module.source_text(node),
                )
