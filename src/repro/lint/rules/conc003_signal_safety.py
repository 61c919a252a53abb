"""CONC003 — signal handlers may only set flags, record, or raise.

CPython delivers signals between bytecodes of the *main* thread, which
means a handler preempts arbitrary code — possibly code holding the
very lock the handler would take (classic deadlock), possibly code
halfway through a buffered write (corrupt output), possibly the
allocator itself.  The repro contract for handlers is therefore the
POSIX async-signal-safe discipline translated to Python: a handler,
and everything statically reachable from it, may only

* set flags (plain attribute/name stores, ``Event.set``),
* record telemetry (``repro.telemetry`` is monotonic reads and
  counter bumps), and
* raise sanctioned :mod:`repro.errors` exceptions (the escalation
  path out of a stuck drain).

This rule walks the call graph from every statically resolved
``signal.signal(...)`` handler (including nested-``def`` handlers,
whose bodies are checked directly) and flags provable violations in
reached code: I/O (``open``, ``print``, ``subprocess``), blocking
calls (``time.sleep``), lock acquisition (``.acquire()`` or ``with``
on a lock-like object), logging (handlers firing inside the logging
module's own locks re-enter them), and allocation-heavy serialization
(``json.dumps``, ``pickle.dumps``).  Unresolvable calls are unknown
and never flagged; reachability uses static edges only.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.callgraph import FunctionInfo, ModuleInfo
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)
from repro.lint.contextflow import context_model, is_lock_expr
from repro.lint.rules.conc002_shared_state import in_scope

#: Canonical dotted names that are I/O, blocking, or allocation-heavy.
_DENIED_DOTTED = {
    "time.sleep": "blocks the preempted main thread",
    "builtins.open": "performs file I/O",
    "builtins.print": "writes to a possibly-locked, buffered stream",
    "builtins.input": "blocks on terminal input",
    "os.system": "spawns a process",
    "os.write": "performs file I/O",
    "os.read": "performs file I/O",
    "subprocess.run": "spawns a process",
    "subprocess.Popen": "spawns a process",
    "subprocess.check_call": "spawns a process",
    "subprocess.check_output": "spawns a process",
    "json.dump": "serializes (allocation-heavy) and performs I/O",
    "json.dumps": "serializes, an allocation-heavy operation",
    "pickle.dump": "serializes (allocation-heavy) and performs I/O",
    "pickle.dumps": "serializes, an allocation-heavy operation",
    "shutil.copy": "performs file I/O",
    "shutil.copytree": "performs file I/O",
}

#: Bare builtins (no import table entry) with the same verdicts.
_DENIED_BARE = {"open", "print", "input"}

#: Logging emit methods; the logging module takes module and handler
#: locks on every record, which the preempted code may already hold.
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "critical", "exception", "log"}
)

_LOGGER_NAME_RE = re.compile(r"(?i)^_?log(ger)?$")


def _is_logger_receiver(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name):
        return bool(_LOGGER_NAME_RE.match(expr.id))
    if isinstance(expr, ast.Attribute):
        return bool(_LOGGER_NAME_RE.match(expr.attr))
    return False


@register
class SignalSafetyRule(ProgramRule):
    """Everything a signal handler reaches must be async-signal-safe."""

    id = "CONC003"
    title = "signal handler reaches signal-unsafe code"
    severity = "error"
    tier = "concurrency"
    rationale = (
        "signals preempt arbitrary main-thread bytecode; I/O, lock "
        "acquisition, logging, or heavy allocation in a handler can "
        "deadlock against the preempted frame or corrupt half-written "
        "output, nondeterministically by delivery timing"
    )
    hint = (
        "a handler may only set flags, record telemetry, or raise a "
        "repro.errors exception; defer real work to the main loop by "
        "setting an Event it polls"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        program = ctx.program
        model = context_model(ctx)
        for fn in model.signal_functions():
            if not in_scope(fn.rel):
                continue
            module = program.modules.get(fn.rel)
            if module is None:
                continue
            yield from self._check_nodes(
                module, fn.qualname, program.scope_of(fn).nodes
            )
        for region in model.signal_regions():
            if not in_scope(region.module.rel):
                continue
            label = (
                f"{region.enclosing.qualname}.{region.node.name}"
                if region.enclosing is not None
                else region.node.name
            )
            yield from self._check_nodes(
                region.module, label, program.body_nodes(region.node)
            )

    def _check_nodes(
        self, module: ModuleInfo, label: str, nodes: list[ast.AST]
    ) -> Iterator[Finding]:
        for node in nodes:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if is_lock_expr(module, item.context_expr):
                        yield self._violation(
                            module,
                            label,
                            node,
                            f"acquires lock "
                            f"{ast.unparse(item.context_expr)}",
                        )
            if not isinstance(node, ast.Call):
                continue
            reason = self._call_reason(module, node)
            if reason is not None:
                yield self._violation(module, label, node, reason)

    def _call_reason(self, module: ModuleInfo, call: ast.Call) -> str | None:
        func = call.func
        dotted = module.imports.resolve(func)
        if dotted in _DENIED_DOTTED:
            return f"calls {dotted}(), which {_DENIED_DOTTED[dotted]}"
        if isinstance(func, ast.Name) and func.id in _DENIED_BARE:
            bare = f"builtins.{func.id}"
            return f"calls {func.id}(), which {_DENIED_DOTTED[bare]}"
        if isinstance(func, ast.Attribute):
            if func.attr == "acquire":
                return (
                    f"acquires {ast.unparse(func.value)} — the preempted "
                    "frame may already hold it"
                )
            if func.attr in _LOG_METHODS and _is_logger_receiver(func.value):
                return (
                    f"logs via {ast.unparse(func.value)} — the logging "
                    "module takes its own locks on every record"
                )
        return None

    def _violation(
        self, module: ModuleInfo, label: str, node: ast.AST, reason: str
    ) -> Finding:
        return self.finding_at(
            module.rel,
            node,
            f"{label}(), reachable from a signal handler, {reason}",
            source_line=module.source_text(node),
        )
