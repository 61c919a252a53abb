"""CONC005 — thread lifecycle and deadline clock discipline.

Two lifecycle mistakes, both of which PR 7's supervision layer was
designed to rule out:

* **Unjoined non-daemon threads.**  A ``threading.Thread`` without
  ``daemon=True`` keeps the interpreter alive after the main thread
  exits; a campaign that "finished" still hangs on shutdown, and CI
  kills it at the job timeout with no artifact.  A thread is fine when
  it is provably daemonized (``daemon=True`` at construction, or a
  ``t.daemon = True`` store before start) or provably joined
  (``t.join(...)`` anywhere in the creating scope).  Threads whose
  handle escapes the scope are unknown and never flagged.

* **Wall clock in deadline arithmetic.**  ``time.time()`` (and
  ``repro.telemetry.wall_seconds``, and ``datetime.now``) jumps under
  NTP slew and DST; a deadline computed from it can fire a watchdog
  early, late, or never.  Deadline arithmetic must use the monotonic
  clock (``repro.telemetry.tick_seconds``).  The rule flags a
  wall-clock call when its value provably participates in
  deadline/timeout arithmetic: the enclosing statement (or a
  ``timeout=`` keyword it feeds) names a deadline-lexicon identifier,
  or the call's result is assigned to a local that later meets a
  deadline-lexicon name inside the same comparison or arithmetic
  expression.  Wall-clock reads that only stamp metadata stay legal
  (that is DET002's separately-allowlisted territory).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.callgraph import ModuleInfo, Program
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)
from repro.lint.rules.conc002_shared_state import in_scope

_THREAD_CONSTRUCTORS = frozenset({"threading.Thread", "threading.Timer"})

#: Identifier lexicon for deadline/timeout arithmetic.
DEADLINE_NAME_RE = re.compile(
    r"(^|_)(deadline|deadlines|timeout|timeouts|expiry|expires|remaining)(_|$)"
)

#: Calls returning wall-clock time (non-monotonic).
_WALL_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "repro.telemetry.wall_seconds",
    }
)


def _deadline_names_in(node: ast.AST, *, skip: ast.AST | None = None) -> bool:
    for sub in ast.walk(node):
        if sub is skip:
            continue
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is not None and DEADLINE_NAME_RE.search(name):
            return True
    return False


def _enclosing_statement(node: ast.AST) -> ast.stmt | None:
    current = node
    while current is not None and not isinstance(current, ast.stmt):
        current = getattr(current, "parent", None)
    return current


@register
class ThreadLifecycleRule(ProgramRule):
    """Threads are daemonized or joined; deadlines use the monotonic clock."""

    id = "CONC005"
    title = "thread lifecycle or deadline clock hazard"
    severity = "error"
    tier = "concurrency"
    rationale = (
        "an unjoined non-daemon thread keeps the process alive after "
        "the campaign ends, and wall-clock deadlines drift under NTP "
        "slew — both make run completion depend on the host instead of "
        "the measured program"
    )
    hint = (
        "construct helper threads with daemon=True (or join them in "
        "the creating scope) and compute deadlines from "
        "repro.telemetry.tick_seconds(), never the wall clock"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        program: Program = ctx.program  # type: ignore[assignment]
        for rel in sorted(program.modules):
            if not in_scope(rel):
                continue
            module = program.modules[rel]
            yield from self._check_module(program, module)

    def _check_module(
        self, program: Program, module: ModuleInfo
    ) -> Iterator[Finding]:
        for nodes in self._scopes(program, module):
            yield from self._check_thread_lifecycle(module, nodes)
            yield from self._check_wall_clock(module, nodes)

    @staticmethod
    def _scopes(program: Program, module: ModuleInfo):
        """The body nodes of the module top level and of every def,
        nested ones included (each also scanned within its own scope)."""
        yield program.body_nodes(module.tree)
        for node in module.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield program.body_nodes(node)

    # -- unjoined non-daemon threads -----------------------------------

    def _check_thread_lifecycle(
        self, module: ModuleInfo, nodes: list[ast.AST]
    ) -> Iterator[Finding]:
        joined, daemonized = self._lifecycle_names(nodes)
        for call in nodes:
            if not isinstance(call, ast.Call):
                continue
            if module.imports.resolve(call.func) not in _THREAD_CONSTRUCTORS:
                continue
            if self._daemon_kw(call):
                continue
            target = self._assignment_target(call)
            if target is not None:
                if target in joined or target in daemonized:
                    continue
                yield self.finding_at(
                    module.rel,
                    call,
                    f"non-daemon thread {target!r} is never joined or "
                    "daemonized in its creating scope — it outlives the "
                    "campaign and blocks interpreter shutdown",
                    source_line=module.source_text(call),
                )
            elif self._started_inline(call):
                yield self.finding_at(
                    module.rel,
                    call,
                    "non-daemon thread started inline with no handle — "
                    "nothing can ever join it, so it blocks interpreter "
                    "shutdown",
                    source_line=module.source_text(call),
                )

    @staticmethod
    def _daemon_kw(call: ast.Call) -> bool:
        for kw in call.keywords:
            if (
                kw.arg == "daemon"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return True
        return False

    @staticmethod
    def _assignment_target(call: ast.Call) -> str | None:
        parent = getattr(call, "parent", None)
        if (
            isinstance(parent, ast.Assign)
            and len(parent.targets) == 1
            and isinstance(parent.targets[0], ast.Name)
        ):
            return parent.targets[0].id
        return None

    @staticmethod
    def _started_inline(call: ast.Call) -> bool:
        parent = getattr(call, "parent", None)
        return (
            isinstance(parent, ast.Attribute)
            and parent.attr == "start"
            and isinstance(getattr(parent, "parent", None), ast.Call)
        )

    @staticmethod
    def _lifecycle_names(nodes: list[ast.AST]) -> tuple[set[str], set[str]]:
        joined: set[str] = set()
        daemonized: set[str] = set()
        for node in nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and isinstance(node.func.value, ast.Name)
            ):
                joined.add(node.func.value.id)
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "daemon"
                        and isinstance(target.value, ast.Name)
                        and isinstance(node.value, ast.Constant)
                        and node.value.value is True
                    ):
                        daemonized.add(target.value.id)
        return joined, daemonized

    # -- wall clock in deadline arithmetic -----------------------------

    def _check_wall_clock(
        self, module: ModuleInfo, nodes: list[ast.AST]
    ) -> Iterator[Finding]:
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = module.imports.resolve(node.func)
            if dotted not in _WALL_CALLS:
                continue
            how = self._deadline_use(nodes, node)
            if how is None:
                continue
            yield self.finding_at(
                module.rel,
                node,
                f"wall clock {dotted}() feeds deadline arithmetic "
                f"({how}) — wall time jumps under NTP slew, so the "
                "deadline fires early, late, or never; use "
                "repro.telemetry.tick_seconds()",
                source_line=module.source_text(node),
            )

    def _deadline_use(
        self, nodes: list[ast.AST], call: ast.Call
    ) -> str | None:
        # (a) a timeout= keyword anywhere above the call.
        current: ast.AST | None = call
        while current is not None and not isinstance(current, ast.stmt):
            if isinstance(current, ast.keyword) and current.arg and (
                DEADLINE_NAME_RE.search(current.arg)
            ):
                return f"passed as {current.arg}="
            current = getattr(current, "parent", None)
        stmt = _enclosing_statement(call)
        if stmt is None:
            return None
        # (b) the enclosing statement names a deadline identifier.
        if _deadline_names_in(stmt, skip=call):
            return "the statement names a deadline/timeout value"
        # (c) one assignment hop: the result lands in a local that some
        # arithmetic or comparison later combines with a deadline name.
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and (
            isinstance(stmt.targets[0], ast.Name)
        ):
            local = stmt.targets[0].id
            for node in nodes:
                if not isinstance(node, (ast.BinOp, ast.Compare)):
                    continue
                names = {
                    sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)
                }
                if local in names and any(
                    DEADLINE_NAME_RE.search(n) for n in names if n != local
                ):
                    return (
                        f"via local {local!r}, later combined with a "
                        "deadline value"
                    )
        return None
