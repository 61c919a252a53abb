"""ASYNC002 — un-awaited coroutine call / dropped ``create_task`` handle.

Calling an ``async def`` produces a coroutine object; as a bare
expression statement it is *never executed* — the work silently does
not happen and Python only mutters a ``RuntimeWarning`` at GC time.
The sibling hazard is ``asyncio.create_task(...)`` whose handle is
immediately discarded: the event loop keeps only a weak reference to
tasks, so a fire-and-forget task can be garbage-collected mid-flight
and cancelled — a nondeterministic partial execution that no test
reliably reproduces.

The rule flags, in product scope:

* an expression statement whose call statically resolves to an
  ``async def`` (the un-awaited coroutine), and
* an expression statement that is a bare ``create_task`` /
  ``ensure_future`` call (the dropped handle).

Anything that keeps the value — ``await``, assignment, an argument
position, ``.append(...)`` — is fine, and an unresolvable call is
UNKNOWN and never flags.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.contextflow import context_model
from repro.lint.rules.async001_blocking import in_scope
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)

_TASK_NAMES = frozenset({"create_task", "ensure_future"})
_TASK_DOTTED = frozenset({"asyncio.create_task", "asyncio.ensure_future"})


@register
class OrphanCoroutineRule(ProgramRule):
    """Coroutines must be awaited; task handles must be kept."""

    id = "ASYNC002"
    title = "un-awaited coroutine or dropped task handle"
    severity = "error"
    tier = "async"
    rationale = (
        "a bare coroutine call never runs, and the loop holds only a "
        "weak reference to tasks — a dropped create_task handle can be "
        "garbage-collected and cancelled mid-flight, nondeterministically"
    )
    hint = (
        "await the coroutine, or keep the task handle alive "
        "(`self._tasks.append(asyncio.create_task(...))`) and await it "
        "on drain"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        model = context_model(ctx)
        program = ctx.program
        for rel in sorted(program.modules):
            if not in_scope(rel):
                continue
            module = program.modules[rel]
            for qualname in sorted(model.resolved_calls):
                fn = program.functions.get(qualname)
                if fn is None or fn.rel != rel:
                    continue
                for call, targets in model.resolved_calls[qualname]:
                    finding = self._check_call(model, module, call, targets)
                    if finding is not None:
                        yield finding

    def _is_discarded(self, call: ast.Call) -> bool:
        """The call's value is dropped (a bare expression statement)."""
        return isinstance(getattr(call, "parent", None), ast.Expr)

    def _check_call(self, model, module, call, targets) -> Finding | None:
        if not self._is_discarded(call):
            return None
        func = call.func
        dotted = module.imports.resolve(func)
        is_task_call = dotted in _TASK_DOTTED or (
            isinstance(func, ast.Attribute) and func.attr in _TASK_NAMES
        )
        if is_task_call:
            return self.finding_at(
                module.rel,
                call,
                "fire-and-forget task: the create_task handle is "
                "discarded, so the loop's weak reference is the only "
                "thing keeping the task alive",
                source_line=module.source_text(call),
            )
        for target in targets:
            if model.is_coroutine(target.qualname):
                return self.finding_at(
                    module.rel,
                    call,
                    f"coroutine {target.qualname}() is called but never "
                    "awaited — the coroutine object is discarded and its "
                    "body never runs",
                    source_line=module.source_text(call),
                )
        return None
