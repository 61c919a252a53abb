"""ASYNC001 — blocking call inside a coroutine without executor offload.

A coroutine runs on the event-loop thread; anything that blocks that
thread — ``time.sleep``, file or socket I/O, ``Future.result()``,
``threading.Lock.acquire()`` — stalls *every* request the loop is
serving, not just the offending one.  The serving layer's latency
contract (p99 bounded by measurement time, not head-of-line blocking)
only holds if all blocking work is offloaded via
``loop.run_in_executor(...)`` / ``asyncio.to_thread(...)``.

The rule checks every ``async def`` in product scope:

* a direct lexicon hit (:data:`~repro.lint.contextflow.BLOCKING_CALLS`,
  blocking builtins, lock/future/queue method patterns) flags at the
  call site;
* a call statically resolving to a *sync* function the
  :class:`~repro.lint.contextflow.ContextModel` proves transitively
  blocking flags with the root cause in the message.

Awaited calls are exempt (the ``await`` is the yield point, not a
block); deferred bodies (nested ``def``/``lambda``) are excluded —
creating a closure is not calling it.  Unresolvable callees contribute
no evidence: UNKNOWN never flags.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.contextflow import (
    blocking_call_reason,
    context_model,
    is_awaited,
)
from repro.lint.rules.conc002_shared_state import in_scope
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)


@register
class BlockingInCoroutineRule(ProgramRule):
    """Coroutines must not block the event-loop thread."""

    id = "ASYNC001"
    title = "blocking call inside a coroutine"
    severity = "error"
    tier = "async"
    rationale = (
        "a blocking call on the event-loop thread stalls every in-flight "
        "request at once; serving-layer latency is only bounded if "
        "blocking work runs in the executor"
    )
    hint = (
        "offload via `await loop.run_in_executor(executor, fn)` or "
        "`await asyncio.to_thread(fn)`; for sleeps use "
        "`await asyncio.sleep(...)`"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        model = context_model(ctx)
        program = ctx.program
        for rel in sorted(program.modules):
            if not in_scope(rel):
                continue
            module = program.modules[rel]
            for qualname in sorted(
                q for q, f in program.functions.items() if f.rel == rel
            ):
                fn = program.functions[qualname]
                if not isinstance(fn.node, ast.AsyncFunctionDef):
                    continue
                yield from self._check_coroutine(model, module, qualname, fn)

    def _check_coroutine(self, model, module, qualname, fn) -> Iterator[Finding]:
        resolved = {
            id(call): targets
            for call, targets in model.resolved_calls.get(qualname, ())
        }
        for call in model.program.scope_of(fn).direct_calls:
            if is_awaited(call):
                continue
            what = blocking_call_reason(module, call)
            if what is not None:
                yield self.finding_at(
                    module.rel,
                    call,
                    f"coroutine {qualname}() makes blocking call {what} "
                    "on the event-loop thread",
                    source_line=module.source_text(call),
                )
                continue
            for target in resolved.get(id(call), ()):
                if model.is_coroutine(target.qualname):
                    continue
                reason = model.blocking_reason_of(target.qualname)
                if reason is not None:
                    yield self.finding_at(
                        module.rel,
                        call,
                        f"coroutine {qualname}() calls "
                        f"{target.qualname}(), which blocks on "
                        f"{reason.render()}",
                        source_line=module.source_text(call),
                    )
                    break
