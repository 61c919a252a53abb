"""ASYNC004 — backpressure contract: no unbounded queues or fan-out.

A serving path with an unbounded ``asyncio.Queue()`` accepts work
faster than the executor drains it; memory and latency grow without
bound and the process falls over at exactly the moment it is busiest.
The same failure mode hides in ``asyncio.gather(*tasks)`` over an
unbounded collection: every element becomes a concurrent task at once.
The contract for the campaign service is explicit admission control —
a ``maxsize`` on every queue and a worker pool between the queue and
the executor.

The rule checks modules in product scope that import :mod:`asyncio`:

* ``asyncio.Queue()`` (and ``LifoQueue``/``PriorityQueue``) with no
  ``maxsize``, ``maxsize=0``, or a non-positive literal flags; a
  positive literal or a *variable* maxsize (UNKNOWN — often a
  validated config value) does not.
* ``asyncio.gather(*expr)`` with a starred argument flags: the fan-out
  width is whatever the iterable happens to hold.  An explicit
  argument list is bounded by construction.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.async001_blocking import in_scope
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)

_QUEUE_CONSTRUCTORS = frozenset(
    {"asyncio.Queue", "asyncio.LifoQueue", "asyncio.PriorityQueue"}
)
_GATHER = frozenset({"asyncio.gather"})


@register
class BackpressureRule(ProgramRule):
    """Serving paths need bounded queues and bounded fan-out."""

    id = "ASYNC004"
    title = "unbounded asyncio queue or gather fan-out"
    severity = "error"
    tier = "async"
    rationale = (
        "an unbounded queue or gather fan-out removes admission "
        "control: under load, memory and tail latency grow without "
        "bound until the serving process falls over"
    )
    hint = (
        "give the queue a maxsize (reject with a backpressure error on "
        "QueueFull) and replace starred gather with a bounded worker "
        "pool draining the queue"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        program = ctx.program
        for rel in sorted(program.modules):
            if not in_scope(rel):
                continue
            module = program.modules[rel]
            if "asyncio" not in module.imports.aliases.values() and not any(
                dotted.startswith("asyncio.")
                for dotted in module.imports.aliases.values()
            ):
                continue
            for node in module.nodes:
                if not isinstance(node, ast.Call):
                    continue
                finding = self._check_call(module, node)
                if finding is not None:
                    yield finding

    def _check_call(self, module, call: ast.Call) -> Finding | None:
        dotted = module.imports.resolve(call.func)
        if dotted in _QUEUE_CONSTRUCTORS:
            if self._unbounded_queue(call):
                return self.finding_at(
                    module.rel,
                    call,
                    f"{dotted}() without a positive maxsize is an "
                    "unbounded queue — producers are never pushed back",
                    source_line=module.source_text(call),
                )
            return None
        if dotted in _GATHER:
            if any(isinstance(arg, ast.Starred) for arg in call.args):
                return self.finding_at(
                    module.rel,
                    call,
                    "asyncio.gather(*…) fans out one task per element "
                    "of an arbitrary iterable — the concurrency is "
                    "unbounded",
                    source_line=module.source_text(call),
                )
        return None

    def _unbounded_queue(self, call: ast.Call) -> bool:
        maxsize: ast.expr | None = None
        if call.args:
            maxsize = call.args[0]
        for kw in call.keywords:
            if kw.arg == "maxsize":
                maxsize = kw.value
        if maxsize is None:
            return True  # asyncio.Queue() defaults to unbounded
        if isinstance(maxsize, ast.Constant):
            value = maxsize.value
            return not (isinstance(value, int) and value > 0)
        return False  # a variable bound is UNKNOWN; never flag
