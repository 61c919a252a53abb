"""CONC002 — shared mutable state without lock/Event/atomic-flag discipline.

The supervised executor (PR 7) runs genuinely concurrent code: watchdog
work threads, signal handlers, pool callables.  An attribute that one
context *compound-mutates* (``+=``, ``.append``, ``self.x[i] = …``,
``self.x = f(self.x)``) while another context touches it is a data
race: the GIL serializes bytecodes, not read-modify-write sequences,
so two contexts interleaving ``load / modify / store`` lose updates —
and which update is lost depends on scheduling, breaking bit-identical
reproduction in exactly the way nothing downstream can detect.

The rule reads the thread/signal family of the shared
:class:`~repro.lint.contextflow.ContextModel` (which contexts can
execute each method, from statically resolved ``Thread(target=…)`` /
``signal.signal`` / thread-pool submissions) and, through the
shared-state pass it runs with ASYNC003
(:func:`~repro.lint.contextflow.shared_state_conflicts`), flags a
compound mutation of ``self.<attr>`` when some *other* method touching
the same attribute runs under a provably different context set.  Three disciplines silence it, because they are actually
safe:

* **Lock**: the mutation sits inside ``with self.<lock>:`` for a lock
  attribute (assigned from ``threading.Lock``/``RLock``/…).
* **Event**: the attribute is a ``threading.Event`` — ``set``/
  ``is_set`` are single bytecodes on the C object.
* **Atomic flag**: plain single stores (``self.done = True``) are one
  ``STORE_ATTR`` bytecode and never flagged; cross-context signalling
  via write-once flags is the codebase's sanctioned pattern.

Functions only reachable from the main context (the empty context set)
conflict with nothing; unresolvable thread targets contribute no
context, so UNKNOWN never flags.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    has_segment,
    register,
)
from repro.lint.contextflow import (
    MUTATION_KINDS,
    THREAD_CONTEXTS,
    context_model,
    render_contexts,
    shared_state_conflicts,
)


def in_scope(rel: str) -> bool:
    """Product source only: the concurrency and event-loop contracts
    bind ``repro/`` modules; test helpers may race or block on purpose
    to provoke them."""
    return has_segment(rel, "repro") and not has_segment(rel, "tests")


@register
class SharedStateRule(ProgramRule):
    """Cross-context compound mutation needs a lock or an Event."""

    id = "CONC002"
    title = "shared state mutated across concurrency contexts"
    severity = "error"
    tier = "concurrency"
    rationale = (
        "the GIL serializes bytecodes, not read-modify-write sequences; "
        "an attribute compound-mutated in one context and touched in "
        "another loses updates depending on thread scheduling, which "
        "breaks bit-identical reproduction nondeterministically"
    )
    hint = (
        "guard the mutation with `with self._lock:`, make the attribute "
        "a threading.Event, or restructure to a single plain store "
        "(atomic flag) — see ShutdownHandler for the sanctioned patterns"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        conflicts = shared_state_conflicts(
            context_model(ctx), in_scope, THREAD_CONTEXTS
        )
        for c in conflicts:
            yield self.finding_at(
                c.module.rel,
                c.use.node,
                f"{c.use.method.qualname}() mutates self.{c.use.attr} "
                f"({MUTATION_KINDS[c.use.kind]}) in context "
                f"{render_contexts(c.mine, 'main only')}, but "
                f"{c.other.method.qualname}() touches it in context "
                f"{render_contexts(c.theirs, 'main only')} — the "
                "read-modify-write is not atomic under the GIL",
                source_line=c.module.source_text(c.use.node),
            )
