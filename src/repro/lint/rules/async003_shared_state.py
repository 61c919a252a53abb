"""ASYNC003 — state shared across loop/executor contexts without handoff.

The serving layer's split — coroutines on the event-loop thread,
measurement work in executor threads — reintroduces CONC002's data
race in async clothing: an attribute compound-mutated from an executor
thread while the loop (or the main thread) reads or mutates it loses
updates depending on scheduling.  The GIL serializes bytecodes, not
read-modify-write sequences.

The rule runs CONC002's shared-state pass
(:func:`~repro.lint.contextflow.shared_state_conflicts`) over the
loop/executor family of the shared
:class:`~repro.lint.contextflow.ContextModel`: a compound
mutation (``+=``, ``.append``, ``self.x[i] = …``, ``self.x = f(self.x)``)
of ``self.<attr>`` flags when another method touching the same
attribute runs under a provably *different* context set and one side
of the pair involves the event loop — executor-vs-plain-thread
sharing is CONC002's jurisdiction, and re-flagging it here would
double-report without adding the loop-specific remedy.  Sanctioned
handoffs silence it:

* **Lock discipline** — the mutation sits inside ``with self.<lock>:``.
* **asyncio primitives** — attributes holding ``asyncio.Lock`` /
  ``Queue`` / ``Event`` / … have their own loop-confined discipline.
* **call_soon_threadsafe** — a callable handed to the loop via
  ``call_soon_threadsafe`` *executes on the loop thread*; the model
  labels it ``loop`` context, so both sides agree and nothing flags.
* **threading.Event / plain stores** — the same facts as CONC002.

Functions the async machinery never reaches conflict with nothing,
and unresolvable callables contribute no context: UNKNOWN never flags.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.contextflow import (
    MUTATION_KINDS,
    ASYNC_CONTEXTS,
    ASYNC_PRIMITIVE_CONSTRUCTORS,
    context_model,
    render_contexts,
    shared_state_conflicts,
)
from repro.lint.rules.async001_blocking import in_scope
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)


def _crosses_loop(mine: frozenset[str], theirs: frozenset[str]) -> bool:
    """The pair must cross the event-loop boundary: executor-vs-plain-
    thread sharing is CONC002's jurisdiction, not the loop contract's."""
    return "loop" in (mine | theirs)


@register
class AsyncSharedStateRule(ProgramRule):
    """Cross loop/executor mutation needs a lock or an asyncio primitive."""

    id = "ASYNC003"
    title = "state shared between event-loop and executor contexts"
    severity = "error"
    tier = "async"
    rationale = (
        "an attribute compound-mutated from an executor thread while "
        "the event loop touches it loses updates depending on thread "
        "scheduling; the GIL does not make read-modify-write atomic"
    )
    hint = (
        "guard the mutation with `with self._lock:`, hand results "
        "across with `loop.call_soon_threadsafe(...)` or a future, or "
        "confine the state to one context"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        conflicts = shared_state_conflicts(
            context_model(ctx),
            in_scope,
            ASYNC_CONTEXTS,
            exempt=ASYNC_PRIMITIVE_CONSTRUCTORS,
            crosses=_crosses_loop,
        )
        for c in conflicts:
            yield self.finding_at(
                c.module.rel,
                c.use.node,
                f"{c.use.method.qualname}() mutates self.{c.use.attr} "
                f"({MUTATION_KINDS[c.use.kind]}) in async context "
                f"{render_contexts(c.mine, 'outside async')}, but "
                f"{c.other.method.qualname}() touches it in context "
                f"{render_contexts(c.theirs, 'outside async')} — no lock, "
                "asyncio primitive, or call_soon_threadsafe handoff "
                "guards the read-modify-write",
                source_line=c.module.source_text(c.use.node),
            )
