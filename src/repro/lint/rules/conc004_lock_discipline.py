"""CONC004 — lock discipline: `with` blocks, no blocking inside, one order.

Three lock mistakes that turn a supervised campaign into a scheduling
lottery, each provable statically:

* **Bare ``acquire()``** — an exception between ``acquire()`` and
  ``release()`` leaks the lock forever; every later contender hangs.
  The ``with`` statement is the only acquisition form the codebase
  sanctions.
* **Blocking while holding** — ``time.sleep``, ``future.result()``,
  ``thread.join()``, or file I/O inside a ``with lock:`` body extends
  the critical section by an unbounded, wall-clock-dependent amount;
  contending contexts serialize on I/O latency, and a watchdog firing
  meanwhile deadlocks against the holder.
* **Inconsistent acquisition order** — nesting ``a`` then ``b`` in
  one place and ``b`` then ``a`` in another is the textbook deadly
  embrace.  The rule collects nested-``with`` lock pairs program-wide
  (by stable lock expression) and flags the later-scanned site of any
  inverted pair.

Lock objects are recognized by provenance (assigned from
``threading.Lock``/``RLock``/``Condition``/``Semaphore``) or by the
naming lexicon (``…_lock``, ``…_mutex``).  Receivers that resolve to
neither are unknown and never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import ModuleInfo
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)
from repro.lint.contextflow import LOCK_CONSTRUCTORS, is_lock_expr, lock_key
from repro.lint.rules.conc002_shared_state import in_scope

#: Dotted calls that block for wall-clock time.
_BLOCKING_DOTTED = {
    "time.sleep": "sleeps",
    "subprocess.run": "waits on a child process",
    "subprocess.check_call": "waits on a child process",
    "subprocess.check_output": "waits on a child process",
}

#: Attribute calls that block (on any receiver — these names are
#: unambiguous in this codebase: futures, threads, processes, queues).
_BLOCKING_METHODS = {
    "result": "waits on a future",
    "join": "waits for another thread of control",
    "wait": "waits on a synchronization object",
}


@register
class LockDisciplineRule(ProgramRule):
    """Locks are held via `with`, briefly, and in one global order."""

    id = "CONC004"
    title = "undisciplined lock usage"
    severity = "error"
    tier = "concurrency"
    rationale = (
        "a bare acquire() leaks the lock on any exception, blocking "
        "calls under a lock stretch the critical section by wall-clock "
        "amounts, and inverted acquisition order deadlocks — all three "
        "make campaign completion depend on scheduling"
    )
    hint = (
        "acquire with `with lock:`, move sleeps/joins/result() calls "
        "outside the critical section, and nest locks in one global "
        "order everywhere"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        program = ctx.program
        pair_sites: dict[tuple[str, str], tuple[str, ast.AST, str]] = {}
        for rel in sorted(program.modules):
            if not in_scope(rel):
                continue
            module = program.modules[rel]
            lock_names = self._constructed_locks(module)
            for node in module.nodes:
                if isinstance(node, ast.Call):
                    yield from self._check_acquire(module, lock_names, node)
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    held = [
                        item.context_expr
                        for item in node.items
                        if self._is_lock(module, lock_names, item.context_expr)
                    ]
                    if not held:
                        continue
                    yield from self._check_blocking(module, node, held[0])
                    self._record_pairs(module, lock_names, node, held, pair_sites)
        yield from self._check_ordering(program, pair_sites)

    # -- lock identification -------------------------------------------

    def _constructed_locks(self, module: ModuleInfo) -> set[str]:
        """Names/attrs assigned from a lock constructor, module-wide."""
        names: set[str] = set()
        for node in module.nodes:
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            if module.imports.resolve(node.value.func) not in LOCK_CONSTRUCTORS:
                continue
            for target in node.targets:
                if isinstance(target, (ast.Name, ast.Attribute)):
                    names.add(lock_key(target))
        return names

    def _is_lock(
        self, module: ModuleInfo, lock_names: set[str], expr: ast.expr
    ) -> bool:
        if is_lock_expr(module, expr):
            return True
        return lock_key(expr) in lock_names

    # -- the three checks ----------------------------------------------

    def _check_acquire(
        self, module: ModuleInfo, lock_names: set[str], call: ast.Call
    ) -> Iterator[Finding]:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "acquire"):
            return
        if not self._is_lock(module, lock_names, func.value):
            return
        yield self.finding_at(
            module.rel,
            call,
            f"bare {ast.unparse(func.value)}.acquire() — an exception "
            "before release() leaks the lock; use "
            f"`with {ast.unparse(func.value)}:`",
            source_line=module.source_text(call),
        )

    def _check_blocking(
        self, module: ModuleInfo, with_node: ast.With, lock_expr: ast.expr
    ) -> Iterator[Finding]:
        for stmt in with_node.body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                reason = None
                dotted = module.imports.resolve(node.func)
                if dotted in _BLOCKING_DOTTED:
                    reason = f"{dotted}() {_BLOCKING_DOTTED[dotted]}"
                elif isinstance(node.func, ast.Name) and node.func.id == "open":
                    reason = "open() performs file I/O"
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _BLOCKING_METHODS
                    # .wait() on the lock's own condition is the
                    # sanctioned pattern — it releases while waiting.
                    and not self._is_lock(module, set(), node.func.value)
                ):
                    reason = (
                        f"{ast.unparse(node.func)}() "
                        f"{_BLOCKING_METHODS[node.func.attr]}"
                    )
                if reason is not None:
                    yield self.finding_at(
                        module.rel,
                        node,
                        f"blocking call while holding "
                        f"{ast.unparse(lock_expr)}: {reason} — the "
                        "critical section now lasts a wall-clock-"
                        "dependent amount of time",
                        source_line=module.source_text(node),
                    )

    def _record_pairs(
        self,
        module: ModuleInfo,
        lock_names: set[str],
        outer: ast.With,
        held: list[ast.expr],
        pair_sites: dict,
    ) -> None:
        keys = [lock_key(e) for e in held]
        # Multiple locks in one `with a, b:` item list order first.
        for first, second in zip(keys, keys[1:]):
            self._add_pair(pair_sites, first, second, module, outer)
        for stmt in outer.body:
            for node in ast.walk(stmt):
                if not isinstance(node, (ast.With, ast.AsyncWith)):
                    continue
                for item in node.items:
                    if self._is_lock(module, lock_names, item.context_expr):
                        inner_key = lock_key(item.context_expr)
                        for outer_key in keys:
                            self._add_pair(
                                pair_sites, outer_key, inner_key, module, node
                            )

    @staticmethod
    def _add_pair(pair_sites, first, second, module, node) -> None:
        if first == second:
            return
        pair = (first, second)
        site = (module.rel, node, module.source_text(node))
        existing = pair_sites.get(pair)
        if existing is None or (
            (site[0], getattr(node, "lineno", 0))
            < (existing[0], getattr(existing[1], "lineno", 0))
        ):
            pair_sites[pair] = site

    def _check_ordering(self, program, pair_sites: dict) -> Iterator[Finding]:
        for pair in sorted(pair_sites):
            first, second = pair
            inverse = pair_sites.get((second, first))
            if inverse is None:
                continue
            rel_a, node_a, _ = pair_sites[pair]
            rel_b, node_b, text_b = inverse
            # Flag the later-scanned of the two sites, once per pair.
            key_a = (rel_a, getattr(node_a, "lineno", 0))
            key_b = (rel_b, getattr(node_b, "lineno", 0))
            if key_b <= key_a:
                continue
            yield self.finding_at(
                rel_b,
                node_b,
                f"locks acquired as {second} then {first} here, but as "
                f"{first} then {second} at {rel_a}:"
                f"{getattr(node_a, 'lineno', 0)} — inverted nesting "
                "orders deadlock when both paths run concurrently",
                source_line=text_b,
            )
