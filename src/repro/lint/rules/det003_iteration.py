"""DET003 — nondeterministic iteration order.

Set iteration order varies with hash seeding and insertion history;
``os.listdir`` / ``glob`` / ``Path.iterdir`` return entries in
filesystem order, which differs across machines and over a store
directory's lifetime.  Any such sequence feeding a measurement loop,
a serialization, or a digest makes the output depend on factors
outside the campaign key.  Wrapping the scan directly in
``sorted(...)`` is the sanctioned fix and is not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import (
    Finding,
    Rule,
    RuleContext,
    is_sorted_wrapped,
    register,
)

#: Directory scans with filesystem-determined order.
_SCAN_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

#: Method names that scan a directory when called on a Path-like value.
_SCAN_METHODS = frozenset({"iterdir", "glob", "rglob"})


def _is_set_expr(node: ast.AST) -> bool:
    """A set display, set comprehension, or bare set()/frozenset() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


@register
class NondeterministicIterationRule(Rule):
    """Flag unsorted directory scans and direct set iteration."""

    id = "DET003"
    title = "nondeterministic iteration"
    severity = "error"
    rationale = (
        "set and directory-scan order depend on hash seeding and "
        "filesystem state, so loops over them process (and emit) items "
        "in a machine-dependent order"
    )
    hint = "wrap the scan or set in sorted(...) before iterating"

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ctx.nodes:
            if isinstance(node, ast.Call):
                name = imports.resolve(node.func)
                is_scan = name in _SCAN_CALLS or (
                    name is None
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SCAN_METHODS
                )
                if is_scan and not is_sorted_wrapped(node):
                    label = name or f"<path>.{node.func.attr}"  # type: ignore[union-attr]
                    yield self.finding(
                        ctx,
                        node,
                        f"{label}() yields entries in filesystem order",
                    )
            elif isinstance(node, ast.For):
                if _is_set_expr(node.iter) and not is_sorted_wrapped(node.iter):
                    yield self.finding(
                        ctx, node.iter, "iterating a set has unstable order"
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter) and not is_sorted_wrapped(gen.iter):
                        yield self.finding(
                            ctx,
                            gen.iter,
                            "comprehension over a set has unstable order",
                        )
