"""DET004 — mutable defaults and module-level mutable state in the core.

The measurement core (``machine/``, ``uarch/``, ``core/``) must be a
pure function of its inputs.  A mutable default argument is shared
across calls, and lowercase module-level containers are writable
global state — both let one campaign's execution leak into the next,
breaking the guarantee that any (seed, benchmark, layout) triple can
be re-measured in isolation to identical bits.

Upper-case module-level constants (lookup tables, registries populated
once at import) follow the write-once convention and are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import (
    Finding,
    Rule,
    RuleContext,
    has_segment,
    register,
)

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}
)

_SCOPED_DIRS = ("repro/machine", "repro/uarch", "repro/core")


def _is_mutable_literal(node: ast.AST) -> bool:
    """A list/dict/set display or a bare mutable-constructor call."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
    )


@register
class MutableStateRule(Rule):
    """Flag shared mutable state in the measurement core."""

    id = "DET004"
    title = "shared mutable state"
    severity = "warning"
    rationale = (
        "mutable defaults and writable module globals persist across "
        "calls and campaigns, so measurement order changes results"
    )
    hint = (
        "default to None and allocate inside the function; hold state "
        "on instances, or use an immutable tuple/Mapping for constants"
    )

    def applies(self, rel: str) -> bool:
        return any(has_segment(rel, d) for d in _SCOPED_DIRS)

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        # Mutable default arguments, anywhere in the file.
        for node in ctx.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for default in list(args.defaults) + [
                    d for d in args.kw_defaults if d is not None
                ]:
                    if _is_mutable_literal(default):
                        yield self.finding(
                            ctx,
                            default,
                            f"mutable default argument in {node.name}() is "
                            "shared across calls",
                        )
        # Module-level mutable containers bound to non-constant names.
        for stmt in ctx.tree.body:
            targets: list[ast.expr] = []
            value: ast.AST | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_literal(value):
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and not target.id.isupper()
                    and not (
                        target.id.startswith("__") and target.id.endswith("__")
                    )
                ):
                    yield self.finding(
                        ctx,
                        stmt,
                        f"module-level mutable container {target.id!r} is "
                        "writable global state",
                    )
