"""DET006 — dict-ordering-sensitive serialization in persistence paths.

``json.dumps`` preserves insertion order, so two semantically equal
payloads built in different key order serialize to different bytes —
and different checksums, cache digests, and store filenames.  Every
dump in a persistence/store path must pass ``sort_keys=True`` so the
byte stream is a function of the *content*, not of dict construction
history.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import (
    Finding,
    Rule,
    RuleContext,
    basename,
    register,
)

_DUMP_CALLS = frozenset({"json.dump", "json.dumps"})

#: Persistence/store files (by name, wherever they live) — the paths
#: whose bytes feed checksums, digests, and on-disk envelopes.
_SCOPED_BASENAMES = ("store.py", "export.py")


@register
class JsonOrderingRule(Rule):
    """Flag non-sort_keys JSON dumps where bytes must be stable."""

    id = "DET006"
    title = "order-sensitive serialization"
    severity = "error"
    rationale = (
        "json.dumps preserves dict insertion order, so equal payloads "
        "built in different order yield different bytes and checksums"
    )
    hint = "pass sort_keys=True so serialized bytes depend only on content"

    def applies(self, rel: str) -> bool:
        name = basename(rel)
        return name in _SCOPED_BASENAMES or "persistence" in name or "store" in name

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = imports.resolve(node.func)
            if name not in _DUMP_CALLS:
                continue
            if not any(kw.arg == "sort_keys" for kw in node.keywords):
                yield self.finding(
                    ctx, node, f"{name}() without sort_keys=True"
                )
