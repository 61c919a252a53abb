"""DET005 — environment-variable reads inside worker/campaign paths.

Configuration surfaces (the CLI, the laboratory constructor) may read
the environment once, up front.  Code that runs *inside* a campaign —
the measurement core, the store, fault handling — must not: a worker
process inheriting a different environment than the supervisor, or an
env var changing between a measurement and its retry, would produce
observations that are no longer a pure function of the campaign key.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import (
    Finding,
    Rule,
    RuleContext,
    basename,
    has_segment,
    register,
)

#: Worker/campaign code paths: everything that executes during a
#: campaign, as opposed to up-front configuration (cli, harness).
_SCOPED_DIRS = (
    "repro/core",
    "repro/machine",
    "repro/uarch",
    "repro/heap",
    "repro/toolchain",
    "repro/program",
)
_SCOPED_FILES = ("faults.py", "store.py")


@register
class EnvReadRule(Rule):
    """Flag env reads where campaigns execute."""

    id = "DET005"
    title = "env read in campaign path"
    severity = "warning"
    rationale = (
        "workers can inherit a different environment than the "
        "supervisor, and env vars can change between a measurement and "
        "its retry — results stop being a function of the campaign key"
    )
    hint = (
        "resolve the setting once at configuration time (CLI/Laboratory) "
        "and pass it down explicitly"
    )

    def applies(self, rel: str) -> bool:
        return any(has_segment(rel, d) for d in _SCOPED_DIRS) or (
            basename(rel) in _SCOPED_FILES and has_segment(rel, "repro")
        )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ctx.nodes:
            if isinstance(node, ast.Call):
                name = imports.resolve(node.func)
                if name == "os.getenv":
                    yield self.finding(ctx, node, "os.getenv() read in campaign path")
                    continue
            if isinstance(node, ast.Attribute) and node.attr == "environ":
                if imports.resolve(node) == "os.environ":
                    yield self.finding(
                        ctx, node, "os.environ read in campaign path"
                    )
