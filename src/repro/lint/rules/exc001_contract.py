"""EXC001 — the campaign-path exception contract.

The PR 2 fault-tolerance machinery retries :class:`TransientError`,
degrades parallel campaigns to serial, and renders a structured
failure report — but only for exceptions it can classify, i.e. the
:mod:`repro.errors` tree.  A stray ``ValueError`` raised three calls
below ``repro.core.park.observe_suite`` bypasses the whole budget and
surfaces as a raw traceback, exactly the failure mode the retry layer
exists to prevent.

EXC001 builds the ReproError class closure over the scanned program
(every class whose base chain reaches ``repro.errors`` — multi-file
inheritance included) and flags any ``raise`` in campaign-path code
whose exception class is a builtin or an out-of-tree class.

Allowed anywhere: bare re-raises, ``NotImplementedError`` (abstract
interfaces), ``AssertionError`` (programmer invariants — asserts are
not recoverable control flow), and raising a variable (re-raise
patterns like ``raise last_error``; a soundness limit, documented).
``SystemExit`` is allowed only at module level (``__main__`` guards).
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from repro.lint.callgraph import ModuleInfo, Program
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    basename,
    has_segment,
    register,
)

#: Campaign-path scope: everything that executes between "campaign
#: requested" and "observations returned/persisted".
_SCOPED_DIRS = (
    "repro/core",
    "repro/harness",
    "repro/machine",
    "repro/mase",
    "repro/uarch",
    "repro/workloads",
    "repro/heap",
    "repro/toolchain",
    "repro/program",
    "repro/pintool",
    "repro/stats",
)
_SCOPED_FILES = ("store.py", "faults.py", "rng.py")

#: Exception classes legitimate outside the repro tree.
_ALLOWED_BUILTINS = frozenset({"NotImplementedError", "AssertionError"})

#: Builtin exception class names (flagged when raised in scope).
_BUILTIN_EXCEPTIONS = frozenset(
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
)

#: Import roots trusted as in-tree without needing their source.
_TRUSTED_PREFIX = "repro.errors."


@register
class ExceptionContractRule(ProgramRule):
    """Campaign-path code raises only from the repro.errors tree."""

    id = "EXC001"
    title = "exception outside repro.errors tree"
    severity = "error"
    rationale = (
        "the retry/degradation machinery classifies failures by the "
        "repro.errors hierarchy; a stray builtin exception bypasses "
        "the retry budget and the failure report and surfaces as a "
        "raw traceback"
    )
    hint = (
        "raise a repro.errors class (or derive one from ReproError, "
        "mixing in the builtin for compatibility: "
        "class FooError(ReproError, ValueError))"
    )

    def applies(self, rel: str) -> bool:
        return any(has_segment(rel, d) for d in _SCOPED_DIRS) or (
            basename(rel) in _SCOPED_FILES and has_segment(rel, "repro")
        )

    # -- the repro-error closure ---------------------------------------

    def _error_tree(self, program: Program) -> set[str]:
        """Qualnames of classes whose base chain reaches repro.errors."""
        trusted: set[str] = {
            qualname
            for qualname, cls in program.classes.items()
            if cls.name == "ReproError"
        }
        changed = True
        while changed:
            changed = False
            for qualname, cls in program.classes.items():
                if qualname in trusted:
                    continue
                module = program.modules.get(cls.rel)
                if module is None:
                    continue
                for base in cls.base_exprs():
                    dotted = module.imports.resolve(base)
                    base_name = (
                        base.id if isinstance(base, ast.Name) else None
                    )
                    local = (
                        f"{module.modname}.{base_name}" if base_name else None
                    )
                    if (
                        (dotted is not None and dotted.startswith(_TRUSTED_PREFIX))
                        or (dotted is not None and dotted in trusted)
                        or (local is not None and local in trusted)
                    ):
                        trusted.add(qualname)
                        changed = True
                        break
        return trusted

    # -- checking raises -----------------------------------------------

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        program: Program = ctx.program  # type: ignore[assignment]
        for rel in sorted(program.modules):
            if not self.applies(rel):
                continue
            module = program.modules[rel]
            yield from self._check_module(program, module)

    def _check_module(
        self, program: Program, module: ModuleInfo
    ) -> Iterator[Finding]:
        module_level_raises = {
            id(node)
            for node in program.body_nodes(module.tree)
            if isinstance(node, ast.Raise)
        }
        for node in module.nodes:
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc
            if exc is None:
                continue  # bare re-raise
            target = exc.func if isinstance(exc, ast.Call) else exc
            verdict = self._classify(
                program, module, target, at_module_level=id(node) in module_level_raises
            )
            if verdict is not None:
                yield self.finding_at(
                    module.rel,
                    node,
                    verdict,
                    source_line=module.source_text(node),
                )

    def _classify(
        self,
        program: Program,
        module: ModuleInfo,
        target: ast.expr,
        at_module_level: bool,
    ) -> str | None:
        """A finding message when the raise breaks the contract."""
        name: str | None = None
        if isinstance(target, ast.Name):
            name = target.id
        dotted = module.imports.resolve(target)
        # In-tree by import origin or by resolved class.
        if dotted is not None:
            if dotted.startswith(_TRUSTED_PREFIX):
                return None
            hit = program.classes.get(dotted)
            if hit is not None:
                if hit.qualname in self._tree_cache(program):
                    return None
                return (
                    f"{hit.name} is raised on the campaign path but does "
                    "not derive from repro.errors.ReproError"
                )
        # Module-local class.
        if name is not None and name in module.classes:
            qualname = f"{module.modname}.{name}"
            if qualname in self._tree_cache(program):
                return None
            return (
                f"{name} is raised on the campaign path but does not "
                "derive from repro.errors.ReproError"
            )
        # Builtin exceptions.
        if name in _ALLOWED_BUILTINS:
            return None
        if name == "SystemExit":
            if at_module_level:
                return None  # __main__ guard idiom
            return "SystemExit raised inside campaign-path code"
        if name in _BUILTIN_EXCEPTIONS:
            return (
                f"builtin {name} raised on the campaign path bypasses "
                "the retry/degradation machinery"
            )
        # A variable, attribute, or unresolvable expression: re-raise
        # patterns — unknown, never guessed (soundness limit).
        return None

    # The closure is program-wide; memoize it per program object.

    _cache: tuple[int, set[str]] | None = None

    def _tree_cache(self, program: Program) -> set[str]:
        if self._cache is None or self._cache[0] != id(program):
            self._cache = (id(program), self._error_tree(program))
        return self._cache[1]
