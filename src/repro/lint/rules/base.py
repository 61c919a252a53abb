"""Rule infrastructure for the determinism linter.

A rule is a small AST pass over one file.  Each rule declares a stable
id (``DET00x``), a severity, a one-line rationale (why the hazard
threatens bit-identical reproduction), and a scope predicate selecting
the files it applies to — e.g. DET004 only polices the measurement
core (``machine/``, ``uarch/``, ``core/``), while DET001 applies
everywhere except the sanctioned RNG module.

Rules register themselves via :func:`register`; the engine iterates
:func:`all_rules` so adding a rule is one new module in this package.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import LintUsageError

# Re-exported from the package leaf so rule modules (and tests) can
# keep importing it from here without creating an import cycle.
from repro.lint.callgraph import (  # noqa: F401
    FunctionInfo,
    ImportTable,
    ModuleIndex,
    walk_with_parents,
)

#: Severity levels, in increasing order of seriousness.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Finding:
    """One determinism hazard at a specific source location."""

    rule: str
    severity: str
    path: str  # posix-style path as scanned
    line: int
    col: int
    message: str
    hint: str
    text: str = ""  # stripped source line (baseline fingerprinting)
    suppressed: bool = False
    suppress_reason: str = ""

    def fingerprint(self) -> str:
        """Stable identity for baseline matching.

        Hashes (path, rule, source text) rather than the line number,
        so unrelated edits that shift a grandfathered finding up or
        down the file do not invalidate the baseline.
        """
        payload = f"{self.path}::{self.rule}::{self.text}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def location(self) -> str:
        """``path:line:col`` rendering."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_json(self) -> dict:
        """Machine-readable form (``--json`` output schema)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "fingerprint": self.fingerprint(),
        }


def has_segment(rel: str, segment: str) -> bool:
    """True if *segment* occurs on a path-component boundary of *rel*.

    ``has_segment("src/repro/machine/pmc.py", "repro/machine")`` is
    true; substring matches that cross component boundaries are not.
    """
    return f"/{segment}/" in f"/{rel.strip('/')}/"


def basename(rel: str) -> str:
    """Final path component of a posix-style relative path."""
    return rel.rsplit("/", 1)[-1]


@dataclass
class RuleContext:
    """Everything a rule needs to check one file.

    ``index`` is the file's one :class:`~repro.lint.callgraph.ModuleIndex`:
    iterate ``nodes`` (every node, in :func:`ast.walk` order, with
    ``.parent`` links set) and resolve names through ``imports``
    instead of walking ``tree`` or building another import table.
    """

    rel: str  # posix-style path, as reported in findings
    index: ModuleIndex
    lines: list[str] = field(default_factory=list)

    @property
    def tree(self) -> ast.Module:
        return self.index.tree

    @property
    def nodes(self) -> list[ast.AST]:
        return self.index.nodes

    @property
    def imports(self) -> ImportTable:
        return self.index.imports

    def source_text(self, node: ast.AST) -> str:
        """Stripped source line a node sits on (empty when unknown)."""
        line = getattr(node, "lineno", 0)
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


#: Analyzer tiers, in the order the CI matrix runs them.
TIERS = (
    "per-file", "interprocedural", "units", "concurrency", "dtype", "perf",
    "async",
)


class Rule:
    """Base class for determinism rules."""

    id: str = "DET000"
    title: str = ""
    severity: str = "error"
    rationale: str = ""
    hint: str = ""
    #: Which analyzer pass the rule belongs to (``--list-rules`` shows
    #: this so the CI matrix split is discoverable from the CLI).
    tier: str = "per-file"

    def applies(self, rel: str) -> bool:
        """Whether this rule polices the file at *rel* (default: all)."""
        return True

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        """Yield findings for one parsed file."""
        raise NotImplementedError

    def finding(
        self,
        ctx: RuleContext,
        node: ast.AST,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        """Build a finding anchored at *node*."""
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.rel,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint if hint is None else hint,
            text=ctx.source_text(node),
        )


class ProgramRule(Rule):
    """Base class for whole-program (interprocedural) rules.

    Unlike a :class:`Rule`, which sees one file, a program rule runs
    once per lint invocation over a :class:`ProgramContext` carrying
    the project-wide symbol table and call graph.  Findings still
    anchor to a file and line, so severities, suppressions, baselines,
    and ``--json`` all work unchanged.

    Precision caveat: the program is *what was scanned*.  Linting a
    subtree gives the rule a partial call graph; unresolved calls are
    treated as unknown, never guessed at.
    """

    tier: str = "interprocedural"

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        return iter(())  # program rules do not run per file

    def check_program(self, ctx: "ProgramContext") -> Iterator[Finding]:
        """Yield findings over the whole program."""
        raise NotImplementedError

    def finding_at(
        self,
        rel: str,
        node: ast.AST,
        message: str,
        source_line: str = "",
        hint: str | None = None,
    ) -> Finding:
        """Build a finding anchored at *node* in the file at *rel*."""
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=rel,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint if hint is None else hint,
            text=source_line,
        )


@dataclass
class ProgramContext:
    """Everything a :class:`ProgramRule` needs for one run.

    ``program`` and ``callgraph`` are built once by the engine and
    shared by every program rule; both come from
    :mod:`repro.lint.callgraph`.  The program's scope table holds each
    scope's assignment map and call resolutions; the models derived
    from it (the context model, the unit and dtype scopes, the
    hot-path model) are built on first use through :meth:`shared` and
    reused by every rule in the invocation, so running the full rule
    set costs one construction of each model rather than one per rule.
    """

    program: object  # repro.lint.callgraph.Program
    callgraph: object  # repro.lint.callgraph.CallGraph
    _shared: dict = field(default_factory=dict, repr=False)

    def shared(self, key: str, build):
        """The memoized value of ``build()`` under *key* for this run."""
        if key not in self._shared:
            self._shared[key] = build()
        return self._shared[key]


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule (one shared instance) to the registry."""
    instance = cls()
    if instance.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {instance.id}")
    _REGISTRY[instance.id] = instance
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, in rule-id order."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rules(ids: Iterable[str] | None = None) -> list[Rule]:
    """The rules named by *ids* (all of them when ``None``).

    Unknown ids raise :class:`repro.errors.LintUsageError` (a usage
    mistake, exit code 2) listing every valid id.
    """
    if ids is None:
        return all_rules()
    rules = []
    for rule_id in ids:
        if rule_id not in _REGISTRY:
            known = ", ".join(sorted(_REGISTRY))
            raise LintUsageError(
                f"unknown rule {rule_id!r}; valid rule ids: {known}"
            )
        rules.append(_REGISTRY[rule_id])
    return rules




def annotate_parents(tree: ast.AST) -> None:
    """Attach a ``.parent`` attribute to every node in *tree*."""
    walk_with_parents(tree)


def is_sorted_wrapped(node: ast.AST) -> bool:
    """True when *node* is directly an argument of ``sorted(...)``.

    The canonical fix for an order-unstable scan — ``sorted(p.glob(x))``
    — must not itself be flagged.
    """
    parent = getattr(node, "parent", None)
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id == "sorted"
        and node in parent.args
    )
