"""The determinism-lint engine: discovery, parsing, suppressions, baseline.

One :class:`LintEngine` scans a set of files or directory trees, runs
every applicable rule over each parsed module, and applies two
filtering layers:

* **inline suppressions** — ``# repro: allow-DET00x <reason>`` on the
  flagged line (or on a comment-only line directly above it) waives a
  finding.  The reason is mandatory: a suppression without a
  justification does not suppress, it annotates the finding instead,
  so every waiver in the tree is reviewable.
* **baseline** — a checked-in JSON file of grandfathered finding
  fingerprints (hash of path, rule, source text — robust to line
  drift).  Findings present in the baseline are reported separately
  and do not fail the run; new findings do.

The engine's own directory walk is ``sorted`` — the linter practices
the determinism it preaches.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import LintUsageError
from repro.lint.callgraph import CallGraph, ModuleIndex, Program
from repro.telemetry import tick_seconds
from repro.lint.rules import Rule, RuleContext, all_rules
from repro.lint.rules.base import Finding, ProgramContext, ProgramRule

#: Inline suppression syntax: ``# repro: allow-DET001 <one-line reason>``.
#: The rule pattern covers per-file ids (DET001) and whole-program ids
#: (SEED001, PURE001, EXC001, CONC001, ASYNC001) alike.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow-(?P<rule>[A-Z]{3,5}\d{3})(?:\s+(?P<reason>\S.*))?"
)

#: Default baseline filename (repo root, checked in).
DEFAULT_BASELINE = "repro-lint-baseline.json"

_BASELINE_VERSION = 2


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow-…`` comment."""

    rule: str
    reason: str  # empty when the justification is missing
    line: int


def parse_suppressions(lines: Sequence[str]) -> dict[int, list[Suppression]]:
    """Map *effective* line number -> suppressions covering that line.

    A suppression on a code line covers that line; one on a
    comment-only line covers the next line, so block-style waivers read
    naturally above the offending statement.
    """
    by_line: dict[int, list[Suppression]] = {}
    for index, raw in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(raw)
        if match is None:
            continue
        target = index + 1 if raw.lstrip().startswith("#") else index
        by_line.setdefault(target, []).append(
            Suppression(
                rule=match.group("rule"),
                reason=(match.group("reason") or "").strip(),
                line=index,
            )
        )
    return by_line


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)  # new, unsuppressed
    suppressed: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Analyzer wall-time telemetry: phase name -> seconds, plus a
    #: nested ``program_rules`` map of per-rule seconds.  Telemetry
    #: only — never an input to anything measured or compared.
    timing: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when no *new* findings survived filtering."""
        return not self.findings


class LintEngine:
    """Run determinism rules over files and trees."""

    def __init__(self, rules: Sequence[Rule] | None = None) -> None:
        self.rules: list[Rule] = list(all_rules() if rules is None else rules)

    # -- discovery -----------------------------------------------------

    @staticmethod
    def discover(paths: Iterable[str | Path]) -> list[Path]:
        """Python files under *paths*, deterministically ordered."""
        files: list[Path] = []
        for entry in paths:
            path = Path(entry)
            if path.is_dir():
                files.extend(
                    p
                    for p in sorted(path.rglob("*.py"))
                    if "__pycache__" not in p.parts
                )
            elif path.suffix == ".py" and path.exists():
                files.append(path)
            elif not path.exists():
                raise LintUsageError(f"no such file or directory: {path}")
        # De-duplicate while preserving the sorted-per-root order.
        return list(dict.fromkeys(files))

    # -- single file ---------------------------------------------------

    def _parse(
        self, path: Path
    ) -> tuple[str, ModuleIndex | None, list[str], list[Finding]]:
        """Read, parse and index one file: ``(rel, index, lines,
        parse_findings)``.

        The :class:`~repro.lint.callgraph.ModuleIndex` is the file's one
        walk; every per-file rule and the whole-program context read it.
        A file that does not parse cannot be certified; it surfaces as
        a DET000 finding (``index is None``) rather than aborting the run.
        """
        rel = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise LintUsageError(f"cannot read {path}: {exc}") from exc
        lines = source.splitlines()
        try:
            tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            return (
                rel,
                None,
                lines,
                [
                    Finding(
                        rule="DET000",
                        severity="error",
                        path=rel,
                        line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1,
                        message=f"file does not parse: {exc.msg}",
                        hint="fix the syntax error so the file can be linted",
                        text="",
                    )
                ],
            )
        return rel, ModuleIndex.of(tree), lines, []

    def _file_findings(
        self, rel: str, index: ModuleIndex, lines: list[str]
    ) -> list[Finding]:
        """Raw findings of every applicable per-file rule on one module."""
        ctx = RuleContext(rel=rel, index=index, lines=lines)
        findings: list[Finding] = []
        for rule in self.rules:
            if isinstance(rule, ProgramRule) or not rule.applies(rel):
                continue
            findings.extend(rule.check(ctx))
        return findings

    @staticmethod
    def _apply_suppressions(
        findings: Iterable[Finding],
        suppressions: dict[int, list[Suppression]],
    ) -> tuple[list[Finding], list[Finding]]:
        """Split raw findings into ``(active, suppressed)``."""
        active: list[Finding] = []
        suppressed: list[Finding] = []
        for finding in findings:
            waiver = next(
                (
                    s
                    for s in suppressions.get(finding.line, [])
                    if s.rule == finding.rule
                ),
                None,
            )
            if waiver is not None and waiver.reason:
                suppressed.append(
                    dataclasses.replace(
                        finding,
                        suppressed=True,
                        suppress_reason=waiver.reason,
                    )
                )
            elif waiver is not None:
                active.append(
                    dataclasses.replace(
                        finding,
                        message=finding.message
                        + " [suppression ignored: missing reason]",
                    )
                )
            else:
                active.append(finding)
        return active, suppressed

    def lint_file(self, path: Path) -> tuple[list[Finding], list[Finding]]:
        """Lint one file with the per-file rules.

        Whole-program rules need the project symbol table and only run
        under :meth:`run`; returns ``(active, suppressed)`` findings.
        """
        rel, index, lines, parse_findings = self._parse(path)
        if index is None:
            return parse_findings, []
        return self._apply_suppressions(
            self._file_findings(rel, index, lines), parse_suppressions(lines)
        )

    # -- tree ----------------------------------------------------------

    def run(
        self,
        paths: Iterable[str | Path],
        baseline: "Baseline | None" = None,
    ) -> LintResult:
        """Lint every Python file under *paths* against *baseline*.

        Per-file rules run first; the successfully parsed modules are
        then indexed into one :class:`~repro.lint.callgraph.Program`
        (plus call graph) and every :class:`ProgramRule` runs over it.
        Program findings anchor to ordinary file/line locations, so
        inline suppressions and the baseline apply to them unchanged.

        The shared context is built once per run; program rules reuse
        its memoized models (:meth:`ProgramContext.shared`), and
        ``result.timing`` records where the analyzer's wall time went.
        """
        t_start = tick_seconds()
        result = LintResult()
        parsed: list[tuple[str, ModuleIndex, list[str]]] = []
        suppressions_by_rel: dict[str, dict[int, list[Suppression]]] = {}
        raw_active: list[Finding] = []
        for path in self.discover(paths):
            rel, index, lines, parse_findings = self._parse(path)
            result.files_scanned += 1
            suppressions = parse_suppressions(lines)
            suppressions_by_rel[rel] = suppressions
            if index is None:
                raw_active.extend(parse_findings)
                continue
            parsed.append((rel, index, lines))
            active, suppressed = self._apply_suppressions(
                self._file_findings(rel, index, lines), suppressions
            )
            raw_active.extend(active)
            result.suppressed.extend(suppressed)
        t_files = tick_seconds()
        per_rule_seconds: dict[str, float] = {}
        t_build = t_files
        program_rules = [r for r in self.rules if isinstance(r, ProgramRule)]
        if program_rules and parsed:
            ctx = self.build_program_context(parsed)
            t_build = tick_seconds()
            for rule in program_rules:
                t_rule = tick_seconds()
                for finding in rule.check_program(ctx):
                    active, suppressed = self._apply_suppressions(
                        [finding],
                        suppressions_by_rel.get(finding.path, {}),
                    )
                    raw_active.extend(active)
                    result.suppressed.extend(suppressed)
                per_rule_seconds[rule.id] = round(
                    tick_seconds() - t_rule, 6
                )
        if baseline is None:
            result.findings.extend(raw_active)
        else:
            fresh, grandfathered = baseline.split(raw_active)
            result.findings.extend(fresh)
            result.baselined.extend(grandfathered)
        result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        result.suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        result.baselined.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        result.timing = {
            "per_file_seconds": round(t_files - t_start, 6),
            "program_build_seconds": round(t_build - t_files, 6),
            "program_rules": dict(sorted(per_rule_seconds.items())),
            "total_seconds": round(tick_seconds() - t_start, 6),
        }
        return result

    @staticmethod
    def build_program_context(
        parsed: Iterable[tuple[str, ModuleIndex, Sequence[str]]],
    ) -> ProgramContext:
        """Index parsed modules into a shared whole-program context."""
        program = Program.build(parsed)
        return ProgramContext(program=program, callgraph=CallGraph(program))

    def graph(self, paths: Iterable[str | Path]) -> str:
        """Deterministic call-graph dump (``repro-cli lint --graph``)."""
        parsed: list[tuple[str, ModuleIndex, list[str]]] = []
        for path in self.discover(paths):
            rel, index, lines, _ = self._parse(path)
            if index is not None:
                parsed.append((rel, index, lines))
        ctx = self.build_program_context(parsed)
        return ctx.callgraph.render()  # type: ignore[attr-defined]


class Baseline:
    """Grandfathered findings, keyed by content fingerprint.

    Each fingerprint carries a count so two identical hazards on
    identical source lines in one file are tracked separately; fixing
    one surfaces the other.

    Since version 2 a baseline also records the rule set it was written
    under.  A baseline grandfathers *known* findings — one produced by
    a linter with different rules would silently "match" findings the
    old rules never saw, so :meth:`load` rejects it as stale instead.
    """

    def __init__(
        self,
        counts: Counter[str] | None = None,
        rules: Sequence[str] | None = None,
    ) -> None:
        self.counts: Counter[str] = Counter(counts or {})
        self.rules: tuple[str, ...] | None = (
            tuple(sorted(rules)) if rules is not None else None
        )

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        """A baseline grandfathering exactly *findings*."""
        return cls(Counter(f.fingerprint() for f in findings))

    @classmethod
    def load(
        cls,
        path: str | Path,
        expected_rules: Sequence[str] | None = None,
    ) -> "Baseline":
        """Read a baseline file (empty baseline when absent).

        When *expected_rules* is given (the CLI passes the active rule
        set), a baseline recorded under a different rule set — or a
        version-1 file that predates rule-set tracking — raises
        :class:`LintUsageError` so staleness is detected rather than
        silently matched.
        """
        path = Path(path)
        if not path.exists():
            return cls()
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            version = payload.get("version")
            if version not in (1, _BASELINE_VERSION):
                raise LintUsageError(
                    f"{path}: unsupported baseline version {version!r}"
                )
            rules = (
                [str(r) for r in payload["rules"]]
                if version >= 2
                else None
            )
            counts = Counter(
                {
                    str(entry["fingerprint"]): int(entry.get("count", 1))
                    for entry in payload["entries"]
                }
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise LintUsageError(f"{path}: malformed baseline: {exc}") from exc
        if expected_rules is not None:
            expected = tuple(sorted(expected_rules))
            if rules is None:
                raise LintUsageError(
                    f"{path}: baseline predates rule-set tracking "
                    "(version 1); regenerate it with --write-baseline"
                )
            if tuple(sorted(rules)) != expected:
                raise LintUsageError(
                    f"{path}: stale baseline — written under rule set "
                    f"[{', '.join(sorted(rules))}] but the linter now "
                    f"runs [{', '.join(expected)}]; regenerate it with "
                    "--write-baseline"
                )
        return cls(counts, rules=rules)

    @staticmethod
    def write(
        path: str | Path,
        findings: Iterable[Finding],
        rules: Sequence[str] | None = None,
    ) -> None:
        """Write a baseline grandfathering *findings* (sorted, stable).

        *rules* records the active rule set (defaults to every
        registered rule) so a later load can detect staleness.
        """
        grouped: dict[str, dict] = {}
        for finding in sorted(
            findings, key=lambda f: (f.path, f.line, f.col, f.rule)
        ):
            fp = finding.fingerprint()
            entry = grouped.setdefault(
                fp,
                {
                    "fingerprint": fp,
                    "rule": finding.rule,
                    "path": finding.path,
                    "text": finding.text,
                    "count": 0,
                },
            )
            entry["count"] += 1
        if rules is None:
            rules = [rule.id for rule in all_rules()]
        payload = {
            "version": _BASELINE_VERSION,
            "rules": sorted(rules),
            "entries": sorted(grouped.values(), key=lambda e: e["fingerprint"]),
        }
        Path(path).write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def split(
        self, findings: Iterable[Finding]
    ) -> tuple[list[Finding], list[Finding]]:
        """Partition into (new, grandfathered) against this baseline."""
        budget = Counter(self.counts)
        fresh: list[Finding] = []
        grandfathered: list[Finding] = []
        for finding in findings:
            fp = finding.fingerprint()
            if budget[fp] > 0:
                budget[fp] -= 1
                grandfathered.append(finding)
            else:
                fresh.append(finding)
        return fresh, grandfathered
