"""``python -m repro.lint`` / ``repro-cli lint`` — the determinism linter.

Usage::

    python -m repro.lint src tests examples     # lint, fail on findings
    python -m repro.lint src --json             # machine-readable report
    python -m repro.lint src --sarif out.sarif  # code-scanning report
    python -m repro.lint src --rules SEED001    # only these (comma-separated)
    python -m repro.lint src --graph            # dump the call graph
    python -m repro.lint src tests --baseline   # ignore grandfathered
    python -m repro.lint src tests --write-baseline   # (re)grandfather

Exit codes mirror the main CLI convention: 0 clean, 1 findings,
2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import LintUsageError
from repro.lint.engine import DEFAULT_BASELINE, Baseline, LintEngine
from repro.lint.report import (
    render_json,
    render_rule_list,
    render_sarif,
    render_text,
)
from repro.lint.rules import get_rules

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

_EPILOG = """\
exit codes:
  0  clean — no new findings (baselined and suppressed hazards allowed)
  1  findings — at least one new determinism hazard
  2  usage or configuration error

suppressions:
  # repro: allow-DET001 <one-line justification>
  on the flagged line (or a comment line directly above it); a
  suppression without a justification is ignored and reported.
"""


def build_parser() -> argparse.ArgumentParser:
    """The linter's argument parser (shared with ``repro-cli lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-cli lint",
        description=(
            "Static determinism linter: flags randomness, wall-clock, "
            "iteration-order, shared-state, environment, and "
            "serialization hazards that would break bit-identical "
            "reproduction."
        ),
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directory trees to lint (default: src)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="FILE",
        help="also write a SARIF 2.1.0 report to FILE (code-scanning upload)",
    )
    parser.add_argument(
        "--baseline",
        nargs="?",
        const=DEFAULT_BASELINE,
        default=None,
        metavar="FILE",
        help=f"ignore findings grandfathered in FILE (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--write-baseline",
        nargs="?",
        const=DEFAULT_BASELINE,
        default=None,
        metavar="FILE",
        help="write the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe every rule and exit"
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help="dump the resolved call graph of PATHS and exit 0",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also list suppressed and baselined findings",
    )
    return parser


def _emit(text: str) -> bool:
    """Print ``text``; swallow a closed-pipe reader (``... | head``)."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Redirect stdout at a fresh /dev/null so interpreter shutdown
        # does not re-raise while flushing the dead pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    """Linter entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    requested = [r.strip() for r in (args.rules or "").split(",") if r.strip()]
    try:
        rules = get_rules(sorted(set(requested))) if requested else None
    except LintUsageError as exc:
        # An unknown rule id is a discoverability failure: answer it
        # with the full catalogue, not just the error.
        print(f"error: {exc}", file=sys.stderr)
        print(render_rule_list(), file=sys.stderr)
        return EXIT_USAGE

    if args.list_rules:
        _emit(render_rule_list(rules))
        return EXIT_OK

    engine = LintEngine(rules=rules)
    active_rule_ids = [rule.id for rule in engine.rules]
    try:
        if args.graph:
            _emit(engine.graph(args.paths))
            return EXIT_OK
        if args.write_baseline is not None:
            result = engine.run(args.paths, baseline=None)
            Baseline.write(
                args.write_baseline, result.findings, rules=active_rule_ids
            )
            print(
                f"wrote {len(result.findings)} grandfathered finding(s) "
                f"to {args.write_baseline}"
            )
            return EXIT_OK
        baseline = (
            Baseline.load(args.baseline, expected_rules=active_rule_ids)
            if args.baseline is not None
            else None
        )
        result = engine.run(args.paths, baseline=baseline)
    except LintUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.sarif is not None:
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(render_sarif(result, rules=rules))
            fh.write("\n")
    if args.json:
        _emit(render_json(result, rules=rules))
    else:
        _emit(render_text(result, verbose=args.verbose))
    return EXIT_OK if result.clean else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
