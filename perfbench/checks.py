"""Output checks applied to every benchmark run, timed or traced.

A run passes when its exit code is 0, the digest of its normalised
output equals the reference digest recorded for the workload, and — on
the warm workloads — the campaign store served every campaign from disk.
"""

from __future__ import annotations

import hashlib
import json
import re

#: Lines whose text depends on host timing: ``=== fig2 (2.6s) ===``,
#: ``... from cache (0.01s)`` and the ``layouts/s`` throughput lines.
TIMING_LINE = re.compile(r"layouts/s|\([0-9.]+s\)")

#: The CLI's store summary line, as ``StoreStats.summary`` renders it.
STORE_SUMMARY = re.compile(
    r"^campaign store: (?P<hits>\d+) hits, (?P<misses>\d+) misses"
    r"(?:, (?P<quarantined>\d+) quarantined)?;",
    re.MULTILINE,
)


def normalise(text: str) -> str:
    """*text* without the lines that carry host timings."""
    return "".join(
        line for line in text.splitlines(keepends=True) if not TIMING_LINE.search(line)
    )


def cli_digest(stdout: str) -> str:
    """Digest of an experiment CLI's rendered results."""
    return hashlib.sha256(normalise(stdout).encode()).hexdigest()


def lint_digest(stdout: str) -> str:
    """Digest of a ``--json`` lint report without its ``timing`` block.

    Raises ``ValueError`` when the report is not JSON.
    """
    report = json.loads(stdout)
    report.pop("timing", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def lint_problems(stdout: str) -> list[str]:
    """Why a lint report is not the expected clean one (empty if it is)."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["lint output is not a JSON report"]
    findings = report.get("summary", {}).get("findings")
    if findings != 0 or not report.get("clean"):
        return [f"lint reported {findings} finding(s)"]
    return []


def store_counts(stdout: str) -> dict[str, int] | None:
    """Store hit/miss/quarantine counts from a CLI's summary line."""
    match = STORE_SUMMARY.search(stdout)
    if match is None:
        return None
    return {key: int(value or 0) for key, value in match.groupdict().items()}


def warm_store_problems(
    counts: dict[str, int] | None, expected_hits: int
) -> list[str]:
    """Why a warm run was not served entirely from the store."""
    if counts is None:
        return ["no campaign store summary in the output"]
    problems = []
    if counts.get("misses", 0) != 0:
        problems.append(f"store misses {counts['misses']} != 0")
    if counts.get("hits", 0) != expected_hits:
        problems.append(f"store hits {counts.get('hits', 0)} != {expected_hits}")
    if counts.get("quarantined", 0) != 0:
        problems.append(f"store quarantined {counts['quarantined']} file(s)")
    return problems
