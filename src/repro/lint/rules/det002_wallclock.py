"""DET002 — wall-clock dependence outside the telemetry allowlist.

A clock read inside measurement, modeling, or persistence code makes
the result a function of *when* it ran; the campaign store would then
cache one timestamped answer and replay it forever, silently diverging
from a fresh measurement.  Human-facing timing belongs in
:mod:`repro.telemetry`, the one allowlisted module.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import (
    Finding,
    Rule,
    RuleContext,
    register,
)

#: Clock reads (``time.sleep`` is a delay, not a clock read — backoff
#: sleeps never feed results and are deliberately not flagged).
_CLOCK_CALLS = frozenset(
    {
        "time.clock_gettime", "time.clock_gettime_ns", "time.monotonic",
        "time.monotonic_ns", "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.process_time_ns", "time.time",
        "time.time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: Files sanctioned to read the clock (human-facing telemetry only).
_ALLOWLIST_SUFFIXES = ("repro/telemetry.py",)


@register
class WallClockRule(Rule):
    """Flag clock reads outside the telemetry module."""

    id = "DET002"
    title = "wall-clock dependence"
    severity = "error"
    rationale = (
        "a clock read makes the result depend on when it ran, so cached "
        "campaigns, retried measurements, and reruns cannot be bit-identical"
    )
    hint = (
        "route human-facing timing through repro.telemetry; measurement "
        "code must derive all values from the campaign key"
    )

    def applies(self, rel: str) -> bool:
        return not any(rel.endswith(suffix) for suffix in _ALLOWLIST_SUFFIXES)

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = imports.resolve(node.func)
            if name in _CLOCK_CALLS:
                yield self.finding(
                    ctx, node, f"{name}() reads the wall clock"
                )
