"""UNIT002 — malformed per-kilo ratios and bare 1000s.

Every published rate in the reproduction is defined *once*, in
:mod:`repro.units`: MPKI is ``misses / instructions * PER_KILO``, CPI
is ``cycles / instructions``.  A raw ratio of counter quantities
written anywhere else (``misses / instructions``, forgetting the kilo
scale) or a bare ``* 1000`` / ``/ 1000`` literal next to a quantity is
exactly the class of slip that silently shifts a table by three orders
of magnitude — the linter's mutation check deletes one such conversion
and demands this rule catch it.

Only :mod:`repro.units` itself may spell the conversion out; the named
constant ``units.PER_KILO`` is sanctioned everywhere (only bare
literals flag).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import ModuleInfo
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)
from repro.lint.unitflow import (
    UnitScope,
    UnitValue,
    is_kilo_literal,
    is_known,
    is_units_module,
    unit_scopes,
)

#: (numerator, denominator) unit pairs that must go through repro.units.
_RAW_RATIO_FIXES = {
    (UnitValue.MISSES, UnitValue.INSTRUCTIONS): "units.mpki(misses, instructions)",
    (UnitValue.CYCLES, UnitValue.INSTRUCTIONS): "units.cpi(cycles, instructions)",
    (UnitValue.MISSES, UnitValue.CYCLES): "a sanctioned repro.units constructor",
}


@register
class MalformedRatioRule(ProgramRule):
    """Flag hand-rolled rate conversions outside :mod:`repro.units`."""

    id = "UNIT002"
    title = "malformed ratio or bare per-kilo constant"
    severity = "error"
    tier = "units"
    rationale = (
        "a hand-written misses/instructions ratio or a bare 1000 "
        "literal re-derives a published rate outside repro.units — "
        "dropping or doubling the kilo scale there shifts every "
        "downstream table by orders of magnitude"
    )
    hint = (
        "route the conversion through repro.units (mpki(), cpi(), "
        "per_kilo()) and spell the scale units.PER_KILO"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        for scope in unit_scopes(ctx):
            module = scope.module
            if is_units_module(module.rel):
                continue  # the one sanctioned definition site
            flagged: set[int] = set()
            for node in scope.nodes:
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                    yield from self._check_raw_ratio(module, scope, node, flagged)
            for node in scope.nodes:
                if isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Mult, ast.Div)
                ):
                    yield from self._check_bare_kilo(module, scope, node, flagged)

    def _check_raw_ratio(
        self,
        module: ModuleInfo,
        scope: UnitScope,
        node: ast.BinOp,
        flagged: set[int],
    ):
        pair = (scope.unit_of(node.left), scope.unit_of(node.right))
        fix = _RAW_RATIO_FIXES.get(pair)
        if fix is None:
            return
        flagged.add(id(node))
        yield self.finding_at(
            module.rel,
            node,
            f"raw {pair[0].value}/{pair[1].value} ratio outside "
            f"repro.units — use {fix}",
            source_line=module.source_text(node),
        )

    def _check_bare_kilo(
        self,
        module: ModuleInfo,
        scope: UnitScope,
        node: ast.BinOp,
        flagged: set[int],
    ):
        if isinstance(node.op, ast.Div):
            candidates = [(node.right, node.left)]
        else:
            candidates = [(node.left, node.right), (node.right, node.left)]
        for literal, other in candidates:
            if not is_kilo_literal(literal):
                continue
            if id(other) in flagged:
                return  # the inner raw ratio already carries the finding
            unit = scope.unit_of(other)
            ratio_of_instructions = (
                isinstance(other, ast.BinOp)
                and isinstance(other.op, ast.Div)
                and scope.unit_of(other.right) is UnitValue.INSTRUCTIONS
            )
            if is_known(unit) or ratio_of_instructions:
                yield self.finding_at(
                    module.rel,
                    node,
                    "bare per-kilo constant 1000 scaling a quantity — "
                    "spell it units.PER_KILO or use units.mpki()/per_kilo()",
                    source_line=module.source_text(node),
                )
            return
