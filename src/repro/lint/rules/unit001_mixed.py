"""UNIT001 — mixed-unit arithmetic.

Adding, subtracting, or ordering two quantities of *different* known
units (``cycles + instructions``, ``mpki < cpi``) is dimensionally
meaningless: the result depends on the units chosen, not on the
machine being measured.  The paper's quantity algebra
(:mod:`repro.units`) only sanctions same-unit sums and dimensionless
offsets; everything else is a transcription error waiting to publish a
wrong table.

The rule flags only when *both* operands carry a concrete inferred
unit — ``UNKNOWN`` and ``DIMENSIONLESS`` never flag, mirroring the
zero-false-positive contract of the seed-taint analysis.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)
from repro.lint.unitflow import UnitScope, is_known, unit_scopes

#: Comparison operators for which unit disagreement is meaningless.
_ORDERING_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


@register
class MixedUnitArithmeticRule(ProgramRule):
    """Flag ``+``/``-``/comparison between different known units."""

    id = "UNIT001"
    title = "mixed-unit arithmetic"
    severity = "error"
    tier = "units"
    rationale = (
        "adding or comparing two quantities of different units (cycles "
        "vs instructions, MPKI vs CPI) is dimensionally meaningless — "
        "the numeric result depends on the unit choice, not the machine"
    )
    hint = (
        "convert both operands to the same quantity first (see "
        "repro.units: mpki(), cpi(), per_kilo()) or rename the "
        "variable if its inferred unit is wrong"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        for scope in unit_scopes(ctx):
            for node in scope.nodes:
                yield from self._check_node(scope.module, scope, node)

    def _check_node(self, module, scope: UnitScope, node: ast.AST):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            left = scope.unit_of(node.left)
            right = scope.unit_of(node.right)
            if is_known(left) and is_known(right) and left is not right:
                op = "+" if isinstance(node.op, ast.Add) else "-"
                yield self.finding_at(
                    module.rel,
                    node,
                    f"mixed-unit arithmetic: {left.value} {op} "
                    f"{right.value} has no defined quantity",
                    source_line=module.source_text(node),
                )
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            target = scope.unit_of(node.target)
            value = scope.unit_of(node.value)
            if is_known(target) and is_known(value) and target is not value:
                yield self.finding_at(
                    module.rel,
                    node,
                    f"mixed-unit accumulation: {target.value} "
                    f"{'+=' if isinstance(node.op, ast.Add) else '-='} "
                    f"{value.value} has no defined quantity",
                    source_line=module.source_text(node),
                )
        elif isinstance(node, ast.Compare):
            left_expr = node.left
            for op, comparator in zip(node.ops, node.comparators):
                if isinstance(op, _ORDERING_OPS):
                    left = scope.unit_of(left_expr)
                    right = scope.unit_of(comparator)
                    if is_known(left) and is_known(right) and left is not right:
                        yield self.finding_at(
                            module.rel,
                            node,
                            f"mixed-unit comparison: {left.value} vs "
                            f"{right.value} orders numbers, not quantities",
                            source_line=module.source_text(node),
                        )
                left_expr = comparator
