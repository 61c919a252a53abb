"""VEC001 — narrowing cast that provably loses value bits.

The bug this rule exists for shipped in the first vector gshare
kernel: ``(pcs & 0x7FFFFFFF) >> 2`` silently truncated 64-bit
addresses, so traces containing addresses at or above 2³³ indexed a
different table entry than the scalar oracle — a divergence the
differential harness only caught *dynamically*, on traces that
happened to contain such addresses.  VEC001 makes it static.

Riding the :mod:`repro.lint.dtypeflow` interpreter, the rule flags —
at the exact cast — three provable loss patterns in ``uarch/``
kernels:

* ``x.astype(small)`` (and spelled-as-a-call casts like
  ``np.int32(x)``) where the inferred value interval of ``x`` exceeds
  the target dtype's representable range: 64-bit address material
  through ``int32``, an unbounded running accumulator through
  ``int16``;
* ``x.astype(np.float64)`` where ``x`` is integral with values beyond
  2⁵³, float64's exact-integer limit — counts silently lose low bits;
* ``x & CONSTANT`` where ``x``'s known non-negative range exceeds the
  literal mask — the gshare regression itself.  Masks that are
  *computed* (``(1 << bits) - 1``, ``self.index_mask``) express an
  intentional, parameterized truncation and are not flagged.

Unknown ranges never flag: the rule proves loss, it does not guess.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.dtypeflow import (
    DType,
    _DTYPE_DOTTED,
    astype_target,
    kernel_scopes,
    narrowing_hazard,
)
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    has_segment,
    register,
)


def in_scope(rel: str) -> bool:
    """The dtype contract binds the vectorized kernels in ``uarch/``."""
    return has_segment(rel, "uarch")


@register
class NarrowingCastRule(ProgramRule):
    """A cast may not provably drop value bits the oracle keeps."""

    id = "VEC001"
    title = "narrowing cast can truncate in-range values"
    severity = "error"
    tier = "dtype"
    rationale = (
        "the scalar oracle computes in Python ints; a numpy cast or "
        "literal mask that truncates values the oracle keeps makes the "
        "vector engine diverge only on traces containing wide values — "
        "the exact bug class the 0x7FFFFFFF gshare mask shipped"
    )
    hint = (
        "keep address material in int64 end to end; when truncation is "
        "intended, derive the mask from the table geometry "
        "((1 << bits) - 1), never a literal"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        for scope in kernel_scopes(ctx).values():
            module = scope.module
            if not in_scope(module.rel):
                continue
            for node in scope.nodes:
                yield from self._check_node(module, scope, node)

    def _check_node(self, module, scope, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            yield from self._check_cast(module, scope, node)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            yield from self._check_mask(
                module, scope, node, node.left, node.right
            )
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.op, ast.BitAnd
        ):
            target = node.target
            if isinstance(target, (ast.Name, ast.Attribute)):
                load = ast.copy_location(
                    ast.Name(id=target.id, ctx=ast.Load())
                    if isinstance(target, ast.Name)
                    else ast.Attribute(
                        value=target.value, attr=target.attr, ctx=ast.Load()
                    ),
                    target,
                )
                yield from self._check_mask(
                    module, scope, node, load, node.value
                )

    def _check_cast(self, module, scope, call: ast.Call) -> Iterator[Finding]:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            target = astype_target(module, call)
            operand: ast.expr | None = func.value
        else:
            dotted = module.imports.resolve(func)
            if dotted in _DTYPE_DOTTED and call.args:
                target = _DTYPE_DOTTED[dotted]
                operand = call.args[0]
            else:
                return
        if target is DType.UNKNOWN or operand is None:
            return
        reason = narrowing_hazard(scope.info_of(operand), target)
        if reason is None:
            return
        yield self.finding_at(
            module.rel,
            call,
            f"cast to {target.value} can truncate: {reason} — the "
            "scalar oracle keeps full Python-int precision here",
            source_line=module.source_text(call),
        )

    def _check_mask(
        self, module, scope, site: ast.AST, left: ast.expr, right: ast.expr
    ) -> Iterator[Finding]:
        for value_expr, mask_expr in ((left, right), (right, left)):
            mask = self._literal_mask(mask_expr)
            if mask is None:
                continue
            info = scope.info_of(value_expr)
            if (
                info.lo is not None
                and info.lo >= 0
                and info.hi is not None
                and info.hi > mask
            ):
                yield self.finding_at(
                    module.rel,
                    site,
                    f"literal mask 0x{mask:X} truncates "
                    f"{ast.unparse(value_expr)}, whose values can exceed "
                    "it — the scalar oracle sees the untruncated value "
                    "(the gshare 0x7FFFFFFF regression)",
                    source_line=module.source_text(site),
                )
            return

    @staticmethod
    def _literal_mask(expr: ast.expr) -> int | None:
        if (
            isinstance(expr, ast.Constant)
            and isinstance(expr.value, int)
            and not isinstance(expr.value, bool)
            and expr.value >= 0
        ):
            return expr.value
        return None
