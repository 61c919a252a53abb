"""VEC002 — mixed-dtype arithmetic that can diverge from the oracle.

The scalar oracle computes in Python ints: arbitrary precision, no
wraparound, no rounding.  The vector engine computes in fixed-width
numpy dtypes, where the *result* dtype follows numpy's promotion rules
— and when the promoted width cannot hold the mathematically true
result, the engines diverge silently.  Two provable cases:

* **Wraparound**: integer arithmetic whose promoted dtype is narrower
  than 64 bits and whose inferred value interval exceeds that dtype's
  range — ``int16`` counters multiplied into ``> 2¹⁵`` territory wrap
  negative in the kernel while the oracle keeps counting.  (A Python
  int scalar does *not* widen an integral array operand — numpy keeps
  the array's dtype — which is exactly why ``saturating + 1`` on an
  ``int8`` table is a hazard the promotion rules won't save.)
* **Precision**: an integral operand whose values provably exceed 2⁵³
  meeting a float — the promotion to float64 rounds integers the
  oracle distinguishes, so equal counts can compare unequal.

Both checks require *known* ranges from the
:mod:`repro.lint.dtypeflow` interpreter; expressions with unknown
dtypes or unknown bounds never flag.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.dtypeflow import (
    ArrayInfo,
    DType,
    FLOAT64_EXACT_INT,
    INT_BOUNDS,
    INT_DTYPES,
    WIDTH,
    _interval_binop,
    kernel_scopes,
    promote_info,
)
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)
from repro.lint.rules.vec001_narrowing import in_scope

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.LShift)


@register
class PromotionDivergenceRule(ProgramRule):
    """Promoted-dtype arithmetic must hold what the oracle computes."""

    id = "VEC002"
    title = "dtype promotion can wrap or round where the oracle does not"
    severity = "warning"
    tier = "dtype"
    rationale = (
        "numpy arithmetic happens in the promoted fixed-width dtype "
        "while the scalar oracle uses Python ints; a result interval "
        "exceeding the promoted dtype wraps, and integers beyond 2**53 "
        "meeting a float round — either diverges only on wide inputs"
    )
    hint = (
        "widen the accumulating operand to int64 before the arithmetic "
        "(x.astype(np.int64)), or restructure so values stay inside "
        "the kernel dtype by construction"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        for scope in kernel_scopes(ctx).values():
            module = scope.module
            if not in_scope(module.rel):
                continue
            for node in scope.nodes:
                if isinstance(node, ast.BinOp):
                    yield from self._check_binop(module, scope, node)

    def _check_binop(
        self, module, scope, node: ast.BinOp
    ) -> Iterator[Finding]:
        left = scope.info_of(node.left)
        right = scope.info_of(node.right)
        if DType.UNKNOWN in (left.dtype, right.dtype):
            return
        if left.scalar and right.scalar:
            return  # pure Python scalar arithmetic: oracle semantics
        yield from self._check_precision(module, node, left, right)
        if not isinstance(node.op, _ARITH_OPS):
            return
        result = promote_info(left, right)
        if result not in INT_DTYPES or WIDTH[result] >= 64:
            return
        lo, hi = _interval_binop(node.op, left, right)
        lo_b, hi_b = INT_BOUNDS[result]
        overflow = None
        if hi is not None and hi > hi_b:
            overflow = f"reach {_fmt(hi)}, beyond {result.value}'s {hi_b}"
        elif lo is not None and lo < lo_b:
            overflow = f"reach {_fmt(lo)}, below {result.value}'s {lo_b}"
        if overflow is None:
            return
        yield self.finding_at(
            module.rel,
            node,
            f"arithmetic promotes to {result.value} but its values can "
            f"{overflow} — the kernel wraps where the scalar oracle "
            "keeps exact Python-int results",
            source_line=module.source_text(node),
        )

    def _check_precision(
        self, module, node: ast.BinOp, left: ArrayInfo, right: ArrayInfo
    ) -> Iterator[Finding]:
        pairs = ((left, right), (right, left))
        for side, other in pairs:
            if side.dtype not in INT_DTYPES:
                continue
            if other.dtype is not DType.FLOAT64 and not isinstance(
                node.op, ast.Div
            ):
                continue
            if side.hi is not None and side.hi > FLOAT64_EXACT_INT or (
                side.lo is not None and side.lo < -FLOAT64_EXACT_INT
            ):
                yield self.finding_at(
                    module.rel,
                    node,
                    "integer operand with values beyond 2**53 meets a "
                    "float — promotion to float64 rounds integers the "
                    "scalar oracle distinguishes",
                    source_line=module.source_text(node),
                )
                return


def _fmt(value) -> str:
    return "an unbounded magnitude" if value in (float("inf"), float("-inf")) else str(value)
