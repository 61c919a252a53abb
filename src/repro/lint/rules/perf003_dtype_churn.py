"""PERF003 — dtype churn: a promote-and-cast-back cycle in a hot loop.

The shape this rule exists for::

    acc = np.zeros(n, dtype=np.int16)
    for start, stop in rounds:
        acc = (acc + wide[start:stop]).astype(np.int16)

Every iteration promotes the accumulator into a wider dtype (numpy's
promotion rules fire because ``wide`` is a wider *array*), then pays
an ``astype`` copy to squeeze it back down — two full-array passes of
pure dtype traffic per iteration that one pre-loop widening (or a
kernel-dtype restructure) removes entirely.

Detection rides the :mod:`repro.lint.dtypeflow` interpreter: an
assignment inside a hot loop whose RHS is ``<expr>.astype(T)`` with a
*known* target dtype, where ``<expr>`` reads the assigned name (the
cycle is loop-carried) and provably promotes past ``T`` — some binop
partner in ``<expr>`` has a known dtype whose promotion with ``T``
differs from ``T``.  Python-int scalars do not widen numpy arrays, so
``(x + 1).astype(...)`` never flags; unknown dtypes never flag (the
house contract: prove, don't guess).  Distinct from PERF002, which
flags the allocation itself — PERF003 proves the *cycle*, so its hint
is "hoist the widening", not "hoist the buffer".
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.dtypeflow import (
    ArrayInfo,
    DType,
    DtypeScope,
    astype_target,
    kernel_scopes,
    promote_info,
)
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)
from repro.lint.rules.perf001_hot_loop import hot_path_model, in_scope


@register
class DtypeChurnRule(ProgramRule):
    """A loop-carried promote/cast-back cycle wastes two passes per trip."""

    id = "PERF003"
    title = "loop-carried dtype promote/cast-back churn"
    severity = "warning"
    tier = "perf"
    rationale = (
        "re-promoting a loop-carried array to a wider dtype and "
        "casting it back every iteration performs two full-array "
        "conversion passes per trip that contribute nothing to the "
        "result; hot-loop trip counts turn the churn into a dominant "
        "cost"
    )
    hint = (
        "widen the carried array once before the loop "
        "(x = x.astype(np.int64)) and cast once after, or keep the "
        "arithmetic inside the kernel dtype by construction so no "
        "promotion fires"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        model = hot_path_model(ctx)
        scopes = kernel_scopes(ctx)
        for loop in model.hot_loops():
            if not in_scope(loop.module.rel) or loop.chunked:
                continue
            scope = scopes.get(loop.qualname)
            if scope is None:
                continue
            for assign in loop.assignments:
                yield from self._check_assign(loop, scope, assign)

    def _check_assign(
        self, loop, scope: DtypeScope, assign: ast.stmt
    ) -> Iterator[Finding]:
        if not (
            isinstance(assign, ast.Assign)
            and len(assign.targets) == 1
            and isinstance(assign.targets[0], ast.Name)
        ):
            return
        name = assign.targets[0].id
        call = assign.value
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "astype"
        ):
            return
        target_dtype = astype_target(loop.module, call)
        if target_dtype is DType.UNKNOWN:
            return
        operand = call.func.value
        if not _mentions(operand, name):
            return  # not loop-carried: a one-shot cast, PERF002's beat
        promoted = self._promoted_past(scope, operand, name, target_dtype)
        if promoted is None:
            return
        yield self.finding_at(
            loop.module.rel,
            assign,
            f"loop-carried {name!r} promotes to {promoted.value} and is "
            f"cast back to {target_dtype.value} every iteration of a hot "
            "loop — a promote/cast-back cycle",
            source_line=loop.module.source_text(assign),
        )

    @staticmethod
    def _promoted_past(
        scope: DtypeScope, operand: ast.expr, name: str, target: DType
    ) -> DType | None:
        """The dtype the cycle provably promotes to, or ``None``.

        Looks for a binop partner inside *operand* that does not read
        *name*, has a known dtype, and whose promotion with *target*
        leaves *target* — proof the intermediate is wider than what the
        cast keeps.  Unknown partners never flag.
        """
        carried = ArrayInfo(target)
        for node in ast.walk(operand):
            if not isinstance(node, ast.BinOp):
                continue
            for side in (node.left, node.right):
                if _mentions(side, name):
                    continue
                partner = scope.info_of(side)
                if partner.dtype is DType.UNKNOWN:
                    continue
                promoted = promote_info(carried, partner)
                if promoted is not DType.UNKNOWN and promoted is not target:
                    return promoted
        return None


def _mentions(expr: ast.expr, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name
        for node in ast.walk(expr)
    )
