"""UNIT003 — unit-inconsistent calls across module boundaries.

The per-expression rules (UNIT001/002) see one scope at a time; the
slips that survive review are the *interprocedural* ones — a CPI
series handed to a parameter annotated ``Mpki``, a dataclass field
``mean_mpki`` constructed from a cycles value, a call whose annotated
return unit disagrees with the name it is bound to.  This rule walks
the statically resolved call graph (single, non-dynamic targets only,
like SEED001) and checks three boundaries:

* **argument vs parameter** — the inferred unit of each bound argument
  against the callee parameter's annotation (or lexicon) unit;
* **dataclass construction** — keyword/positional field values against
  the field annotations;
* **return vs binding** — ``name = call()`` where the name's lexical
  unit disagrees with the call's inferred return unit.

As everywhere in the unit analysis, ``UNKNOWN``/``DIMENSIONLESS``
never flag and dynamic dispatch is never guessed at.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import ClassInfo, ModuleInfo, Program
from repro.lint.dataflow import argument_for_param
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)
from repro.lint.unitflow import (
    UnitScope,
    UnitValue,
    annotation_unit,
    is_known,
    unit_scopes,
    name_unit,
)


def _dataclass_fields(
    cls_info: ClassInfo, cls_module: ModuleInfo
) -> list[tuple[str, UnitValue]]:
    """Ordered (field name, annotated-or-lexical unit) pairs."""
    fields = []
    for stmt in cls_info.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            unit = annotation_unit(stmt.annotation, cls_module)
            if unit is UnitValue.UNKNOWN:
                unit = name_unit(stmt.target.id)
            fields.append((stmt.target.id, unit))
    return fields


@register
class CallBoundaryUnitRule(ProgramRule):
    """Check unit agreement at every statically resolved call boundary."""

    id = "UNIT003"
    title = "unit-inconsistent call or return binding"
    severity = "error"
    tier = "units"
    rationale = (
        "a quantity crossing a function or dataclass boundary into a "
        "slot declared for a different unit (CPI into an Mpki "
        "parameter, cycles into a mean_mpki field) corrupts every "
        "result computed from it, with no runtime error to notice"
    )
    hint = (
        "pass the quantity the signature declares (convert via "
        "repro.units) or fix the annotation/name if the declaration "
        "is what's wrong"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        program: Program = ctx.program  # type: ignore[assignment]
        for scope in unit_scopes(ctx):
            module = scope.module
            for node in scope.nodes:
                if isinstance(node, ast.Call):
                    yield from self._check_arguments(
                        program, module, scope, node
                    )
                    yield from self._check_dataclass(
                        program, module, scope, node
                    )
                elif isinstance(node, ast.Assign):
                    yield from self._check_binding(module, scope, node)

    # -- argument vs parameter -----------------------------------------

    def _check_arguments(
        self,
        program: Program,
        module: ModuleInfo,
        scope: UnitScope,
        call: ast.Call,
    ):
        targets, dynamic = scope.scope.calls[call]
        if dynamic or len(targets) != 1:
            return  # ambiguity is unknown, never guessed
        callee = targets[0]
        callee_module = program.modules.get(callee.rel)
        if callee_module is None:
            return
        params = callee.params()
        if callee.is_method and params[:1] in (["self"], ["cls"]):
            params = params[1:]
        args = callee.node.args
        annotations = {
            arg.arg: annotation_unit(arg.annotation, callee_module)
            for arg in args.posonlyargs + args.args + args.kwonlyargs
        }
        for param in params:
            declared = annotations.get(param, UnitValue.UNKNOWN)
            if declared is UnitValue.UNKNOWN:
                declared = name_unit(param)
            if not is_known(declared):
                continue
            bound = argument_for_param(call, params, param)
            if bound is None:
                continue
            actual = scope.unit_of(bound)
            if is_known(actual) and actual is not declared:
                yield self.finding_at(
                    module.rel,
                    bound,
                    f"{callee.name}() parameter {param!r} expects "
                    f"{declared.value} but receives {actual.value}",
                    source_line=module.source_text(bound),
                )

    # -- dataclass construction ----------------------------------------

    def _check_dataclass(
        self,
        program: Program,
        module: ModuleInfo,
        scope: UnitScope,
        call: ast.Call,
    ):
        cls_info = program.instantiated_class(module, call)
        if cls_info is None or not cls_info.is_dataclass:
            return
        cls_module = program.modules.get(cls_info.rel)
        if cls_module is None:
            return
        fields = _dataclass_fields(cls_info, cls_module)
        by_name = dict(fields)
        bindings: list[tuple[str, UnitValue, ast.expr]] = []
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or index >= len(fields):
                break
            field_name, declared = fields[index]
            bindings.append((field_name, declared, arg))
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in by_name:
                bindings.append((kw.arg, by_name[kw.arg], kw.value))
        for field_name, declared, value in bindings:
            if not is_known(declared):
                continue
            actual = scope.unit_of(value)
            if is_known(actual) and actual is not declared:
                yield self.finding_at(
                    module.rel,
                    value,
                    f"{cls_info.name} field {field_name!r} is declared "
                    f"{declared.value} but initialized with {actual.value}",
                    source_line=module.source_text(value),
                )

    # -- return vs binding ---------------------------------------------

    def _check_binding(
        self, module: ModuleInfo, scope: UnitScope, node: ast.Assign
    ):
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        if not isinstance(node.value, ast.Call):
            return
        declared = name_unit(node.targets[0].id)
        if not is_known(declared):
            return
        actual = scope.unit_of(node.value)
        if is_known(actual) and actual is not declared:
            yield self.finding_at(
                module.rel,
                node,
                f"name {node.targets[0].id!r} advertises "
                f"{declared.value} but is bound to a call returning "
                f"{actual.value}",
                source_line=module.source_text(node),
            )
