"""SEED001 — whole-program seed provenance.

The method's one invariant is that every observation is a pure
function of (machine seed, benchmark, layout index); interferometry
pools hundreds of layouts into one regression on exactly that
assumption.  A seed that is *dropped* (accepted but never used),
*shadowed* (reassigned to unrelated material), or *replaced by a
constant* part-way down the call chain silently decouples results
from the campaign key — the per-file DET001 rule cannot see any of
these, because each individual statement looks innocent.

SEED001 runs over the project call graph and flags:

* **dropped** — a function takes a seed-like parameter and never reads
  it (prefix the name with ``_`` to declare it deliberately unused);
* **shadowed** — a seed-like parameter is reassigned from a constant
  or unrelated expression, severing its provenance;
* **constant construction** — an RNG is built from a bare constant
  while a seed-like parameter is in scope and ignored;
* **unthreaded call** — a function that itself receives a seed calls a
  seed-accepting function but passes a constant instead of (something
  derived from) its own seed.

Soundness limits: taint is three-valued and ``UNKNOWN`` never flags;
dynamic dispatch and ``*args`` forwarding are treated as unknown;
module-level root seeds (``MASTER_SEED``-style published constants and
entry-point literals) are sanctioned roots, not hazards.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import FunctionInfo, ModuleInfo, Program
from repro.lint.dataflow import (
    FunctionDataflow,
    Taint,
    argument_for_param,
    is_seed_name,
)
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    register,
)

#: RNG constructors whose seed argument SEED001 traces.
_RNG_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "repro.rng.RandomStream",
    }
)

#: Decorators that exempt a def from the dropped-parameter check.
_STUB_DECORATORS = frozenset({"abstractmethod", "overload"})


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Interface stubs (pass/.../docstring/raise-only bodies)."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]
    return all(
        isinstance(stmt, (ast.Pass, ast.Raise))
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    )


@register
class SeedProvenanceRule(ProgramRule):
    """Trace every RNG construction back to a seed parameter."""

    id = "SEED001"
    title = "seed provenance broken"
    severity = "error"
    rationale = (
        "a seed that is dropped, shadowed, or replaced by a constant "
        "anywhere along the call chain silently decouples observations "
        "from (machine seed, benchmark, layout index) — the regression "
        "then pools measurements that are not replicates"
    )
    hint = (
        "thread the seed parameter through every call (derive children "
        "with repro.rng.derive_seed/fork); prefix it with '_' only if "
        "it is deliberately unused"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        program: Program = ctx.program  # type: ignore[assignment]
        for qualname in sorted(program.functions):
            info = program.functions[qualname]
            module = program.modules.get(info.rel)
            if module is None:
                continue
            flow = FunctionDataflow(program.scope_of(info))
            yield from self._check_dropped(info, flow, module)
            yield from self._check_shadowed(info, flow, module)
            yield from self._check_constructions(info, flow, module)
            yield from self._check_call_threading(info, flow, module)

    # -- dropped -------------------------------------------------------

    def _check_dropped(
        self, info: FunctionInfo, flow: FunctionDataflow, module: ModuleInfo
    ) -> Iterator[Finding]:
        if _is_stub(info.node):
            return
        if _STUB_DECORATORS & set(info.decorator_names()):
            return
        for param in flow.seed_params():
            if not flow.is_param_used(param):
                yield self.finding_at(
                    module.rel,
                    info.node,
                    f"{info.name}() accepts seed parameter {param!r} but "
                    "never uses it — the seed is dropped here",
                    source_line=module.source_text(info.node),
                )

    # -- shadowed ------------------------------------------------------

    def _check_shadowed(
        self, info: FunctionInfo, flow: FunctionDataflow, module: ModuleInfo
    ) -> Iterator[Finding]:
        for param in flow.seed_params():
            for store in flow.shadowing_stores(param):
                yield self.finding_at(
                    module.rel,
                    store,
                    f"seed parameter {param!r} of {info.name}() is "
                    "reassigned from unrelated material — its provenance "
                    "is severed",
                    source_line=module.source_text(store),
                )

    # -- constant constructions ----------------------------------------

    def _rng_seed_argument(
        self, module: ModuleInfo, call: ast.Call
    ) -> ast.expr | None:
        """The seed expression of an RNG construction (None otherwise)."""
        name = module.imports.resolve(call.func)
        if name not in _RNG_CONSTRUCTORS:
            return None
        for kw in call.keywords:
            if kw.arg in ("seed", "seed_seq"):
                return kw.value
        if call.args and not isinstance(call.args[0], ast.Starred):
            return call.args[0]
        return None

    def _check_constructions(
        self, info: FunctionInfo, flow: FunctionDataflow, module: ModuleInfo
    ) -> Iterator[Finding]:
        seed_params = flow.seed_params()
        if not seed_params:
            return  # nothing in scope to ignore — roots are sanctioned
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            seed_arg = self._rng_seed_argument(module, node)
            if seed_arg is None:
                continue
            if flow.taint_of(seed_arg) is Taint.CONSTANT:
                yield self.finding_at(
                    module.rel,
                    node,
                    f"RNG constructed from a constant while seed "
                    f"parameter {seed_params[0]!r} is in scope — the "
                    "provided seed is ignored",
                    source_line=module.source_text(node),
                )

    # -- call-site threading -------------------------------------------

    def _check_call_threading(
        self, info: FunctionInfo, flow: FunctionDataflow, module: ModuleInfo
    ) -> Iterator[Finding]:
        caller_seeds = flow.seed_params()
        if not caller_seeds:
            return
        for node, (targets, dynamic) in flow.scope.calls.items():
            if dynamic or len(targets) != 1:
                continue  # dynamic or ambiguous: unknown, never guessed
            callee = targets[0]
            callee_params = callee.params()
            if callee.is_method and callee_params[:1] == ["self"]:
                callee_params = callee_params[1:]
            for param in callee_params:
                if not is_seed_name(param) or param.startswith("_"):
                    continue
                bound = argument_for_param(node, callee_params, param)
                if bound is None:
                    continue
                if flow.taint_of(bound) is Taint.CONSTANT:
                    yield self.finding_at(
                        module.rel,
                        node,
                        f"{info.name}() receives seed parameter "
                        f"{caller_seeds[0]!r} but passes a constant to "
                        f"{callee.name}({param}=…) — the seed is not "
                        "threaded through",
                        source_line=module.source_text(node),
                    )
