"""Def-use and seed-taint dataflow for the whole-program lint rules.

The paper's invariant is that every observation is a pure function of
(machine seed, benchmark, layout index), which in code means: every
RNG is constructed from a value *traceable* to a seed parameter.  This
module answers the three questions SEED001 asks about one function:

* Is a seed-like parameter ever *used* (read, passed on, stored)?
* Is it *shadowed* — reassigned from something unrelated before use?
* What is the provenance (:class:`Taint`) of an arbitrary expression —
  seeded, a bare constant, or unknown?

The analysis is intraprocedural, flow-insensitive over local
assignments, and deliberately three-valued: ``UNKNOWN`` never flags.
A hazard is only reported when the analysis can *prove* the seed was
dropped, shadowed, or replaced by a constant — the rules trade recall
for a zero-false-positive contract on idiomatic code.

Every analysis here reads one record of the program's scope table
(:meth:`repro.lint.callgraph.Program.scopes`): the scope's assignment
map is built there, once per lint run, and never again.  This module
adds :class:`ScopeFlow`, the one cycle-guarded name rule over that
map (seeds first, then the join over reaching definitions).  Taint
here, units (:mod:`repro.lint.unitflow`) and dtypes
(:mod:`repro.lint.dtypeflow`) differ only in their seeds, their
``join`` and their transfer functions.
"""

from __future__ import annotations

import ast
import enum
import functools
import re
from typing import Callable, Iterator, TypeVar

from repro.lint.callgraph import Scope, param_names

_V = TypeVar("_V")

#: Parameter / attribute names that denote seed material.
_SEED_NAME_RE = re.compile(r"^_?(seed|seeds|[a-z0-9_]+_seeds?)$")

#: Module-level constants that act as sanctioned *root* seeds — the
#: published bases the paper derives everything from.
_SEED_ROOT_RE = re.compile(r"^_?[A-Z0-9_]*SEED[A-Z0-9_]*$")

#: Functions that *derive* seed material: tainted iff any argument is.
_DERIVE_CALLS = frozenset({"derive_seed", "fork"})

#: Transparent wrappers: taint passes through the sole argument.
_PASSTHROUGH_CALLS = frozenset({"int", "abs", "hash", "PCG64", "Philox", "SFC64", "MT19937", "SeedSequence"})


def is_seed_name(name: str) -> bool:
    """Whether a lowercase identifier denotes seed material."""
    return bool(_SEED_NAME_RE.match(name))


def is_seed_root_name(name: str) -> bool:
    """Whether an UPPER_CASE module constant is a sanctioned root seed."""
    return bool(_SEED_ROOT_RE.match(name))


class Taint(enum.Enum):
    """Provenance of an expression's value."""

    SEEDED = "seeded"  # traceable to seed material
    CONSTANT = "constant"  # built entirely from literals
    UNKNOWN = "unknown"  # cannot tell — never flagged


def _join(a: Taint, b: Taint) -> Taint:
    """Join: any seeded input seeds the result; all-constant stays so."""
    if Taint.SEEDED in (a, b):
        return Taint.SEEDED
    if a is b is Taint.CONSTANT:
        return Taint.CONSTANT
    return Taint.UNKNOWN


def _combine(taints: list[Taint]) -> Taint:
    """:func:`_join` over a list; the empty list is UNKNOWN."""
    return functools.reduce(_join, taints) if taints else Taint.UNKNOWN


def last_name(expr: ast.expr) -> str | None:
    """Trailing identifier of a call target (``a.b.c`` -> ``c``)."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


class ScopeFlow:
    """The name rule the scope interpreters share.

    Built over one :class:`~repro.lint.callgraph.Scope` record, whose
    assignment map it reads; a subclass supplies, per lattice, its
    seeds, its ``join`` and its transfer function
    ``evaluate(expr, visiting)``.  :meth:`joined` is the cycle-guarded
    join over a name's reaching definitions that taint, units and
    dtypes all use once their seeds have had their say.
    """

    def __init__(self, scope: Scope) -> None:
        self.scope = scope
        #: Every node of the scope's body (:attr:`Scope.nodes`).
        self.nodes = scope.nodes
        #: name -> every expression assigned to it in this scope.
        self.assignments = scope.assignments

    def joined(
        self,
        name: str,
        visiting: frozenset[str],
        evaluate: Callable[[ast.expr, frozenset[str]], _V],
        join: Callable[[_V, _V], _V],
        unknown: _V,
    ) -> _V | None:
        """Join of *evaluate* over every value assigned to *name*.

        ``None`` when the scope never assigns *name* (the caller's
        fallback decides); *unknown* on a cyclic local definition.
        """
        if name in visiting:
            return unknown
        values = self.assignments.get(name)
        if not values:
            return None
        inner = visiting | {name}
        return functools.reduce(join, (evaluate(v, inner) for v in values))


class FunctionDataflow(ScopeFlow):
    """Local def-use facts for one function's scope-table record."""

    def __init__(self, scope: Scope) -> None:
        super().__init__(scope)
        self.node = scope.fn.node
        self.params: list[str] = param_names(self.node)

    # -- parameter usage -----------------------------------------------

    def seed_params(self) -> list[str]:
        """Seed-like parameters, excluding the ``_`` unused convention."""
        return [
            p
            for p in self.params
            if is_seed_name(p) and not p.startswith("_")
        ]

    def loads_of(self, name: str) -> list[ast.Name]:
        """Every Load of *name* anywhere in the body (incl. nested)."""
        return [
            n
            for n in ast.walk(self.node)
            if isinstance(n, ast.Name)
            and n.id == name
            and isinstance(n.ctx, ast.Load)
        ]

    def is_param_used(self, name: str) -> bool:
        """A parameter counts as used when it is ever read."""
        return bool(self.loads_of(name))

    def shadowing_stores(self, name: str) -> Iterator[ast.expr]:
        """Assignments that replace *name* with unrelated material.

        ``seed = seed & MASK`` and ``seed = derive_seed(seed, …)`` are
        self-referential refinements, not shadows; ``seed = 42`` and
        ``seed = other`` sever the provenance chain.
        """
        for value in self.assignments.get(name, []):
            reads_self = any(
                isinstance(n, ast.Name) and n.id == name
                for n in ast.walk(value)
            )
            if not reads_self and self.taint_of(value) is not Taint.SEEDED:
                yield value

    # -- taint ---------------------------------------------------------

    def taint_of(self, expr: ast.expr, _visiting: frozenset[str] = frozenset()) -> Taint:
        """Provenance of one expression under local assignments."""
        if isinstance(expr, ast.Constant):
            return Taint.CONSTANT
        if isinstance(expr, ast.Name):
            return self._taint_of_name(expr.id, _visiting)
        if isinstance(expr, ast.Attribute):
            return Taint.SEEDED if is_seed_name(expr.attr) else Taint.UNKNOWN
        if isinstance(expr, ast.Subscript):
            return self.taint_of(expr.value, _visiting)
        if isinstance(expr, ast.BinOp):
            return _combine(
                [
                    self.taint_of(expr.left, _visiting),
                    self.taint_of(expr.right, _visiting),
                ]
            )
        if isinstance(expr, ast.UnaryOp):
            return self.taint_of(expr.operand, _visiting)
        if isinstance(expr, ast.BoolOp):
            return _combine([self.taint_of(v, _visiting) for v in expr.values])
        if isinstance(expr, ast.IfExp):
            return _combine(
                [
                    self.taint_of(expr.body, _visiting),
                    self.taint_of(expr.orelse, _visiting),
                ]
            )
        if isinstance(expr, (ast.Tuple, ast.List)):
            return _combine([self.taint_of(e, _visiting) for e in expr.elts])
        if isinstance(expr, ast.Starred):
            return self.taint_of(expr.value, _visiting)
        if isinstance(expr, ast.Call):
            return self._taint_of_call(expr, _visiting)
        return Taint.UNKNOWN

    def _taint_of_name(self, name: str, visiting: frozenset[str]) -> Taint:
        if name in self.params:
            return Taint.SEEDED if is_seed_name(name) else Taint.UNKNOWN
        assigned = self.joined(name, visiting, self.taint_of, _join, Taint.UNKNOWN)
        if assigned is not None:
            return assigned
        if is_seed_root_name(name) or is_seed_name(name):
            # A published root-seed constant, or a free seed-like
            # variable (enclosing scope, module level).
            return Taint.SEEDED
        return Taint.UNKNOWN

    def _taint_of_call(self, call: ast.Call, visiting: frozenset[str]) -> Taint:
        name = last_name(call.func)
        arg_taints = [self.taint_of(a, visiting) for a in call.args] + [
            self.taint_of(kw.value, visiting)
            for kw in call.keywords
            if kw.value is not None
        ]
        if name in _DERIVE_CALLS:
            if name == "fork" and isinstance(call.func, ast.Attribute):
                # stream.fork(x): seeded iff the stream itself is.
                return _combine(
                    [self.taint_of(call.func.value, visiting)] + arg_taints
                )
            return _combine(arg_taints)
        if name in _PASSTHROUGH_CALLS:
            return _combine(arg_taints) if arg_taints else Taint.UNKNOWN
        return Taint.UNKNOWN


def argument_for_param(
    call: ast.Call, params: list[str], param: str
) -> ast.expr | None:
    """The expression a call binds to *param* of its callee.

    Positional arguments are matched by position against *params*
    (which must include ``self`` for methods only if the call site
    passes it explicitly — callers pass the already-adjusted list);
    keywords by name.  Returns ``None`` when the binding cannot be
    determined statically (``*args`` forwarding, missing argument).
    """
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    if param not in params:
        return None
    index = params.index(param)
    if index < len(call.args):
        arg = call.args[index]
        if isinstance(arg, ast.Starred):
            return None
        if any(isinstance(a, ast.Starred) for a in call.args[:index]):
            return None
        return arg
    return None
