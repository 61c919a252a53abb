"""Hot-path performance abstract analysis (the ``perf`` tier).

The paper's instrument only works when behavioral simulation is fast
enough to sweep thousands of layouts; the house engine contract makes
that a *structural* property — every structure exposes
``engine="scalar"|"vector"``, the vector path runs chunked numpy
kernels, and the per-event Python loop survives only as the scalar
differential oracle.  This module makes the contract checkable:

* **Hot-scope reachability** — the call-graph closure of the engine
  entry points (``simulate`` / ``simulate_mask`` / ``execute`` /
  ``observe``), *excluding* call sites that sit inside a recognized
  scalar-engine guard (``if engine == "scalar": ...`` and its
  orientations).  The guarded branch is the sanctioned oracle tier;
  loops and calls there are exempt by construction, not by
  suppression.
* **Loop-shape classification** — every ``for``/``while`` statement in
  every scope is classified: *per-event* (iterating event-array
  material: ``.tolist()`` streams, ``zip``/``enumerate`` thereof, or
  parameters from the trace lexicon), *chunked* (iterating
  ``vector.iter_chunks`` — the sanctioned kernel-dispatch shape), or
  neither.
* **Allocation vocabulary** — numpy constructors and copying calls
  (``zeros``/``concatenate``/``append``/``astype``/``copy``/…)
  recorded per loop so PERF002 can flag churn inside hot loops.

The model reads the program's scope table
(:meth:`repro.lint.callgraph.Program.scopes`) rather than rebuilding
it: each record's call resolutions give the hot-scope edges, its
assignment map traces a loop iterable back to stream material, and
:func:`repro.lint.callgraph.reachable` computes the closure.

Honest limits (see METHODOLOGY §15): the classification is lexical
and static.  Trip counts are invisible, so a "hot loop" may execute
once; virtual dispatch is over-approximated by method-name matching,
so the hot set can include same-name methods of unrelated classes;
comprehensions are not loops to this analysis; and the scalar-guard
recognizer only understands direct ``engine ==/!= "scalar"|"vector"``
comparisons.  The rules riding this model therefore flag *shapes*, and
every deliberate exception carries a reviewable inline suppression.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.callgraph import (
    FunctionInfo,
    ModuleInfo,
    Program,
    Scope,
    reachable,
)

#: Engine entry points: reachability roots of the hot scope.
ENTRY_NAMES = frozenset(
    {"simulate", "simulate_mask", "execute", "observe", "observe_one"}
)

#: Names of event-stream material (the trace vocabulary the simulators
#: actually use); a loop iterating one of these is per-event.
EVENT_NAME_RE = re.compile(
    r"(^|_)(pcs?|outs?|address(es)?|addrs?|outcomes?|targets?|tags?|"
    r"blocks?|events?|accesses|stream|trace)$"
)

#: numpy module-level constructors/copiers (resolved through imports,
#: so ``mylist.append`` is never confused with ``np.append``).
NP_ALLOCATORS = frozenset(
    {
        "zeros", "ones", "empty", "full",
        "zeros_like", "ones_like", "empty_like", "full_like",
        "arange", "array", "asarray", "ascontiguousarray",
        "concatenate", "append", "tile", "repeat",
        "stack", "vstack", "hstack", "column_stack",
    }
)

#: Method calls that copy an array regardless of the receiver's type.
METHOD_ALLOCATORS = frozenset({"astype", "copy", "tolist"})


def engine_guard(test: ast.expr) -> tuple[bool, bool] | None:
    """Classify an ``if`` test as an engine guard, or ``None``.

    Returns ``(body_is_scalar, orelse_is_scalar)`` for direct
    comparisons of a name/attribute called ``engine`` against the
    string ``"scalar"`` or ``"vector"`` — the four orientations the
    tree actually writes.  Anything else is not a guard.
    """
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Eq, ast.NotEq))
    ):
        return None
    sides = (test.left, test.comparators[0])
    knob = next(
        (
            s
            for s in sides
            if (isinstance(s, ast.Name) and s.id == "engine")
            or (isinstance(s, ast.Attribute) and s.attr == "engine")
        ),
        None,
    )
    literal = next(
        (
            s.value
            for s in sides
            if isinstance(s, ast.Constant) and s.value in ("scalar", "vector")
        ),
        None,
    )
    if knob is None or literal is None:
        return None
    body_scalar = (literal == "scalar") == isinstance(test.ops[0], ast.Eq)
    return body_scalar, not body_scalar


@dataclass
class HotLoop:
    """One ``for``/``while`` statement, classified."""

    module: ModuleInfo
    fn: FunctionInfo | None
    qualname: str  # enclosing scope
    node: ast.For | ast.AsyncFor | ast.While
    in_scalar_guard: bool
    per_event: bool = False
    chunked: bool = False
    #: numpy allocation/copy calls lexically in this loop's body but
    #: not inside a nested loop (which records its own).
    allocations: list[ast.Call] = field(default_factory=list)
    #: assignments lexically in this loop's body, same nesting rule.
    assignments: list[ast.stmt] = field(default_factory=list)


class HotPathModel:
    """Whole-program hot-scope + loop-shape model for the PERF rules.

    Built once per lint invocation (via ``ProgramContext.shared``) and
    consulted by PERF001–PERF003.  ``hot`` is the set of scope
    qualnames reachable from the engine entry points along call edges
    that do not sit inside a scalar-engine guard; virtual dispatch is
    over-approximated by method-name matching so subclass overrides of
    ``_run``-style hooks stay hot.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        #: scope qualname -> callee qualnames of calls *outside* any
        #: scalar guard, and the scope's classified loops.
        self.callees: dict[str, set[str]] = {}
        self.loops: dict[str, list[HotLoop]] = {}
        for scope in program.scopes():
            self.callees[scope.qualname] = set()
            self.loops[scope.qualname] = []
            self._scan(scope, scope.body, in_scalar=False, loop=None)
        self.entries: tuple[str, ...] = tuple(
            sorted(
                info.qualname
                for info in program.functions.values()
                if info.name in ENTRY_NAMES
            )
        )
        self.hot: frozenset[str] = frozenset(
            reachable(
                (q for q in self.entries if q in self.callees),
                lambda q: (c for c in self.callees[q] if c in self.callees),
            )
        )

    # -- construction --------------------------------------------------

    def _scan(
        self,
        scope: Scope,
        stmts: list[ast.stmt],
        in_scalar: bool,
        loop: HotLoop | None,
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                guard = engine_guard(stmt.test)
                self._scan_expr(scope, stmt.test, in_scalar, loop)
                body_scalar = orelse_scalar = in_scalar
                if guard is not None:
                    body_scalar = in_scalar or guard[0]
                    orelse_scalar = in_scalar or guard[1]
                self._scan(scope, stmt.body, body_scalar, loop)
                self._scan(scope, stmt.orelse, orelse_scalar, loop)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                inner = HotLoop(
                    module=scope.module,
                    fn=scope.fn,
                    qualname=scope.qualname,
                    node=stmt,
                    in_scalar_guard=in_scalar,
                )
                self.loops[scope.qualname].append(inner)
                if isinstance(stmt, ast.While):
                    self._scan_expr(scope, stmt.test, in_scalar, inner)
                else:
                    self._scan_expr(scope, stmt.iter, in_scalar, loop)
                    inner.per_event = self._per_event(scope, stmt.iter, set())
                    inner.chunked = _is_chunked(scope.module, stmt.iter)
                self._scan(scope, stmt.body, in_scalar, inner)
                self._scan(scope, stmt.orelse, in_scalar, loop)
                continue
            if loop is not None and isinstance(
                stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)
            ):
                loop.assignments.append(stmt)
            if isinstance(stmt, ast.Try):
                for handler in stmt.handlers:
                    self._scan(scope, handler.body, in_scalar, loop)
            # Generic: expressions on this statement, then nested
            # statement lists (with/try bodies, nested defs — a nested
            # def executes as part of its enclosing scope here, an
            # over-approximation the rules accept).
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._scan_expr(scope, child, in_scalar, loop)
                elif isinstance(child, ast.withitem):
                    self._scan_expr(scope, child.context_expr, in_scalar, loop)
            for name in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, name, None)
                if isinstance(nested, list) and nested and isinstance(
                    nested[0], ast.stmt
                ):
                    self._scan(scope, nested, in_scalar, loop)

    def _scan_expr(
        self,
        scope: Scope,
        expr: ast.expr,
        in_scalar: bool,
        loop: HotLoop | None,
    ) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            if loop is not None and _is_allocation(scope.module, node):
                loop.allocations.append(node)
            if in_scalar:
                continue
            targets, _dynamic = scope.calls[node]
            names = {t.qualname for t in targets}
            if isinstance(node.func, ast.Attribute):
                # Virtual dispatch: a self.method() call resolves
                # statically to the defining class and would miss
                # subclass overrides; union in the name matches.
                names.update(
                    m.qualname
                    for m in self.program.methods_by_name.get(
                        node.func.attr, []
                    )
                )
            self.callees[scope.qualname].update(names)

    def _per_event(
        self, scope: Scope, expr: ast.expr, seen: set[str]
    ) -> bool:
        """Whether *expr* denotes per-event stream material."""
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr == "tolist":
                return True
            if isinstance(func, ast.Name) and func.id in ("zip", "enumerate"):
                return any(
                    self._per_event(scope, arg, seen) for arg in expr.args
                )
            return False
        if isinstance(expr, ast.Subscript):
            return self._per_event(scope, expr.value, seen)
        if isinstance(expr, ast.Starred):
            return self._per_event(scope, expr.value, seen)
        if isinstance(expr, ast.Name):
            if expr.id in seen:
                return False
            seen.add(expr.id)
            params = scope.fn.params() if scope.fn is not None else []
            if expr.id in params and EVENT_NAME_RE.search(expr.id):
                return True
            return any(
                self._per_event(scope, value, seen)
                for value in scope.assignments.get(expr.id, [])
            )
        return False

    # -- queries -------------------------------------------------------

    def is_hot(self, qualname: str) -> bool:
        """Whether *qualname* is vector-path reachable from an entry."""
        return qualname in self.hot

    def hot_loops(self) -> Iterator[HotLoop]:
        """Loops in hot scopes, outside any scalar-engine guard."""
        for qualname in sorted(self.hot):
            for loop in self.loops[qualname]:
                if not loop.in_scalar_guard:
                    yield loop

    def kernel_hint(self, loop: HotLoop) -> str:
        """Which ``repro.uarch.vector`` family fits *loop*'s body."""
        families: set[str] = set()
        for stmt in ast.walk(loop.node):
            if isinstance(stmt, ast.Call):
                func = stmt.func
                attr = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else ""
                )
                if attr in ("lru_access", "argmax"):
                    families.add("lru_scan")
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    if _is_counter_update(stmt.value):
                        families.add("counter_scan")
                    else:
                        families.add("last_value_scan")
            if (
                isinstance(stmt, ast.BinOp)
                and isinstance(stmt.op, ast.LShift)
            ):
                families.add("shifted_histories")
        return "/".join(sorted(families)) or "counter_scan/last_value_scan"


def _is_chunked(module: ModuleInfo, iter_expr: ast.expr) -> bool:
    """Whether a loop iterates ``vector.iter_chunks(...)``."""
    if not isinstance(iter_expr, ast.Call):
        return False
    func = iter_expr.func
    if isinstance(func, ast.Attribute) and func.attr == "iter_chunks":
        return True
    if isinstance(func, ast.Name):
        if func.id == "iter_chunks":
            return True
        dotted = module.imports.resolve(func)
        return dotted == "repro.uarch.vector.iter_chunks"
    return False


def _is_allocation(module: ModuleInfo, call: ast.Call) -> bool:
    """Whether *call* allocates or copies an array (PERF002 vocabulary)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in METHOD_ALLOCATORS:
            return True
        dotted = module.imports.resolve(func)
        if dotted is not None and dotted.startswith("numpy."):
            return dotted.rsplit(".", 1)[-1] in NP_ALLOCATORS
    return False


def _is_counter_update(value: ast.expr) -> bool:
    """Whether an expression looks like a saturating-counter step."""
    for node in ast.walk(value):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.Add, ast.Sub))
            and (
                (isinstance(node.right, ast.Constant)
                 and node.right.value == 1)
                or (isinstance(node.left, ast.Constant)
                    and node.left.value == 1)
            )
        ):
            return True
    return False
