"""Project-wide symbol table and call graph for whole-program rules.

The per-file DET rules see one module at a time; the interprocedural
rules (SEED001, PURE001, EXC001, CONC001) need to know *who calls
whom* across module boundaries.  This module builds that view:

* :class:`Program` — every parsed module, its functions, classes, and
  import table, indexed so a dotted name (``repro.rng.RandomStream``)
  or a call expression can be resolved to its definition.
* :class:`ModuleIndex` — the one walk of a parsed module: every node
  in :func:`ast.walk` order, the ``.parent`` links set in the same
  pass, and the module's :class:`ImportTable`.
* :meth:`Program.scopes` — the **scope table** every analysis reads:
  one :class:`Scope` per module top level, function and method, in
  sorted order, built once per program.  Each record carries the
  nodes of its body, its executing calls (:func:`direct_calls`), its
  assignment map (:func:`collect_assignments`) and the resolution of
  every call in its body, so no analysis walks or rebuilds any of
  them.
* :class:`CallGraph` — resolved call edges (static and dynamic), with
  a deterministic text rendering behind ``repro-cli lint --graph``.
* :func:`reachable` — the one reachability closure; the call graph,
  the context model and the hot-path model each supply their own
  successor function.

Resolution is deliberately conservative and static:

* ``Name`` calls resolve through the module's import table or to a
  module-level definition.
* ``self.method()`` / ``cls.method()`` calls resolve within the
  enclosing class and its statically resolvable bases.
* Other attribute calls (``machine.run()``) resolve *dynamically*: the
  method name is matched against every class in the program that
  defines it.  Dynamic edges over-approximate — they are included for
  reachability questions (PURE001) and excluded from precision-
  sensitive checks (SEED001 call-site threading).

Anything that cannot be resolved is simply absent from the graph;
rules treat unresolved calls as unknown rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence


class ImportTable(ast.NodeVisitor):
    """Resolve local names to the canonical modules they denote.

    Handles ``import random``, ``import numpy as np``,
    ``from random import shuffle``, ``from numpy import random as nr``
    and the like, so rules can match calls by canonical dotted name
    (``numpy.random.seed``) regardless of aliasing.

    Defined here (the leaf of the lint package's import graph) and
    re-exported by :mod:`repro.lint.rules.base` — rule modules import
    this module, so it must not import the rules package back.
    """

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}  # local name -> canonical dotted

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted name of an expression, or ``None``.

        ``np.random.seed`` resolves to ``numpy.random.seed`` when
        ``np`` aliases ``numpy``; a bare ``shuffle`` resolves to
        ``random.shuffle`` when imported from :mod:`random`.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    @classmethod
    def of(cls, tree: ast.AST) -> "ImportTable":
        """Build the import table of a parsed module."""
        table = cls()
        table.visit(tree)
        return table


@dataclass
class ModuleIndex:
    """One parsed module, walked once.

    ``nodes`` is every node of ``tree`` in exactly :func:`ast.walk`
    order; the same pass sets each child's ``.parent`` link.
    ``imports`` is the module's one :class:`ImportTable`.  Rules and
    models iterate ``nodes`` instead of walking ``tree`` again.
    """

    tree: ast.Module
    nodes: list[ast.AST]
    imports: ImportTable

    @classmethod
    def of(cls, tree: ast.Module) -> "ModuleIndex":
        """Index a parsed module: one walk, parents, imports."""
        return cls(tree, walk_with_parents(tree), ImportTable.of(tree))


def walk_with_parents(tree: ast.AST) -> list[ast.AST]:
    """Every node under *tree* in :func:`ast.walk` order, setting each
    child's ``.parent`` link on the way."""
    nodes = [tree]
    # Appending while iterating visits the list breadth-first, the
    # order of ast.walk's queue.
    for node in nodes:
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]
            nodes.append(child)
    return nodes


#: Path components that anchor a module name.  ``.../src/repro/x.py``
#: becomes ``repro.x``; ``tests/test_x.py`` becomes ``tests.test_x``.
_ROOT_ANCHORS = ("src",)
_KEPT_ANCHORS = ("tests", "examples", "benchmarks")


def module_name(rel: str) -> str:
    """Derive a dotted module name from a posix path.

    The name only needs to be stable and to agree with how the tree
    imports itself (``repro.…``); files outside any recognized root
    fall back to their stem.
    """
    parts = [p for p in rel.strip("/").split("/") if p]
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    dotted = parts[:-1] + ([] if stem == "__init__" else [stem])
    for anchor in _ROOT_ANCHORS:
        if anchor in dotted[:-1]:
            index = len(dotted) - 1 - dotted[::-1].index(anchor)
            tail = dotted[index + 1 :]
            if tail:
                return ".".join(tail)
    for anchor in _KEPT_ANCHORS:
        if anchor in dotted:
            index = len(dotted) - 1 - dotted[::-1].index(anchor)
            return ".".join(dotted[index:])
    return stem


def param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """All declared parameter names of a def, in order."""
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  # modname.func or modname.Class.method
    modname: str
    rel: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def params(self) -> list[str]:
        """All declared parameter names, in order (self/cls included)."""
        return param_names(self.node)

    def decorator_names(self) -> list[str]:
        """Trailing names of the decorators (``abstractmethod``, …)."""
        names = []
        for dec in self.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if isinstance(target, ast.Attribute):
                names.append(target.attr)
            elif isinstance(target, ast.Name):
                names.append(target.id)
        return names


@dataclass
class ClassInfo:
    """One class definition."""

    qualname: str
    modname: str
    rel: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name

    def base_exprs(self) -> list[ast.expr]:
        return list(self.node.bases)

    def dataclass_decoration(self) -> ast.expr | None:
        """The ``@dataclass`` / ``@dataclass(...)`` decorator, if any."""
        for dec in self.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name == "dataclass":
                return dec
        return None

    @property
    def is_dataclass(self) -> bool:
        return self.dataclass_decoration() is not None

    @property
    def is_frozen_dataclass(self) -> bool:
        dec = self.dataclass_decoration()
        if not isinstance(dec, ast.Call):
            return False
        return any(
            kw.arg == "frozen"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in dec.keywords
        )


@dataclass
class ModuleInfo:
    """One parsed module and its top-level symbols.

    ``index`` is the module's :class:`ModuleIndex`: ``tree``, ``nodes``
    (every node, in :func:`ast.walk` order) and ``imports`` read it.
    """

    rel: str
    modname: str
    index: ModuleIndex
    lines: list[str]
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    module_level_names: set[str] = field(default_factory=set)

    @property
    def tree(self) -> ast.Module:
        return self.index.tree

    @property
    def nodes(self) -> list[ast.AST]:
        return self.index.nodes

    @property
    def imports(self) -> ImportTable:
        return self.index.imports

    def source_text(self, node: ast.AST) -> str:
        """Stripped source line a node sits on (empty when unknown)."""
        line = getattr(node, "lineno", 0)
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


#: Pseudo-qualname suffix for module-level (top-level) code.
MODULE_SCOPE = "<module>"


def collect_assignments(nodes: Iterable[ast.AST]) -> dict[str, list[ast.expr]]:
    """Name -> every expression bound to it by one of *nodes* (a
    scope's :attr:`Scope.nodes`).

    Plain, annotated and augmented assignments, ``for`` and
    comprehension targets, and ``with ... as`` bindings.
    Flow-insensitive: every binding of a name is a reaching definition.
    """
    assignments: dict[str, list[ast.expr]] = {}

    def record(target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            assignments.setdefault(target.id, []).append(value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                # Tuple unpacking: every bound name inherits the
                # right-hand side's fact (over-approximation).
                record(element, value)

    for node in nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            record(node.target, node.value)
        elif isinstance(node, ast.AugAssign):
            record(node.target, node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            record(node.target, node.iter)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            record(node.optional_vars, node.context_expr)
    return assignments


def direct_calls(body: list[ast.stmt]) -> list[ast.Call]:
    """Calls that execute when this body runs: deferred bodies skipped.

    Nested ``def``s and ``lambda``s are closures — creating one is not
    calling it — so their internal calls are excluded.  This is the
    precision counterpart of the call graph's over-approximation
    (which attributes nested calls to the enclosing function).  Run
    once per scope by :meth:`Program._add_scope`; read
    :attr:`Scope.direct_calls`.
    """
    calls: list[ast.Call] = []
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            calls.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return calls


@dataclass
class Scope:
    """One scope-table record: a module top level, function or method.

    Every analysis reads these facts instead of recomputing them:
    iterate ``nodes`` or ``direct_calls`` rather than walking ``body``.
    """

    module: ModuleInfo
    qualname: str
    fn: FunctionInfo | None  # None for the module top level
    body: list[ast.stmt]
    #: Every node of the body, nested defs included, in the order of
    #: ``for stmt in body: for node in ast.walk(stmt)``.
    nodes: list[ast.AST]
    #: The calls that execute when the body runs (:func:`direct_calls`).
    direct_calls: list[ast.Call]
    #: Name -> every expression bound to it in the body.
    assignments: dict[str, list[ast.expr]]
    #: Every call in the body (nested defs included) -> its
    #: ``(targets, dynamic)`` resolution (see :meth:`Program._resolve_call`).
    calls: dict[ast.Call, tuple[list[FunctionInfo], bool]]


def reachable(
    roots: Iterable[str], successors: Callable[[str], Iterable[str]]
) -> set[str]:
    """Every qualname reachable from *roots* along *successors*."""
    seen: set[str] = set()
    stack = list(roots)
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(successors(current))
    return seen


class Program:
    """Symbol table over every module in one lint run."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}  # rel -> module
        self.by_modname: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}  # qualname ->
        self.classes: dict[str, ClassInfo] = {}
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        self._scopes: list[Scope] = []
        self._scope_of: dict[ast.AST, Scope] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        parsed: Iterable[tuple[str, ast.Module | ModuleIndex, Sequence[str]]],
    ) -> "Program":
        """Index ``(rel, tree, lines)`` triples into a program and build
        its scope table.

        The middle element may be the file's :class:`ModuleIndex`
        already (the engine's case); a bare tree is indexed here.
        """
        program = cls()
        for rel, tree, lines in parsed:
            index = tree if isinstance(tree, ModuleIndex) else ModuleIndex.of(tree)
            program._add_module(rel, index, list(lines))
        program._build_scope_table()
        return program

    def _add_module(self, rel: str, index: ModuleIndex, lines: list[str]) -> None:
        module = ModuleInfo(
            rel=rel, modname=module_name(rel), index=index, lines=lines
        )
        for stmt in index.tree.body:
            self._index_statement(module, stmt)
        self.modules[rel] = module
        # First module with a name wins; duplicates (same-stem fixture
        # files) stay addressable by rel.
        self.by_modname.setdefault(module.modname, module)

    def _index_statement(self, module: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                qualname=f"{module.modname}.{stmt.name}",
                modname=module.modname,
                rel=module.rel,
                node=stmt,
            )
            module.functions[stmt.name] = info
            self.functions[info.qualname] = info
        elif isinstance(stmt, ast.ClassDef):
            self._drop_class(module.classes.get(stmt.name))
            cls_info = ClassInfo(
                qualname=f"{module.modname}.{stmt.name}",
                modname=module.modname,
                rel=module.rel,
                node=stmt,
            )
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = FunctionInfo(
                        qualname=f"{cls_info.qualname}.{sub.name}",
                        modname=module.modname,
                        rel=module.rel,
                        node=sub,
                        class_name=stmt.name,
                    )
                    cls_info.methods[sub.name] = method
                    self.functions[method.qualname] = method
                    self.methods_by_name.setdefault(sub.name, []).append(method)
            module.classes[stmt.name] = cls_info
            self.classes[cls_info.qualname] = cls_info
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    module.module_level_names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                module.module_level_names.add(stmt.target.id)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Conditional definitions (version guards, __main__ blocks).
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    self._index_statement(module, sub)

    def _drop_class(self, earlier: ClassInfo | None) -> None:
        """Forget a class that a later definition of its name rebinds,
        as Python does: its methods get no scope of their own."""
        if earlier is None:
            return
        for method in earlier.methods.values():
            self.functions.pop(method.qualname, None)
            self.methods_by_name[method.name].remove(method)
            if not self.methods_by_name[method.name]:
                del self.methods_by_name[method.name]

    # -- the scope table -----------------------------------------------

    def scopes(self) -> list[Scope]:
        """The scope table: one :class:`Scope` per scope.

        Modules in path order; within one, the top level (qualname
        ``<modname>.<module>``, function ``None``), then functions, then
        methods, each sorted by name.  Nested defs are not scopes of
        their own: they are walked within their outermost enclosing
        function (an over-approximation that keeps reachability sound).
        """
        return self._scopes

    def scope_of(self, fn: FunctionInfo) -> Scope:
        """The scope-table record of one function or method."""
        return self._scope_of[fn.node]

    def body_nodes(self, node: ast.AST) -> list[ast.AST]:
        """The nodes of a def's body, or of a module tree's top level,
        in :attr:`Scope.nodes` order.

        A module or scope-table def reads its record; a nested def,
        which is not a scope of its own, is walked here.
        """
        scope = self._scope_of.get(node)
        if scope is not None:
            return scope.nodes
        return [sub for stmt in node.body for sub in ast.walk(stmt)]

    def _build_scope_table(self) -> None:
        for rel in sorted(self.modules):
            module = self.modules[rel]
            top_level = [
                stmt
                for stmt in module.tree.body
                if not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            ]
            self._add_scope(
                module, f"{module.modname}.{MODULE_SCOPE}", None, top_level
            )
            functions = [module.functions[n] for n in sorted(module.functions)]
            for class_name in sorted(module.classes):
                methods = module.classes[class_name].methods
                functions.extend(methods[n] for n in sorted(methods))
            for fn in functions:
                self._add_scope(module, fn.qualname, fn, list(fn.node.body))

    def _add_scope(
        self,
        module: ModuleInfo,
        qualname: str,
        fn: FunctionInfo | None,
        body: list[ast.stmt],
    ) -> None:
        """Record one scope: its nodes, executing calls, assignment map
        and the resolution of every call in its body, each computed
        here and nowhere else."""
        nodes = [node for stmt in body for node in ast.walk(stmt)]
        calls = {
            node: self._resolve_call(module, fn, node)
            for node in nodes
            if isinstance(node, ast.Call)
        }
        scope = Scope(
            module,
            qualname,
            fn,
            body,
            nodes,
            direct_calls(body),
            collect_assignments(nodes),
            calls,
        )
        self._scopes.append(scope)
        self._scope_of[module.tree if fn is None else fn.node] = scope

    # -- resolution ----------------------------------------------------

    def resolve_dotted(self, dotted: str) -> FunctionInfo | ClassInfo | None:
        """Look a canonical dotted name up in the program."""
        hit = self.functions.get(dotted) or self.classes.get(dotted)
        if hit is not None:
            return hit
        # ``package.module.Class.method`` written as an attribute chain.
        if "." in dotted:
            head, _, tail = dotted.rpartition(".")
            owner = self.classes.get(head)
            if owner is not None:
                return owner.methods.get(tail)
        return None

    def class_mro(self, cls_info: ClassInfo) -> Iterator[ClassInfo]:
        """The class and its statically resolvable ancestors."""
        seen: set[str] = set()
        stack = [cls_info]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            yield current
            module = self.modules.get(current.rel)
            if module is None:
                continue
            for base in current.base_exprs():
                resolved = self.resolve_class_expr(module, base)
                if resolved is not None:
                    stack.append(resolved)

    def resolve_class_expr(
        self, module: ModuleInfo, expr: ast.expr
    ) -> ClassInfo | None:
        """The program class a name or dotted expression denotes."""
        if isinstance(expr, ast.Name) and expr.id in module.classes:
            return module.classes[expr.id]
        dotted = module.imports.resolve(expr)
        hit = self.resolve_dotted(dotted) if dotted is not None else None
        return hit if isinstance(hit, ClassInfo) else None

    def resolve_method(self, cls_info: ClassInfo, name: str) -> FunctionInfo | None:
        """Find *name* on a class or its resolvable ancestors."""
        for klass in self.class_mro(cls_info):
            method = klass.methods.get(name)
            if method is not None:
                return method
        return None

    def _resolve_call(
        self,
        module: ModuleInfo,
        caller: FunctionInfo | None,
        call: ast.Call,
    ) -> tuple[list[FunctionInfo], bool]:
        """Targets of one call: ``(functions, dynamic)``.

        ``dynamic`` is True when the only evidence is a method-name
        match across the program (attribute call on a value of unknown
        type).  Class instantiations resolve to ``__init__``.
        """
        func = call.func
        # 1. A plain or dotted name resolvable through imports.
        dotted = module.imports.resolve(func)
        if dotted is not None:
            hit = self.resolve_dotted(dotted)
            if isinstance(hit, FunctionInfo):
                return [hit], False
            if isinstance(hit, ClassInfo):
                init = self.resolve_method(hit, "__init__")
                return ([init] if init is not None else []), False
        # 2. A module-local name.
        if isinstance(func, ast.Name):
            local_fn = module.functions.get(func.id)
            if local_fn is not None:
                return [local_fn], False
            local_cls = module.classes.get(func.id)
            if local_cls is not None:
                init = self.resolve_method(local_cls, "__init__")
                return ([init] if init is not None else []), False
            return [], False
        # 3. self.method() / cls.method() within a class body.
        if isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id in ("self", "cls")
                and caller is not None
                and caller.class_name is not None
            ):
                owner = module.classes.get(caller.class_name)
                if owner is not None:
                    method = self.resolve_method(owner, func.attr)
                    if method is not None:
                        return [method], False
            # 4. Dynamic: any class in the program defining this method.
            matches = self.methods_by_name.get(func.attr, [])
            return list(matches), True
        return [], False

    def instantiated_class(
        self, module: ModuleInfo, call: ast.Call
    ) -> ClassInfo | None:
        """The class a call instantiates, when statically resolvable."""
        return self.resolve_class_expr(module, call.func)


class CallGraph:
    """Resolved call edges over a :class:`Program`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.edges: dict[str, set[str]] = {}
        self.dynamic_edges: dict[str, set[str]] = {}
        for scope in program.scopes():
            for targets, dynamic in scope.calls.values():
                bucket = self.dynamic_edges if dynamic else self.edges
                for target in targets:
                    bucket.setdefault(scope.qualname, set()).add(target.qualname)

    # -- queries -------------------------------------------------------

    def reachable(
        self, roots: Iterable[str], include_dynamic: bool = True
    ) -> set[str]:
        """Qualnames reachable from *roots* along resolved edges."""

        def successors(qualname: str) -> list[str]:
            succ = list(self.edges.get(qualname, ()))
            if include_dynamic:
                succ.extend(self.dynamic_edges.get(qualname, ()))
            return succ

        return reachable(roots, successors)

    def render(self) -> str:
        """Deterministic text dump (``repro-cli lint --graph``)."""
        lines = []
        static_pairs = sorted(
            (caller, callee)
            for caller, callees in self.edges.items()
            for callee in callees
        )
        dynamic_pairs = sorted(
            (caller, callee)
            for caller, callees in self.dynamic_edges.items()
            for callee in callees
        )
        for caller, callee in static_pairs:
            lines.append(f"{caller} -> {callee}")
        for caller, callee in dynamic_pairs:
            lines.append(f"{caller} ~> {callee}  [dynamic]")
        lines.append(
            f"# {len(self.program.modules)} modules, "
            f"{len(self.program.functions)} functions, "
            f"{len(static_pairs)} static edges, "
            f"{len(dynamic_pairs)} dynamic edges"
        )
        return "\n".join(lines)
