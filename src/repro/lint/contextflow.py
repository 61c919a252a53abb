"""Execution-context reachability for the CONC and ASYNC lint rules.

The campaign engine runs code in four kinds of context besides the
main thread: the deadline watchdog's work threads and thread-pool
callables (``thread``), POSIX signal handlers installed by
:class:`~repro.core.supervise.ShutdownHandler` (``signal``), coroutines
and callbacks on an event loop (``loop``), and the blocking work a
loop offloads to an executor (``executor``).  No shipped module runs
an event loop any more (:mod:`repro.serve` serves on stdlib threads),
and ``http.server`` handler threads are deliberately not an entry:
the per-class shared-state analysis would flag every object a request
builds for itself.  Code reachable from one of those entry points runs
interleaved with the main context, so the shared-state, lock,
signal-safety and blocking rules need to know, per function, *which
contexts can execute it*.  This module is the one model that answers:

* **One entry table** (:data:`_ENTRY_FUNCTIONS`, :data:`_ENTRY_METHODS`,
  :data:`_POOL_METHODS`): call shape → context, the argument position
  of the callable, and whether a coroutine *call* in that slot counts
  (``asyncio.run(main())``) or only a callable does
  (``Thread(target=work)``).
* **One callable resolver** on top of the program's scope table
  (:meth:`repro.lint.callgraph.Program.scopes`), which has already
  resolved every call through the import table and ``self.``/``cls.``
  methods.  For a call the table leaves unresolved or dynamic, the
  model adds its typed-receiver fallback: locals holding a single
  visible construction (``handler = ShutdownHandler()``, read from the
  record's assignment map) and typed ``self.a.b`` chains inferred from
  ``__init__`` evidence.  Callables handed to an entry point also
  unwrap ``functools.partial`` and nested ``def``\\ s (kept as
  context *regions*: the symbol table does not index them, so their
  resolvable calls seed reachability directly).
* **One reachability** (:func:`repro.lint.callgraph.reachable`) over
  static call edges plus the typed edges that fallback adds.  Dynamic
  (method-name-match) edges are excluded: an over-approximated context
  would manufacture false cross-context findings, and the rules
  inherit the lint subsystem's UNKNOWN-never-flags contract — an
  unresolvable callable contributes no context at all.
* :meth:`ContextModel.contexts_of` over ``{thread, signal, loop,
  executor}``; the empty set means "main context only, as far as the
  analysis can prove".  The model also computes which functions block
  the thread that calls them (the ASYNC001 fixpoint) and carries the
  lock/Event/asyncio-primitive lexicons the rules share.

The two context *families* are never merged.  CONC rules read only
:data:`THREAD_CONTEXTS`, ASYNC rules only :data:`ASYNC_CONTEXTS`.  An
executor callable does run on a pool thread, but the shared-state
analysis is per class, not per object: executor work builds and
mutates its own objects, and labelling it ``thread`` would flag every
class it shares with main-context code.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.lint.callgraph import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Program,
    Scope,
    reachable,
)

if TYPE_CHECKING:
    from repro.lint.rules.base import ProgramContext

#: The thread family (CONC rules) and the async family (ASYNC rules).
#: "main" is implicit: a function in no context runs only on the main
#: thread, or never under the async machinery.
THREAD_CONTEXTS = ("thread", "signal")
ASYNC_CONTEXTS = ("loop", "executor")
CONTEXTS = THREAD_CONTEXTS + ASYNC_CONTEXTS


@dataclass(frozen=True)
class EntryShape:
    """Where a concurrency API takes its callable, and who runs it."""

    context: str
    #: Positional index of the callable; ``None`` means every
    #: positional argument (``asyncio.gather(a(), b())``).
    position: int | None
    #: Keyword spellings of the callable, tried before the position.
    keywords: tuple[str, ...] = ()
    #: Whether a call in that slot is a coroutine the loop will run
    #: (``asyncio.run(main())``); otherwise only a callable counts.
    coroutine_call: bool = False


_LOOP_CORO = EntryShape("loop", 0, coroutine_call=True)

#: Entry functions by canonical dotted name.  The process-pool boundary
#: is CONC001's business — workers there share nothing, so their
#: callables are not a context here.
_ENTRY_FUNCTIONS = {
    "threading.Thread": EntryShape("thread", 1, ("target",)),
    "threading.Timer": EntryShape("thread", 1, ("target", "function")),
    "signal.signal": EntryShape("signal", 1, ("handler",)),
    "asyncio.run": _LOOP_CORO,
    "asyncio.create_task": _LOOP_CORO,
    "asyncio.ensure_future": _LOOP_CORO,
    "asyncio.wait_for": _LOOP_CORO,
    "asyncio.shield": _LOOP_CORO,
    "asyncio.gather": EntryShape("loop", None, coroutine_call=True),
    # Per-connection callbacks executed on the loop.
    "asyncio.start_server": EntryShape("loop", 0),
    "asyncio.start_unix_server": EntryShape("loop", 0),
    "asyncio.to_thread": EntryShape("executor", 0),
}

#: Entry methods on any receiver.  ``create_task``/``ensure_future``
#: are asyncio vocabulary whatever the receiver (``loop.create_task``,
#: ``tg.create_task``); ``call_soon*``/``call_later`` hand a callable
#: to the loop from any thread, and it executes on the loop thread —
#: which is why ASYNC003 treats them as the sanctioned handoff.
_ENTRY_METHODS = {
    "run_in_executor": EntryShape("executor", 1),
    "create_task": _LOOP_CORO,
    "ensure_future": _LOOP_CORO,
    "call_soon": EntryShape("loop", 0),
    "call_soon_threadsafe": EntryShape("loop", 0),
    "call_later": EntryShape("loop", 1),
}

#: Entry methods on a local provably bound to a thread pool.
_POOL_METHODS = {
    "submit": EntryShape("thread", 0),
    "map": EntryShape("thread", 0),
}

#: Constructors whose result is a *thread* pool (shared memory).
_THREAD_POOL_CONSTRUCTORS = frozenset(
    {
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "multiprocessing.dummy.Pool",
    }
)

# -- lexicons the rules share ------------------------------------------

#: Constructors whose result is a lock (acquire/release discipline).
LOCK_CONSTRUCTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    }
)

#: Constructors whose result is an Event (set/is_set are atomic and
#: the sanctioned cross-context signalling discipline).
EVENT_CONSTRUCTORS = frozenset({"threading.Event"})

#: Constructors of asyncio synchronization/queue primitives.  These are
#: loop-confined objects with their own discipline; attributes holding
#: them are exempt from ASYNC003 (they *are* the sanctioned handoff).
ASYNC_PRIMITIVE_CONSTRUCTORS = frozenset(
    {
        "asyncio.Lock",
        "asyncio.Event",
        "asyncio.Condition",
        "asyncio.Semaphore",
        "asyncio.BoundedSemaphore",
        "asyncio.Queue",
        "asyncio.LifoQueue",
        "asyncio.PriorityQueue",
    }
)

#: Identifier lexicon for lock-like names (``self._lock``, ``io_mutex``).
LOCK_NAME_RE = re.compile(r"(^|_)(lock|mutex)$")

#: Container methods that mutate their receiver in place.  A call to
#: one of these on shared state is a compound read-modify-write, never
#: atomic under the GIL's bytecode boundaries.
MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "pop", "remove", "clear", "add",
        "discard", "update", "setdefault", "popitem", "sort", "reverse",
        "appendleft", "popleft",
    }
)

#: Canonical dotted names whose call blocks the calling thread.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.system",
        "os.waitpid",
        "urllib.request.urlopen",
        "shutil.copytree",
        "shutil.rmtree",
    }
)

#: Builtins whose call blocks on I/O.  Resolved by bare name, guarded
#: against local shadowing by the module symbol table.
BLOCKING_BUILTINS = frozenset({"open", "input"})

#: Receiver-name lexicon for ``.result()`` — concurrent futures block.
FUTURE_NAME_RE = re.compile(r"(^|_)(future|fut)s?$")

#: Receiver-name lexicon for ``.get()``/``.put()``/``.join()`` on
#: thread-side queues (``queue.Queue``); the no-argument forms block.
QUEUE_NAME_RE = re.compile(r"(^|_)(queue|q)$")


def is_lock_expr(module: ModuleInfo, expr: ast.expr) -> bool:
    """Whether *expr* provably denotes a lock (constructor or lexicon)."""
    if isinstance(expr, ast.Call):
        return module.imports.resolve(expr.func) in LOCK_CONSTRUCTORS
    if isinstance(expr, ast.Attribute):
        return bool(LOCK_NAME_RE.search(expr.attr))
    if isinstance(expr, ast.Name):
        return bool(LOCK_NAME_RE.search(expr.id))
    return False


def lock_key(expr: ast.expr) -> str:
    """Stable identity of a lock expression (``self._lock``, ``a_lock``)."""
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on exprs
        return f"<lock@{getattr(expr, 'lineno', 0)}>"


def is_awaited(call: ast.Call) -> bool:
    """Whether *call* is the direct operand of an ``await``."""
    return isinstance(getattr(call, "parent", None), ast.Await)


def blocking_call_reason(module: ModuleInfo, call: ast.Call) -> str | None:
    """Lexicon verdict: what a call blocks on, or None.

    Awaited calls never block the thread — the await *is* the yield
    point — so callers should filter with :func:`is_awaited` first.
    """
    dotted = module.imports.resolve(call.func)
    if dotted in BLOCKING_CALLS:
        return dotted
    func = call.func
    if isinstance(func, ast.Name):
        if (
            func.id in BLOCKING_BUILTINS
            and func.id not in module.functions
            and func.id not in module.imports.aliases
            and func.id not in module.module_level_names
        ):
            return f"builtin {func.id}()"
        return None
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name):
            name = value.id
        elif isinstance(value, ast.Attribute):
            name = value.attr
        else:
            return None
        if func.attr == "acquire" and LOCK_NAME_RE.search(name):
            return f"{name}.acquire()"
        if func.attr == "result" and FUTURE_NAME_RE.search(name):
            return f"{name}.result()"
        if QUEUE_NAME_RE.search(name):
            # dict.get(key) takes arguments; queue.Queue.get() blocks
            # with none.  put()/join() have no dict homonym.
            if func.attr == "get" and not call.args and not call.keywords:
                return f"{name}.get()"
            if func.attr in ("put", "join"):
                return f"{name}.{func.attr}()"
    return None


# -- the model ---------------------------------------------------------


@dataclass(frozen=True)
class EntryPoint:
    """One resolved entry: context plus where it was bound."""

    context: str
    qualname: str
    rel: str
    line: int


@dataclass
class NestedRegion:
    """A nested ``def`` handed to a concurrency API.

    The symbol table does not index nested functions, so the region
    keeps the defining module/function and the AST node; rules walk the
    body directly and reachability seeds from its resolvable calls.
    """

    context: str
    module: ModuleInfo
    enclosing: FunctionInfo | None
    node: ast.FunctionDef | ast.AsyncFunctionDef


@dataclass(frozen=True)
class BlockingReason:
    """Why calling a function blocks the calling thread."""

    #: Human description of the root blocking site ("time.sleep").
    what: str
    #: ``rel:line`` of the root blocking call.
    where: str
    #: Qualname chain from the function to the root site ([] = direct).
    via: tuple[str, ...] = ()

    def render(self) -> str:
        if not self.via:
            return f"{self.what} ({self.where})"
        chain = " -> ".join(self.via)
        return f"{self.what} ({self.where}) via {chain}"


def context_model(ctx: ProgramContext) -> ContextModel:
    """The per-run context model every CONC and ASYNC rule shares."""
    return ctx.shared("context-model", lambda: ContextModel(ctx.program))


class ContextModel:
    """Which execution contexts can execute each function, program-wide."""

    def __init__(self, program: Program) -> None:
        self.program = program
        #: (class qualname, attr) -> ClassInfo, from __init__ evidence.
        self.attr_types = self._infer_attr_types()
        #: scope qualname -> callee qualnames, static plus typed.
        self.edges: dict[str, set[str]] = {}
        #: scope qualname -> [(call node, [targets])] — executing
        #: (non-deferred) calls only, statically + typed resolved.
        self.resolved_calls: dict[str, list[tuple[ast.Call, list[FunctionInfo]]]] = {}
        self.entries: list[EntryPoint] = []
        self.regions: list[NestedRegion] = []
        #: context -> qualnames called from that context's regions.
        self._region_roots: dict[str, set[str]] = {c: set() for c in CONTEXTS}
        for scope in program.scopes():
            self._scan_scope(scope)
        self._reachable = {
            context: reachable(
                [e.qualname for e in self.entries if e.context == context]
                + list(self._region_roots[context]),
                lambda q: self.edges.get(q, ()),
            )
            for context in CONTEXTS
        }
        self.blocking: dict[str, BlockingReason] = self._compute_blocking()
        self._class_facts: dict[ast.ClassDef, ClassConcurrency] = {}

    def class_facts(self, module: ModuleInfo, cls: ClassInfo) -> ClassConcurrency:
        """:func:`analyze_class` of *cls*, computed once per run and
        shared by CONC002 and ASYNC003."""
        facts = self._class_facts.get(cls.node)
        if facts is None:
            facts = self._class_facts[cls.node] = analyze_class(
                self.program, module, cls
            )
        return facts

    # -- one pass per scope --------------------------------------------

    def _scan_scope(self, scope: Scope) -> None:
        """Record one scope's edges and entries from its resolved calls."""
        module = scope.module
        nested = {
            n.name: n
            for n in scope.nodes
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        pools = _thread_pool_names(module, scope.nodes)
        resolved: dict[ast.Call, list[FunctionInfo]] = {}
        regions: list[NestedRegion] = []
        # Deferred bodies seed reachability too (the closure is invoked
        # downstream in the same logical task), just not the blocking
        # analysis.
        for call in scope.calls:
            targets = resolved[call] = self._targets(scope, call)
            for target in targets:
                self.edges.setdefault(scope.qualname, set()).add(target.qualname)
            shape = _entry_shape(module, pools, call)
            if shape is None:
                continue
            for expr in _callable_args(shape, call):
                fns, nested_def = self._resolve_callable(
                    scope, nested, expr, shape.coroutine_call
                )
                self.entries.extend(
                    EntryPoint(shape.context, fn.qualname, module.rel, call.lineno)
                    for fn in fns
                )
                if nested_def is not None:
                    regions.append(
                        NestedRegion(shape.context, module, scope.fn, nested_def)
                    )
        # A region's resolvable calls seed its context's reachability.
        for region in regions:
            for node in self.program.body_nodes(region.node):
                if isinstance(node, ast.Call):
                    self._region_roots[region.context].update(
                        t.qualname for t in resolved[node]
                    )
        self.regions.extend(regions)
        self.resolved_calls[scope.qualname] = [
            (call, resolved[call]) for call in scope.direct_calls
        ]

    # -- resolution ----------------------------------------------------

    def _targets(self, scope: Scope, call: ast.Call) -> list[FunctionInfo]:
        """Static targets of one call; the typed receiver as fallback."""
        targets, dynamic = scope.calls[call]
        if targets and not dynamic:
            return targets
        if isinstance(call.func, ast.Attribute):
            method = self._method_of(scope, call.func)
            if method is not None:
                return [method]
        return []

    def _resolve_callable(
        self,
        scope: Scope,
        nested: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
        expr: ast.expr,
        coroutine_call: bool,
    ) -> tuple[list[FunctionInfo], ast.FunctionDef | ast.AsyncFunctionDef | None]:
        """Resolve a callable (or coroutine call) to ``(functions, nested_def)``."""
        module = scope.module
        if isinstance(expr, ast.Call):
            dotted = module.imports.resolve(expr.func)
            if dotted in ("functools.partial", "partial") and expr.args:
                return self._resolve_callable(
                    scope, nested, expr.args[0], coroutine_call
                )
            if coroutine_call:
                # ``asyncio.run(server.run())``: the local-instance
                # fallback sees ``server``'s construction.
                return self._targets(scope, expr), None
            return [], None
        if isinstance(expr, ast.Name):
            if expr.id in nested:
                return [], nested[expr.id]
            dotted = module.imports.resolve(expr)
            hit = self.program.resolve_dotted(dotted) if dotted else None
            if isinstance(hit, FunctionInfo):
                return [hit], None
            local = module.functions.get(expr.id)
            return ([local] if local is not None else []), None
        if isinstance(expr, ast.Attribute):
            dotted = module.imports.resolve(expr)
            if dotted is not None:
                hit = self.program.resolve_dotted(dotted)
                return ([hit] if isinstance(hit, FunctionInfo) else []), None
            method = self._method_of(scope, expr)
            return ([method] if method is not None else []), None
        return [], None

    def _method_of(self, scope: Scope, expr: ast.Attribute) -> FunctionInfo | None:
        """The method ``receiver.attr`` names, when the receiver's class
        is provable: ``self``/``cls``, a single-construction local, or a
        typed ``self.a.b`` chain."""
        receiver = expr.value
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
            owner = _enclosing_class(scope)
        elif isinstance(receiver, ast.Name):
            owner = _local_instance_class(self.program, scope, receiver.id)
        else:
            owner = self._attr_chain_class(scope, receiver)
        if owner is None:
            return None
        return self.program.resolve_method(owner, expr.attr)

    # -- typed attributes ----------------------------------------------

    def _infer_attr_types(self) -> dict[tuple[str, str], ClassInfo]:
        """``self.<attr>`` types provable from a class's ``__init__``.

        Evidence accepted: ``self.x = Cls(...)`` where ``Cls`` is a
        program class; ``self.x = param`` where the parameter is
        annotated with a program class; and the optional-dependency
        idiom ``self.x = None if cond else Cls(...)`` (either arm).
        A second, conflicting assignment to the same attribute voids
        the inference — UNKNOWN never flags.
        """
        types: dict[tuple[str, str], ClassInfo] = {}
        conflicted: set[tuple[str, str]] = set()
        for qualname in sorted(self.program.classes):
            cls = self.program.classes[qualname]
            module = self.program.modules.get(cls.rel)
            init = cls.methods.get("__init__")
            if module is None or init is None:
                continue
            params = self._annotated_params(module, init)
            for node in self.program.scope_of(init).nodes:
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if _self_attr(target) is None:
                    continue
                key = (qualname, target.attr)
                inferred = self._value_class(module, params, node.value)
                if inferred is None:
                    conflicted.add(key)
                elif key in types and types[key] is not inferred:
                    conflicted.add(key)
                else:
                    types[key] = inferred
        for key in conflicted:
            types.pop(key, None)
        return types

    def _annotated_params(
        self, module: ModuleInfo, fn: FunctionInfo
    ) -> dict[str, ClassInfo]:
        """Parameters of *fn* annotated with a program class."""
        out: dict[str, ClassInfo] = {}
        args = fn.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is None:
                continue
            cls = self._class_of_annotation(module, arg.annotation)
            if cls is not None:
                out[arg.arg] = cls
        return out

    def _class_of_annotation(
        self, module: ModuleInfo, annotation: ast.expr
    ) -> ClassInfo | None:
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        # Optional[X] / X | None: the object, when present, is an X.
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            for side in (annotation.left, annotation.right):
                cls = self._class_of_annotation(module, side)
                if cls is not None:
                    return cls
            return None
        return self.program.resolve_class_expr(module, annotation)

    def _value_class(
        self,
        module: ModuleInfo,
        params: dict[str, ClassInfo],
        value: ast.expr,
    ) -> ClassInfo | None:
        if isinstance(value, ast.Call):
            return self.program.instantiated_class(module, value)
        if isinstance(value, ast.Name):
            return params.get(value.id)
        if isinstance(value, ast.IfExp):
            arms = [
                self._value_class(module, params, arm)
                for arm in (value.body, value.orelse)
                if not (isinstance(arm, ast.Constant) and arm.value is None)
            ]
            arms = [a for a in arms if a is not None]
            if len(arms) == 1:
                return arms[0]
        return None

    def _attr_chain_class(self, scope: Scope, expr: ast.expr) -> ClassInfo | None:
        """Static type of ``self.a.b.c`` through the inferred attr map."""
        chain: list[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not (isinstance(node, ast.Name) and node.id == "self"):
            return None
        current = _enclosing_class(scope)
        for attr in reversed(chain):
            if current is None:
                return None
            current = self.attr_types.get((current.qualname, attr))
        return current

    # -- queries -------------------------------------------------------

    def contexts_of(
        self, qualname: str, family: tuple[str, ...] = CONTEXTS
    ) -> frozenset[str]:
        """Contexts of *family* that can execute *qualname*; the empty
        set means main context only."""
        return frozenset(
            context for context in family if qualname in self._reachable[context]
        )

    def signal_functions(self) -> list[FunctionInfo]:
        """Every indexed function reachable from a signal handler."""
        return [
            self.program.functions[q]
            for q in sorted(self._reachable["signal"])
            if q in self.program.functions
        ]

    def signal_regions(self) -> list[NestedRegion]:
        """Nested-def signal handlers (walked directly by CONC003)."""
        return [r for r in self.regions if r.context == "signal"]

    def is_coroutine(self, qualname: str) -> bool:
        fn = self.program.functions.get(qualname)
        return fn is not None and isinstance(fn.node, ast.AsyncFunctionDef)

    # -- blocking analysis ---------------------------------------------

    def _compute_blocking(self) -> dict[str, BlockingReason]:
        """Fixpoint: which functions block the thread that calls them.

        Seeds are direct lexicon hits in *sync* functions; blocking
        propagates backwards along sync-to-sync call edges only.
        Coroutines never mark their callers — awaiting one yields
        rather than blocks, and a blocking call *inside* a coroutine
        is ASYNC001's finding at that site.
        """
        blocking: dict[str, BlockingReason] = {}
        for qualname, fn in self.program.functions.items():
            if isinstance(fn.node, ast.AsyncFunctionDef):
                continue
            module = self.program.modules.get(fn.rel)
            if module is None:
                continue
            for call in self.program.scope_of(fn).direct_calls:
                what = blocking_call_reason(module, call)
                if what is not None:
                    blocking[qualname] = BlockingReason(
                        what=what,
                        where=f"{fn.rel}:{getattr(call, 'lineno', 0)}",
                    )
                    break
        changed = True
        while changed:
            changed = False
            for qualname, resolved in self.resolved_calls.items():
                fn = self.program.functions.get(qualname)
                if fn is None or isinstance(fn.node, ast.AsyncFunctionDef):
                    continue
                if qualname in blocking:
                    continue
                for call, targets in resolved:
                    if is_awaited(call):
                        continue
                    for target in targets:
                        reason = blocking.get(target.qualname)
                        if reason is None or self.is_coroutine(target.qualname):
                            continue
                        blocking[qualname] = BlockingReason(
                            what=reason.what,
                            where=reason.where,
                            via=(target.qualname,) + reason.via,
                        )
                        changed = True
                        break
                    if qualname in blocking:
                        break
        return blocking

    def blocking_reason_of(self, qualname: str) -> BlockingReason | None:
        """Why calling *qualname* blocks, or None if it provably may not."""
        return self.blocking.get(qualname)


def _entry_shape(
    module: ModuleInfo, pools: set[str], call: ast.Call
) -> EntryShape | None:
    """The entry-table row a call matches, if any."""
    dotted = module.imports.resolve(call.func)
    if dotted in _ENTRY_FUNCTIONS:
        return _ENTRY_FUNCTIONS[dotted]
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if (
        func.attr in _POOL_METHODS
        and isinstance(func.value, ast.Name)
        and func.value.id in pools
    ):
        return _POOL_METHODS[func.attr]
    return _ENTRY_METHODS.get(func.attr)


def _callable_args(shape: EntryShape, call: ast.Call) -> list[ast.expr]:
    """The argument expressions *shape* says the call hands over."""
    if shape.position is None:
        return [a for a in call.args if not isinstance(a, ast.Starred)]
    for kw in call.keywords:
        if kw.arg in shape.keywords:
            return [kw.value]
    if len(call.args) > shape.position:
        return [call.args[shape.position]]
    return []


def _thread_pool_names(module: ModuleInfo, nodes: list[ast.AST]) -> set[str]:
    """Local names provably bound to a thread pool in this scope."""
    names: set[str] = set()
    for node in nodes:
        value: ast.expr | None = None
        target: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            target, value = node.optional_vars, node.context_expr
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Call)
            and module.imports.resolve(value.func)
            in _THREAD_POOL_CONSTRUCTORS
        ):
            names.add(target.id)
    return names


def _enclosing_class(scope: Scope) -> ClassInfo | None:
    if scope.fn is None or scope.fn.class_name is None:
        return None
    return scope.module.classes.get(scope.fn.class_name)


def _local_instance_class(
    program: Program, scope: Scope, name: str
) -> ClassInfo | None:
    """Class of a function local provably holding one instantiation."""
    if scope.fn is None:
        return None
    values = scope.assignments.get(name, [])
    if len(values) != 1 or not isinstance(values[0], ast.Call):
        return None
    return program.instantiated_class(scope.module, values[0])


# -- shared state: the CONC002/ASYNC003 pass ---------------------------


@dataclass
class AttributeUse:
    """One access to ``self.<attr>`` inside a method."""

    attr: str
    method: FunctionInfo
    node: ast.AST
    #: "load", "store" (plain single-store), or a compound hazard:
    #: "augstore" (``+=``), "mutcall" (``.append(...)``), "substore"
    #: (``self.x[i] = ...``), "rmw" (``self.x = f(self.x)``).
    kind: str
    #: Lock keys of every ``with self.<lock>:`` enclosing the access.
    held_locks: tuple[str, ...] = ()

    @property
    def is_hazard(self) -> bool:
        """Compound (non-atomic) mutation; plain stores are GIL-atomic."""
        return self.kind in MUTATION_KINDS


#: How each compound-mutation kind reads in a finding.
MUTATION_KINDS = {
    "augstore": "augmented assignment",
    "mutcall": "in-place container mutation",
    "substore": "subscript store",
    "rmw": "self-referencing reassignment",
}


@dataclass
class ClassConcurrency:
    """Shared-state facts about one class."""

    uses: list[AttributeUse] = field(default_factory=list)
    #: attr -> canonical constructors assigned to ``self.<attr>``.
    constructors: dict[str, set[str]] = field(default_factory=dict)

    def constructed_by(self, constructors: frozenset[str]) -> set[str]:
        """Attributes ever assigned from one of *constructors*."""
        return {
            attr for attr, made in self.constructors.items() if made & constructors
        }


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _with_lock_keys(node: ast.AST) -> tuple[str, ...]:
    """Lock keys of every enclosing ``with`` whose item looks lock-like."""
    keys: list[str] = []
    current = getattr(node, "parent", None)
    while current is not None and not isinstance(
        current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        if isinstance(current, (ast.With, ast.AsyncWith)):
            for item in current.items:
                expr = item.context_expr
                name = _self_attr(expr)
                if name is not None and LOCK_NAME_RE.search(name):
                    keys.append(lock_key(expr))
                elif isinstance(expr, ast.Name) and LOCK_NAME_RE.search(expr.id):
                    keys.append(lock_key(expr))
        current = getattr(current, "parent", None)
    return tuple(keys)


def analyze_class(
    program: Program, module: ModuleInfo, cls: ClassInfo
) -> ClassConcurrency:
    """Collect every ``self.<attr>`` use and the attribute constructors."""
    facts = ClassConcurrency()
    for method in cls.methods.values():
        for node in program.scope_of(method).nodes:
            _collect_use(module, facts, method, node)
    return facts


def _collect_use(
    module: ModuleInfo,
    facts: ClassConcurrency,
    method: FunctionInfo,
    node: ast.AST,
) -> None:
    if isinstance(node, ast.Assign):
        for target in node.targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            if isinstance(node.value, ast.Call):
                dotted = module.imports.resolve(node.value.func)
                if dotted is not None:
                    facts.constructors.setdefault(attr, set()).add(dotted)
            reads_self = any(
                _self_attr(n) == attr for n in ast.walk(node.value)
            )
            facts.uses.append(
                AttributeUse(
                    attr=attr,
                    method=method,
                    node=target,
                    kind="rmw" if reads_self else "store",
                    held_locks=_with_lock_keys(node),
                )
            )
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        attr = _self_attr(node)
        if attr is not None:
            facts.uses.append(
                AttributeUse(attr=attr, method=method, node=node, kind="load")
            )
    else:
        mutation = _compound_mutation(node)
        if mutation is not None:
            attr, kind, anchor = mutation
            facts.uses.append(
                AttributeUse(
                    attr=attr,
                    method=method,
                    node=anchor,
                    kind=kind,
                    held_locks=_with_lock_keys(node),
                )
            )


def _compound_mutation(node: ast.AST) -> tuple[str, str, ast.AST] | None:
    """``(attr, kind, anchor)`` when *node* compound-mutates ``self.<attr>``
    by ``+=``, an in-place container method, or a subscript store."""
    if isinstance(node, ast.AugAssign):
        attr, kind, anchor = _self_attr(node.target), "augstore", node.target
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATING_METHODS
    ):
        attr, kind, anchor = _self_attr(node.func.value), "mutcall", node
    elif isinstance(node, ast.Subscript) and isinstance(
        node.ctx, (ast.Store, ast.Del)
    ):
        attr, kind, anchor = _self_attr(node.value), "substore", node
    else:
        return None
    return None if attr is None else (attr, kind, anchor)


@dataclass(frozen=True)
class Conflict:
    """A compound mutation racing a use in a different context set."""

    module: ModuleInfo
    use: AttributeUse
    mine: frozenset[str]
    other: AttributeUse
    theirs: frozenset[str]


def render_contexts(contexts: frozenset[str], main_label: str) -> str:
    """``{loop, thread}``, or ``{<main_label>}`` for the empty set."""
    return "{" + (", ".join(sorted(contexts)) or main_label) + "}"


def shared_state_conflicts(
    model: ContextModel,
    in_scope: Callable[[str], bool],
    family: tuple[str, ...],
    exempt: frozenset[str] = frozenset(),
    crosses: Callable[[frozenset[str], frozenset[str]], bool] = lambda a, b: True,
) -> Iterator[Conflict]:
    """Unguarded compound mutations of ``self.<attr>`` across contexts.

    The one shared-state pass behind CONC002 (*family* = thread/signal)
    and ASYNC003 (*family* = loop/executor).  A compound mutation
    (``+=``, ``.append``, ``self.x[i] = …``, ``self.x = f(self.x)``)
    conflicts when another method touching the same attribute runs
    under a different context set and *crosses* accepts the pair.
    Mutations under ``with self.<lock>:`` never conflict, and neither
    do attributes holding a lock, an Event, or one of the *exempt*
    constructors' products.  Plain single stores are one bytecode and
    never flag.
    """
    program = model.program
    exempt = LOCK_CONSTRUCTORS | EVENT_CONSTRUCTORS | exempt
    for rel in sorted(program.modules):
        if not in_scope(rel):
            continue
        module = program.modules[rel]
        for class_name in sorted(module.classes):
            facts = model.class_facts(module, module.classes[class_name])
            exempt_attrs = facts.constructed_by(exempt)
            by_attr: dict[str, list[AttributeUse]] = {}
            for use in facts.uses:
                if use.method.qualname.endswith(".__init__"):
                    # Pre-publication: __init__ completes before the
                    # object can be handed to another context, so its
                    # writes neither race nor witness a conflict.
                    continue
                if use.attr not in exempt_attrs:
                    by_attr.setdefault(use.attr, []).append(use)
            for attr in sorted(by_attr):
                uses = by_attr[attr]
                contexts = {
                    u.method.qualname: model.contexts_of(u.method.qualname, family)
                    for u in uses
                }
                for use in uses:
                    if not use.is_hazard or use.held_locks:
                        continue
                    mine = contexts[use.method.qualname]
                    other = next(
                        (
                            u
                            for u in uses
                            if contexts[u.method.qualname] != mine
                            and crosses(mine, contexts[u.method.qualname])
                        ),
                        None,
                    )
                    if other is not None:
                        yield Conflict(
                            module, use, mine, other, contexts[other.method.qualname]
                        )
