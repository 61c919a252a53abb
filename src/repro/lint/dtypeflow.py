"""Numpy dtype and value-range abstract interpretation for VEC001/VEC002.

PR 6 replaced the ``& 0x7FFFFFFF`` index mask in the vector gshare
kernel because it silently diverged from the scalar oracle for
addresses at or above 2³³ — a dtype-narrowing bug the differential
harness caught only dynamically, on traces that happened to contain
such addresses.  This module makes that bug class *static*: a small
abstract interpreter that propagates, per expression,

* a **dtype lattice** value — ``BOOL < INT8 < INT16 < INT32 < INT64``
  plus ``FLOAT64`` and an absorbing ``UNKNOWN`` — through ``astype``,
  numpy constructors (``zeros``/``full``/``arange``/…), arithmetic
  promotion, indexing, and carried-state fields assigned in
  ``__init__``; and
* a **value interval** ``[lo, hi]`` where either bound may be ``None``
  (statically unknown) and ``hi`` may be ``math.inf`` (provably
  unbounded, e.g. a running sum of positive counts).

The interval is what keeps the pass inside the lint subsystem's
UNKNOWN-never-flags contract: VEC001 flags a narrowing cast only when
the *known* range provably exceeds the target dtype — a 64-bit address
squeezed through ``int32``, an unbounded accumulator through ``int16``
— and stays silent whenever a bound is unknown.  Value knowledge comes
from constants, constructor fills, masks, ``np.minimum`` clamps, and a
deliberately tiny lexicon of wide-value names (``pcs``, ``addresses``,
``targets``, ``tags``: 64-bit address material by the trace-format
contract in docs/FORMATS.md).

Name lookups read the assignment map of one record of the program's
scope table (:meth:`repro.lint.callgraph.Program.scopes`), joined by
the cycle-guarded rule of :class:`repro.lint.dataflow.ScopeFlow`, so
only the seeds, :func:`join` and the transfer functions here are
dtype-specific.  :func:`kernel_scopes` maps each scope qualname to
its :class:`DtypeScope`, built once per lint run.
"""

from __future__ import annotations

import ast
import enum
import math
import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.lint.callgraph import ClassInfo, ModuleInfo, Program, Scope
from repro.lint.dataflow import ScopeFlow

if TYPE_CHECKING:
    from repro.lint.rules.base import ProgramContext


class DType(enum.Enum):
    """The dtype lattice; UNKNOWN absorbs everything it touches."""

    BOOL = "bool"
    INT8 = "int8"
    INT16 = "int16"
    INT32 = "int32"
    INT64 = "int64"
    FLOAT64 = "float64"
    UNKNOWN = "unknown"


#: Bit width of each known dtype (promotion is monotone in this).
WIDTH = {
    DType.BOOL: 1,
    DType.INT8: 8,
    DType.INT16: 16,
    DType.INT32: 32,
    DType.INT64: 64,
    DType.FLOAT64: 64,
}

#: Representable integer range of each integral dtype.
INT_BOUNDS = {
    DType.BOOL: (0, 1),
    DType.INT8: (-(2**7), 2**7 - 1),
    DType.INT16: (-(2**15), 2**15 - 1),
    DType.INT32: (-(2**31), 2**31 - 1),
    DType.INT64: (-(2**63), 2**63 - 1),
}

#: Largest integer float64 represents exactly (VEC001 precision check).
FLOAT64_EXACT_INT = 2**53

INT_DTYPES = frozenset(INT_BOUNDS)

#: Canonical dotted names -> lattice dtype (import-table resolution).
_DTYPE_DOTTED = {
    "numpy.bool_": DType.BOOL,
    "numpy.int8": DType.INT8,
    "numpy.int16": DType.INT16,
    "numpy.int32": DType.INT32,
    "numpy.int64": DType.INT64,
    "numpy.intp": DType.INT64,
    "numpy.float64": DType.FLOAT64,
    "builtins.bool": DType.BOOL,
    "builtins.int": DType.INT64,
    "builtins.float": DType.FLOAT64,
    "bool": DType.BOOL,
    "int": DType.INT64,
    "float": DType.FLOAT64,
}

#: String dtype spellings (``dtype="int8"``).
_DTYPE_STRINGS = {
    "bool": DType.BOOL,
    "int8": DType.INT8,
    "int16": DType.INT16,
    "int32": DType.INT32,
    "int64": DType.INT64,
    "float64": DType.FLOAT64,
}

#: Identifiers carrying 64-bit address material by the trace contract.
WIDE_NAME_RE = re.compile(r"(^|_)(pcs?|address(es)?|addrs?|targets?|tags?)$")

#: The abstract value the wide-name lexicon assigns.
_WIDE_RANGE = (0, 2**63 - 1)


@dataclass(frozen=True)
class ArrayInfo:
    """Abstract value of one expression: dtype plus value interval.

    ``lo``/``hi`` are Python ints, ``math.inf``/``-math.inf`` (provably
    unbounded), or ``None`` (statically unknown — the silent case).
    ``scalar`` marks Python scalars, which numpy promotes by value, not
    width, so they must not widen an array operand's dtype.
    """

    dtype: DType
    lo: float | int | None = None
    hi: float | int | None = None
    scalar: bool = False

    @property
    def known_range(self) -> bool:
        return self.lo is not None and self.hi is not None


UNKNOWN_INFO = ArrayInfo(DType.UNKNOWN)


def promote(a: DType, b: DType) -> DType:
    """Numpy-style result dtype of combining *a* and *b*.

    UNKNOWN absorbs; FLOAT64 dominates integers; otherwise the wider
    integral kind wins.  Monotone: the result is never narrower than
    either known operand.
    """
    if a is DType.UNKNOWN or b is DType.UNKNOWN:
        return DType.UNKNOWN
    if DType.FLOAT64 in (a, b):
        return DType.FLOAT64
    return a if WIDTH[a] >= WIDTH[b] else b


def promote_info(a: ArrayInfo, b: ArrayInfo) -> DType:
    """Result dtype of an arithmetic op, honoring scalar-value rules.

    A Python int scalar does not upcast an integral array operand
    (numpy converts the scalar to the array's dtype), so ``hist + 1``
    stays at ``hist``'s dtype rather than jumping to int64.
    """
    if a.dtype is DType.UNKNOWN or b.dtype is DType.UNKNOWN:
        return DType.UNKNOWN
    if a.scalar != b.scalar:
        scalar, array = (a, b) if a.scalar else (b, a)
        if scalar.dtype in INT_DTYPES and array.dtype in INT_DTYPES:
            return array.dtype
    return promote(a.dtype, b.dtype)


def join(a: ArrayInfo, b: ArrayInfo) -> ArrayInfo:
    """Least upper bound of two abstract values (merge points)."""
    if a.dtype is not b.dtype:
        return UNKNOWN_INFO
    lo = None if a.lo is None or b.lo is None else min(a.lo, b.lo)
    hi = None if a.hi is None or b.hi is None else max(a.hi, b.hi)
    return ArrayInfo(a.dtype, lo, hi, scalar=a.scalar and b.scalar)


def dtype_of_expr(module: ModuleInfo, expr: ast.expr) -> DType:
    """Lattice dtype denoted by an expression like ``np.int16``."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return _DTYPE_STRINGS.get(expr.value, DType.UNKNOWN)
    dotted = module.imports.resolve(expr)
    if dotted is not None and dotted in _DTYPE_DOTTED:
        return _DTYPE_DOTTED[dotted]
    if isinstance(expr, ast.Name) and expr.id in _DTYPE_DOTTED:
        return _DTYPE_DOTTED[expr.id]
    return DType.UNKNOWN


def _keyword(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def astype_target(module: ModuleInfo, call: ast.Call) -> DType:
    """dtype named by an ``astype`` call's first arg or ``dtype=`` kw."""
    expr = call.args[0] if call.args else _keyword(call, "dtype")
    if expr is None:
        return DType.UNKNOWN
    return dtype_of_expr(module, expr)


def _const_number(expr: ast.expr) -> int | float | None:
    if isinstance(expr, ast.Constant) and isinstance(
        expr.value, (int, float)
    ) and not isinstance(expr.value, bool):
        return expr.value
    if (
        isinstance(expr, ast.UnaryOp)
        and isinstance(expr.op, ast.USub)
        and isinstance(expr.operand, ast.Constant)
        and isinstance(expr.operand.value, (int, float))
    ):
        return -expr.operand.value
    return None


def _interval_binop(
    op: ast.operator,
    a: ArrayInfo,
    b: ArrayInfo,
) -> tuple[float | int | None, float | int | None]:
    """Interval arithmetic for the ops the kernels actually use."""
    if not (a.known_range and b.known_range):
        # One special case that needs only one side: a non-negative
        # value masked by a non-negative constant is bounded by it.
        if isinstance(op, ast.BitAnd):
            for known, other in ((a, b), (b, a)):
                if (
                    known.known_range
                    and known.lo >= 0
                    and other.lo is not None
                    and other.lo >= 0
                ):
                    return 0, known.hi
        if isinstance(op, ast.Mod) and b.known_range and b.lo > 0:
            return 0, b.hi - 1
        return None, None
    alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    if isinstance(op, ast.Add):
        return alo + blo, ahi + bhi
    if isinstance(op, ast.Sub):
        return alo - bhi, ahi - blo
    if isinstance(op, ast.Mult):
        products = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
        # inf * 0 is nan; treat it as the unbounded direction.
        products = [p for p in products if p == p]
        if not products:
            return None, None
        return min(products), max(products)
    if isinstance(op, ast.BitAnd):
        if alo >= 0 and blo >= 0:
            return 0, min(ahi, bhi)
        return None, None
    if isinstance(op, (ast.BitOr, ast.BitXor)):
        if alo >= 0 and blo >= 0 and ahi != math.inf and bhi != math.inf:
            bits = max(int(ahi), int(bhi)).bit_length()
            return 0, (1 << bits) - 1
        return None, None
    if isinstance(op, ast.LShift):
        if blo >= 0 and bhi != math.inf and alo >= 0:
            return alo << int(blo), (
                math.inf if ahi == math.inf else int(ahi) << int(bhi)
            )
        return None, None
    if isinstance(op, ast.RShift):
        if blo >= 0 and alo >= 0:
            hi = ahi if bhi == math.inf else (
                math.inf if ahi == math.inf else int(ahi) >> int(blo)
            )
            return 0, hi
        return None, None
    if isinstance(op, ast.Mod):
        if blo > 0:
            return 0, bhi - 1
        return None, None
    if isinstance(op, ast.FloorDiv):
        if alo >= 0 and blo > 0:
            hi = math.inf if ahi == math.inf else int(ahi) // max(int(blo), 1)
            return 0, hi
        return None, None
    return None, None


def clip_to_dtype(info: ArrayInfo, dtype: DType) -> ArrayInfo:
    """Abstract result of ``astype(dtype)``.

    A range proven to fit survives the cast; a range that may not fit
    degrades to the full dtype bounds (wraparound semantics); an
    unknown range stays unknown — the *rule* decides whether the cast
    itself was a hazard.
    """
    if dtype is DType.FLOAT64:
        return ArrayInfo(dtype, info.lo, info.hi, scalar=info.scalar)
    if dtype not in INT_BOUNDS:
        return ArrayInfo(dtype)
    lo_b, hi_b = INT_BOUNDS[dtype]
    if info.known_range and lo_b <= info.lo and info.hi <= hi_b:
        return ArrayInfo(dtype, info.lo, info.hi, scalar=info.scalar)
    if info.known_range:
        return ArrayInfo(dtype, lo_b, hi_b, scalar=info.scalar)
    return ArrayInfo(dtype)


def narrowing_hazard(info: ArrayInfo, target: DType) -> str | None:
    """Why casting *info* to *target* is provably lossy (None = safe).

    Returns a short reason string only when the known range exceeds
    what *target* represents; unknown ranges never flag.
    """
    if info.dtype is DType.UNKNOWN and not info.known_range:
        return None
    if target in INT_BOUNDS:
        lo_b, hi_b = INT_BOUNDS[target]
        if info.hi is not None and info.hi > hi_b:
            return (
                f"values can reach {_fmt_bound(info.hi)}, beyond "
                f"{target.value}'s maximum of {hi_b}"
            )
        if info.lo is not None and info.lo < lo_b:
            return (
                f"values can reach {_fmt_bound(info.lo)}, below "
                f"{target.value}'s minimum of {lo_b}"
            )
        return None
    if target is DType.FLOAT64 and info.dtype in INT_DTYPES:
        if info.hi is not None and info.hi > FLOAT64_EXACT_INT:
            return (
                f"integer values can reach {_fmt_bound(info.hi)}, beyond "
                f"float64's exact-integer limit of 2**53"
            )
    return None


def _fmt_bound(value: float | int) -> str:
    if value == math.inf:
        return "an unbounded magnitude"
    if value == -math.inf:
        return "an unbounded negative magnitude"
    return str(value)


#: numpy constructors the interpreter models.
_ZERO_FILL = {"numpy.zeros", "numpy.empty"}
_ONE_FILL = {"numpy.ones"}
_LIKE = {"numpy.zeros_like", "numpy.ones_like", "numpy.empty_like"}
_CLAMPS = {"numpy.minimum", "numpy.maximum"}
_ACCUMULATORS = {"numpy.cumsum", "numpy.add.accumulate"}


class DtypeScope(ScopeFlow):
    """Dtype/range inference over one function body or module top level.

    One scope-table record's assignment map under the shared name
    join, with :class:`ArrayInfo` as the lattice: seeds are wide-name
    parameters and the ``self.<field>`` knowledge
    :func:`class_field_infos` supplies from ``__init__`` constructor
    calls.
    """

    def __init__(
        self, scope: Scope, field_infos: dict[str, ArrayInfo] | None = None
    ) -> None:
        super().__init__(scope)
        self.module = scope.module
        self.function = scope.fn
        self.field_infos = field_infos or {}
        self.params: set[str] = set()
        if scope.fn is not None:
            self.params = set(scope.fn.params())

    # -- queries -------------------------------------------------------

    def info_of(
        self, expr: ast.expr, _visiting: frozenset[str] = frozenset()
    ) -> ArrayInfo:
        """Abstract dtype/range of one expression in this scope."""
        if isinstance(expr, ast.Constant):
            return self._info_of_constant(expr)
        if isinstance(expr, ast.Name):
            return self._info_of_name(expr.id, _visiting)
        if isinstance(expr, ast.Attribute):
            return self._info_of_attribute(expr)
        if isinstance(expr, ast.Subscript):
            # Indexing/slicing preserves dtype and element range.
            return replace(
                self.info_of(expr.value, _visiting), scalar=False
            )
        if isinstance(expr, ast.Call):
            return self._info_of_call(expr, _visiting)
        if isinstance(expr, ast.BinOp):
            return self._info_of_binop(expr, _visiting)
        if isinstance(expr, ast.UnaryOp):
            inner = self.info_of(expr.operand, _visiting)
            if isinstance(expr.op, ast.USub) and inner.known_range:
                return ArrayInfo(
                    inner.dtype, -inner.hi, -inner.lo, scalar=inner.scalar
                )
            if isinstance(expr.op, ast.Invert):
                return ArrayInfo(inner.dtype)
            return replace(inner, lo=None, hi=None)
        if isinstance(expr, ast.IfExp):
            return join(
                self.info_of(expr.body, _visiting),
                self.info_of(expr.orelse, _visiting),
            )
        if isinstance(expr, ast.Compare):
            return ArrayInfo(DType.BOOL, 0, 1)
        return UNKNOWN_INFO

    def _info_of_constant(self, expr: ast.Constant) -> ArrayInfo:
        value = expr.value
        if isinstance(value, bool):
            return ArrayInfo(DType.BOOL, int(value), int(value), scalar=True)
        if isinstance(value, int):
            return ArrayInfo(DType.INT64, value, value, scalar=True)
        if isinstance(value, float):
            return ArrayInfo(DType.FLOAT64, value, value, scalar=True)
        return UNKNOWN_INFO

    def _info_of_name(
        self, name: str, visiting: frozenset[str]
    ) -> ArrayInfo:
        if name in self.params and WIDE_NAME_RE.search(name):
            return ArrayInfo(DType.INT64, *_WIDE_RANGE)
        assigned = self.joined(name, visiting, self.info_of, join, UNKNOWN_INFO)
        return UNKNOWN_INFO if assigned is None else assigned

    def _info_of_attribute(self, expr: ast.Attribute) -> ArrayInfo:
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            if expr.attr in self.field_infos:
                return self.field_infos[expr.attr]
            if WIDE_NAME_RE.search(expr.attr):
                return ArrayInfo(DType.INT64, *_WIDE_RANGE)
        return UNKNOWN_INFO

    def _info_of_call(
        self, call: ast.Call, visiting: frozenset[str]
    ) -> ArrayInfo:
        func = call.func
        # x.astype(D) — dtype conversion with range carry-over.
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            target = astype_target(self.module, call)
            if target is DType.UNKNOWN:
                return UNKNOWN_INFO
            operand = self.info_of(func.value, visiting)
            return clip_to_dtype(operand, target)
        dotted = self.module.imports.resolve(func)
        if dotted is None:
            return UNKNOWN_INFO
        if dotted in _ZERO_FILL or dotted in _ONE_FILL:
            dtype = self._constructor_dtype(call, default=DType.FLOAT64)
            fill = (1, 1) if dotted in _ONE_FILL else (0, 0)
            if dotted == "numpy.empty":
                fill = (None, None)
            return ArrayInfo(dtype, *fill)
        if dotted == "numpy.full":
            fill_info = (
                self.info_of(call.args[1], visiting)
                if len(call.args) >= 2
                else UNKNOWN_INFO
            )
            dtype = self._constructor_dtype(call, default=fill_info.dtype)
            return ArrayInfo(dtype, fill_info.lo, fill_info.hi)
        if dotted in _LIKE:
            base = (
                self.info_of(call.args[0], visiting)
                if call.args
                else UNKNOWN_INFO
            )
            dtype = self._constructor_dtype(call, default=base.dtype)
            if dotted == "numpy.zeros_like":
                return ArrayInfo(dtype, 0, 0)
            if dotted == "numpy.ones_like":
                return ArrayInfo(dtype, 1, 1)
            return ArrayInfo(dtype)
        if dotted == "numpy.arange":
            return self._info_of_arange(call, visiting)
        if dotted in ("numpy.asarray", "numpy.array"):
            base = (
                self.info_of(call.args[0], visiting)
                if call.args
                else UNKNOWN_INFO
            )
            dtype = self._constructor_dtype(call, default=base.dtype)
            return clip_to_dtype(base, dtype) if dtype is not base.dtype else base
        if dotted in _CLAMPS and len(call.args) >= 2:
            a = self.info_of(call.args[0], visiting)
            b = self.info_of(call.args[1], visiting)
            dtype = promote_info(a, b)
            if dotted == "numpy.minimum":
                hi = None if a.hi is None and b.hi is None else min(
                    x for x in (a.hi, b.hi) if x is not None
                )
                lo = None if a.lo is None or b.lo is None else min(a.lo, b.lo)
            else:
                lo = None if a.lo is None and b.lo is None else max(
                    x for x in (a.lo, b.lo) if x is not None
                )
                hi = None if a.hi is None or b.hi is None else max(a.hi, b.hi)
            return ArrayInfo(dtype, lo, hi)
        if dotted in _ACCUMULATORS:
            base = (
                self.info_of(call.args[0], visiting)
                if call.args
                else UNKNOWN_INFO
            )
            # numpy widens sub-int64 integral inputs to the platform
            # default before accumulating.
            dtype = (
                DType.INT64
                if base.dtype in INT_DTYPES
                else base.dtype
            )
            if base.lo is not None and base.lo >= 0:
                hi: float | int | None
                if base.hi is None:
                    hi = None
                elif base.hi > 0:
                    hi = math.inf  # running sum of positives: unbounded
                else:
                    hi = 0
                return ArrayInfo(dtype, base.lo if base.hi == 0 else 0, hi)
            return ArrayInfo(dtype)
        if dotted == "numpy.where" and len(call.args) >= 3:
            return join(
                self.info_of(call.args[1], visiting),
                self.info_of(call.args[2], visiting),
            )
        if dotted in _DTYPE_DOTTED and call.args:
            # np.int64(x) and friends: a cast expressed as a call.
            return clip_to_dtype(
                self.info_of(call.args[0], visiting), _DTYPE_DOTTED[dotted]
            )
        return UNKNOWN_INFO

    def _info_of_arange(
        self, call: ast.Call, visiting: frozenset[str]
    ) -> ArrayInfo:
        dtype = self._constructor_dtype(call, default=DType.INT64)
        args = call.args
        start: int | float = 0
        stop_expr = args[0] if len(args) == 1 else (
            args[1] if len(args) >= 2 else None
        )
        if len(args) >= 2:
            const_start = _const_number(args[0])
            start = const_start if const_start is not None else 0
        stop = _const_number(stop_expr) if stop_expr is not None else None
        if stop is not None:
            return ArrayInfo(dtype, min(start, 0), max(stop - 1, start))
        lo = 0 if len(args) == 1 else None
        return ArrayInfo(dtype, lo, None)

    def _info_of_binop(
        self, expr: ast.BinOp, visiting: frozenset[str]
    ) -> ArrayInfo:
        left = self.info_of(expr.left, visiting)
        right = self.info_of(expr.right, visiting)
        if isinstance(expr.op, ast.Div):
            dtype = (
                DType.UNKNOWN
                if DType.UNKNOWN in (left.dtype, right.dtype)
                else DType.FLOAT64
            )
            return ArrayInfo(dtype)
        dtype = promote_info(left, right)
        lo, hi = _interval_binop(expr.op, left, right)
        return ArrayInfo(
            dtype, lo, hi, scalar=left.scalar and right.scalar
        )

    # -- helpers -------------------------------------------------------

    def _constructor_dtype(self, call: ast.Call, default: DType) -> DType:
        expr = _keyword(call, "dtype")
        if expr is None:
            return default
        resolved = dtype_of_expr(self.module, expr)
        return resolved if resolved is not DType.UNKNOWN else DType.UNKNOWN


def class_field_infos(program: Program, cls: ClassInfo) -> dict[str, ArrayInfo]:
    """Carried-state dtypes: ``self.x = np.zeros(..., dtype=...)`` in
    ``__init__`` (and other methods), flow-insensitively joined."""
    infos: dict[str, ArrayInfo] = {}
    method_names = sorted(cls.methods)
    # __init__ first: it defines the carried state the others update.
    method_names.sort(key=lambda n: (n != "__init__", n))
    for name in method_names:
        method = cls.methods[name]
        scope = DtypeScope(program.scope_of(method), infos)
        for stmt in ast.walk(method.node):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info = scope.info_of(stmt.value)
                    if target.attr in infos:
                        infos[target.attr] = join(infos[target.attr], info)
                    else:
                        infos[target.attr] = info
    # Re-derived state (assigned from itself) degrades ranges to the
    # dtype's own bounds: updates like ``self.t[i] = pc`` are invisible
    # to the flow-insensitive pass, so only the dtype survives.
    return {
        attr: ArrayInfo(info.dtype)
        if info.dtype is not DType.UNKNOWN
        else info
        for attr, info in infos.items()
    }


def kernel_scopes(ctx: ProgramContext) -> dict[str, DtypeScope]:
    """Scope qualname -> :class:`DtypeScope`, one per scope-table
    record, built once per lint run.

    Methods see their class's carried-state field knowledge.  VEC001,
    VEC002 and PERF003 all read this one map.
    """

    def build() -> dict[str, DtypeScope]:
        program = ctx.program
        fields: dict[tuple[str, str], dict[str, ArrayInfo]] = {}
        scopes = {}
        for scope in program.scopes():
            fn = scope.fn
            field_infos = None
            if fn is not None and fn.class_name is not None:
                key = (scope.module.rel, fn.class_name)
                if key not in fields:
                    fields[key] = class_field_infos(
                        program, scope.module.classes[fn.class_name]
                    )
                field_infos = fields[key]
            scopes[scope.qualname] = DtypeScope(scope, field_infos)
        return scopes

    return ctx.shared("kernel-dtype-scopes", build)
