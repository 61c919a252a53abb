"""Unit abstract interpretation for the quantity-algebra rules.

Every number the reproduction publishes is a physical quantity —
cycles, retired instructions, miss counts, MPKI, CPI (see
:mod:`repro.units`).  This module infers which quantity an arbitrary
expression carries, by abstract interpretation over a small unit
lattice:

* one abstract value per known unit (``CYCLES``, ``INSTRUCTIONS``,
  ``MISSES``, ``MPKI``, ``CPI``),
* ``DIMENSIONLESS`` for bare numeric literals and counts of nothing in
  particular, and
* ``UNKNOWN`` as the lattice top: *no claim*.  ``UNKNOWN`` never flags
  and absorbs everything it meets — the same zero-false-positive
  contract the seed-taint analysis makes.

Inference seeds from several sources, in decreasing order of trust:
parameter/field/return annotations naming the :mod:`repro.units`
NewTypes, the identifier lexicon (``mean_mpki``, ``n_cycles``), metric
string keys (``series("mpki")``, ``d["cpi"]``), ``Counter`` enum
members, the sanctioned constructors (``units.mpki(...)``), and the
return annotations of statically resolved callees.  Each
:class:`UnitScope` reads one record of the program's scope table
(:meth:`repro.lint.callgraph.Program.scopes`): names propagate
through the record's assignment map under the cycle-guarded join of
:class:`repro.lint.dataflow.ScopeFlow`, and callee return units come
from the record's call resolutions.  Neither is rebuilt here.
:func:`unit_scopes` builds one :class:`UnitScope` per record per lint
run for every rule that reads units.

The arithmetic maps (:func:`add_units`, :func:`mul_units`,
:func:`div_units`) encode the paper's quantity algebra: cycles divided
by instructions is CPI, CPI times instructions is cycles again, a
quantity divided by itself is dimensionless, and any combination the
algebra does not sanction degrades to ``UNKNOWN`` — the *rules* decide
which of those combinations deserve a finding.
"""

from __future__ import annotations

import ast
import enum
import re
from typing import TYPE_CHECKING

from repro.lint.callgraph import ModuleInfo, Program, Scope
from repro.lint.dataflow import ScopeFlow, last_name

if TYPE_CHECKING:
    from repro.lint.rules.base import ProgramContext


class UnitValue(enum.Enum):
    """Abstract unit of one expression."""

    CYCLES = "cycles"
    INSTRUCTIONS = "instructions"
    MISSES = "misses"
    MPKI = "mpki"
    CPI = "cpi"
    DIMENSIONLESS = "dimensionless"
    UNKNOWN = "unknown"


#: The flagging-eligible units; DIMENSIONLESS and UNKNOWN never flag.
KNOWN_UNITS = frozenset(
    {
        UnitValue.CYCLES,
        UnitValue.INSTRUCTIONS,
        UnitValue.MISSES,
        UnitValue.MPKI,
        UnitValue.CPI,
    }
)


def is_known(unit: UnitValue) -> bool:
    """Whether *unit* is a concrete quantity (not DIMENSIONLESS/UNKNOWN)."""
    return unit in KNOWN_UNITS


def join(a: UnitValue, b: UnitValue) -> UnitValue:
    """Lattice join for merged control flow: agreement or UNKNOWN."""
    if a is b:
        return a
    return UnitValue.UNKNOWN


def add_units(a: UnitValue, b: UnitValue) -> UnitValue:
    """Unit of ``a + b`` / ``a - b``.

    A dimensionless offset keeps the other operand's unit; agreement
    keeps the unit; anything else — including the mixed-unit conflicts
    UNIT001 flags — degrades to UNKNOWN so one slip cannot cascade
    into a wall of downstream findings.
    """
    if a is b:
        return a
    if a is UnitValue.DIMENSIONLESS:
        return b
    if b is UnitValue.DIMENSIONLESS:
        return a
    return UnitValue.UNKNOWN


def mul_units(a: UnitValue, b: UnitValue) -> UnitValue:
    """Unit of ``a * b``: scaling and the CPI×instructions→cycles rule."""
    if a is UnitValue.DIMENSIONLESS:
        return b
    if b is UnitValue.DIMENSIONLESS:
        return a
    if {a, b} == {UnitValue.CPI, UnitValue.INSTRUCTIONS}:
        return UnitValue.CYCLES
    return UnitValue.UNKNOWN


def div_units(a: UnitValue, b: UnitValue) -> UnitValue:
    """Unit of ``a / b``: same/same cancels, cycles/instructions is CPI."""
    if a is b and is_known(a):
        return UnitValue.DIMENSIONLESS
    if b is UnitValue.DIMENSIONLESS:
        return a
    if a is UnitValue.CYCLES and b is UnitValue.INSTRUCTIONS:
        return UnitValue.CPI
    return UnitValue.UNKNOWN


# -- inference seeds ----------------------------------------------------

#: Canonical dotted names of the sanctioned constructors and NewTypes.
CONSTRUCTOR_UNITS = {
    "repro.units.mpki": UnitValue.MPKI,
    "repro.units.per_kilo": UnitValue.MPKI,
    "repro.units.cpi": UnitValue.CPI,
    "repro.units.Cycles": UnitValue.CYCLES,
    "repro.units.Instructions": UnitValue.INSTRUCTIONS,
    "repro.units.Misses": UnitValue.MISSES,
    "repro.units.Mpki": UnitValue.MPKI,
    "repro.units.Cpi": UnitValue.CPI,
}

#: Bare NewType names accepted in annotation position.
ANNOTATION_UNITS = {
    "Cycles": UnitValue.CYCLES,
    "Instructions": UnitValue.INSTRUCTIONS,
    "Misses": UnitValue.MISSES,
    "Mpki": UnitValue.MPKI,
    "Cpi": UnitValue.CPI,
}

#: Observation-metric string keys (``series("mpki")``, ``d["cpi"]``).
METRIC_STRING_UNITS = {
    "cpi": UnitValue.CPI,
    "mpki": UnitValue.MPKI,
    "l1i_mpki": UnitValue.MPKI,
    "l1d_mpki": UnitValue.MPKI,
    "l2_mpki": UnitValue.MPKI,
    "btb_mpki": UnitValue.MPKI,
    "cycles": UnitValue.CYCLES,
    "instructions": UnitValue.INSTRUCTIONS,
}

#: ``Counter`` enum members carrying a raw-count unit.  BRANCHES stays
#: UNKNOWN on purpose: mispredicts/branches (accuracy) is legitimate.
COUNTER_MEMBER_UNITS = {
    "CYCLES": UnitValue.CYCLES,
    "INSTRUCTIONS": UnitValue.INSTRUCTIONS,
    "BRANCH_MISPREDICTS": UnitValue.MISSES,
    "L1I_MISSES": UnitValue.MISSES,
    "L1D_MISSES": UnitValue.MISSES,
    "L2_MISSES": UnitValue.MISSES,
    "BTB_MISSES": UnitValue.MISSES,
    "INDIRECT_MISPREDICTS": UnitValue.MISSES,
}

#: Identifier lexicon: suffix-anchored so ``cpi_per_doubling`` (a
#: CPI-per-something compound) and ``l1d_accesses`` stay UNKNOWN.
_NAME_PATTERNS: tuple[tuple[re.Pattern[str], UnitValue], ...] = (
    (re.compile(r"(^|_)mpkis?$"), UnitValue.MPKI),
    (re.compile(r"(^|_)cpis?$"), UnitValue.CPI),
    (re.compile(r"(^|_)cycles$"), UnitValue.CYCLES),
    (re.compile(r"(^|_)instructions$"), UnitValue.INSTRUCTIONS),
    (re.compile(r"(^|_)(misses|mispredicts)$"), UnitValue.MISSES),
)

#: Unit-transparent builtins/aggregations: result carries the unit of
#: the first argument (or the receiver, for ``xs.mean()`` method form).
_PASSTHROUGH_CALLS = frozenset(
    {"float", "int", "abs", "round", "sum", "min", "max", "sorted",
     "mean", "median", "std", "array", "asarray"}
)

#: Methods whose first string argument names the metric being read.
_METRIC_LOOKUP_METHODS = frozenset({"series", "metric", "mean"})


def name_unit(name: str) -> UnitValue:
    """Unit a bare identifier or attribute name advertises."""
    for pattern, unit in _NAME_PATTERNS:
        if pattern.search(name):
            return unit
    return UnitValue.UNKNOWN


def annotation_unit(expr: ast.expr | None, module: ModuleInfo) -> UnitValue:
    """Unit named by an annotation expression, UNKNOWN when none."""
    if expr is None:
        return UnitValue.UNKNOWN
    if isinstance(expr, (ast.Name, ast.Attribute)):
        dotted = module.imports.resolve(expr)
        if dotted in CONSTRUCTOR_UNITS:
            return CONSTRUCTOR_UNITS[dotted]
        last = last_name(expr)
        if last in ANNOTATION_UNITS:
            return ANNOTATION_UNITS[last]
        return UnitValue.UNKNOWN
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        # ``Mpki | None`` / ``Misses | float`` — first known side wins.
        left = annotation_unit(expr.left, module)
        if left is not UnitValue.UNKNOWN:
            return left
        return annotation_unit(expr.right, module)
    if isinstance(expr, ast.Subscript):
        # ``Optional[Mpki]`` — look inside the subscript.
        if isinstance(expr.slice, ast.Tuple):
            for element in expr.slice.elts:
                unit = annotation_unit(element, module)
                if unit is not UnitValue.UNKNOWN:
                    return unit
            return UnitValue.UNKNOWN
        return annotation_unit(expr.slice, module)
    return UnitValue.UNKNOWN


def _counter_member_unit(expr: ast.expr, module: ModuleInfo) -> UnitValue:
    """Unit of a ``Counter.X`` reference, UNKNOWN when not one."""
    if not isinstance(expr, ast.Attribute):
        return UnitValue.UNKNOWN
    if expr.attr not in COUNTER_MEMBER_UNITS:
        return UnitValue.UNKNOWN
    base = expr.value
    dotted = module.imports.resolve(base)
    if dotted is not None and dotted.split(".")[-1] != "Counter":
        return UnitValue.UNKNOWN
    if dotted is None and last_name(base) != "Counter":
        return UnitValue.UNKNOWN
    return COUNTER_MEMBER_UNITS[expr.attr]


class UnitScope(ScopeFlow):
    """Unit inference over one function body or module top level.

    One scope-table record (assignment map and call resolutions) under
    the shared name join, with units as the lattice: seeds are
    parameter and local annotations plus the identifier lexicon, and
    the record's call resolutions give callee return annotations.  All
    queries go through :meth:`unit_of`.
    """

    def __init__(self, program: Program, scope: Scope) -> None:
        super().__init__(scope)
        self.program = program
        self.module = module = scope.module
        self.function = scope.fn
        self.param_units: dict[str, UnitValue] = {}
        self.annotated: dict[str, UnitValue] = {}
        if scope.fn is not None:
            args = scope.fn.node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                unit = annotation_unit(arg.annotation, module)
                if unit is not UnitValue.UNKNOWN:
                    self.param_units[arg.arg] = unit
        for node in scope.nodes:
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                unit = annotation_unit(node.annotation, module)
                if unit is not UnitValue.UNKNOWN:
                    self.annotated[node.target.id] = unit

    # -- queries -------------------------------------------------------

    def unit_of(
        self, expr: ast.expr, _visiting: frozenset[str] = frozenset()
    ) -> UnitValue:
        """Abstract unit of one expression in this scope."""
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, (int, float)) and not isinstance(
                expr.value, bool
            ):
                return UnitValue.DIMENSIONLESS
            return UnitValue.UNKNOWN
        if isinstance(expr, ast.Name):
            return self._unit_of_name(expr.id, _visiting)
        if isinstance(expr, ast.Attribute):
            counter = _counter_member_unit(expr, self.module)
            if counter is not UnitValue.UNKNOWN:
                return counter
            return name_unit(expr.attr)
        if isinstance(expr, ast.Subscript):
            return self._unit_of_subscript(expr, _visiting)
        if isinstance(expr, ast.BinOp):
            left = self.unit_of(expr.left, _visiting)
            right = self.unit_of(expr.right, _visiting)
            if isinstance(expr.op, (ast.Add, ast.Sub)):
                if is_known(left) and is_known(right) and left is not right:
                    return UnitValue.UNKNOWN  # conflict; UNIT001's business
                return add_units(left, right)
            if isinstance(expr.op, ast.Mult):
                return mul_units(left, right)
            if isinstance(expr.op, (ast.Div, ast.FloorDiv)):
                return div_units(left, right)
            return UnitValue.UNKNOWN
        if isinstance(expr, ast.UnaryOp):
            return self.unit_of(expr.operand, _visiting)
        if isinstance(expr, ast.IfExp):
            return join(
                self.unit_of(expr.body, _visiting),
                self.unit_of(expr.orelse, _visiting),
            )
        if isinstance(expr, ast.Call):
            return self._unit_of_call(expr, _visiting)
        if isinstance(expr, ast.Starred):
            return self.unit_of(expr.value, _visiting)
        return UnitValue.UNKNOWN

    def _unit_of_name(self, name: str, visiting: frozenset[str]) -> UnitValue:
        seed = self.param_units.get(name) or self.annotated.get(name)
        if seed is not None:
            return seed
        lexical = name_unit(name)
        if lexical is not UnitValue.UNKNOWN:
            return lexical
        assigned = self.joined(
            name, visiting, self.unit_of, join, UnitValue.UNKNOWN
        )
        return UnitValue.UNKNOWN if assigned is None else assigned

    def _unit_of_subscript(
        self, expr: ast.Subscript, visiting: frozenset[str]
    ) -> UnitValue:
        index = expr.slice
        if isinstance(index, ast.Constant) and isinstance(index.value, str):
            unit = METRIC_STRING_UNITS.get(index.value)
            if unit is not None:
                return unit
            return UnitValue.UNKNOWN
        counter = _counter_member_unit(index, self.module)
        if counter is not UnitValue.UNKNOWN:
            return counter
        # Element of a homogeneous collection: the collection's unit.
        return self.unit_of(expr.value, visiting)

    def _unit_of_call(self, call: ast.Call, visiting: frozenset[str]) -> UnitValue:
        dotted = self.module.imports.resolve(call.func)
        if dotted in CONSTRUCTOR_UNITS:
            return CONSTRUCTOR_UNITS[dotted]
        fname = last_name(call.func)
        if (
            fname in _METRIC_LOOKUP_METHODS
            and isinstance(call.func, ast.Attribute)
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            unit = METRIC_STRING_UNITS.get(call.args[0].value)
            if unit is not None:
                return unit
        if fname in _PASSTHROUGH_CALLS:
            if isinstance(call.func, ast.Attribute) and dotted is None:
                # ``values.mean()`` — the receiver's unit passes through
                # (a resolvable dotted form like ``np.mean`` is a module
                # function: use the arguments instead).
                receiver = self.module.imports.resolve(call.func.value)
                if receiver is None:
                    return self.unit_of(call.func.value, visiting)
            if call.args:
                return self.unit_of(call.args[0], visiting)
            return UnitValue.UNKNOWN
        return self._unit_of_resolved_return(call)

    def _unit_of_resolved_return(self, call: ast.Call) -> UnitValue:
        targets, dynamic = self.scope.calls[call]
        if not targets:
            return UnitValue.UNKNOWN
        units = []
        for target in targets:
            target_module = self.program.modules.get(target.rel)
            if target_module is None:
                return UnitValue.UNKNOWN
            units.append(annotation_unit(target.node.returns, target_module))
        first = units[0]
        if dynamic:
            # Name-only resolution: trust it only when every candidate
            # agrees on a concrete annotated unit.
            if all(u is first for u in units) and is_known(first):
                return first
            return UnitValue.UNKNOWN
        if len(targets) == 1:
            return first
        return UnitValue.UNKNOWN


def unit_scopes(ctx: ProgramContext) -> list[UnitScope]:
    """One :class:`UnitScope` per scope-table record, built once per
    lint run.

    UNIT001–UNIT003 and STAT001 all read this one list.
    """
    program = ctx.program
    return ctx.shared(
        "unit-scopes",
        lambda: [UnitScope(program, scope) for scope in program.scopes()],
    )


def is_units_module(rel: str) -> bool:
    """Whether *rel* is the sanctioned conversion module itself.

    Matches the ``repro/units.py`` path components only: another
    module that happens to be named ``units.py`` gets no exemption.
    """
    return f"/{rel.strip('/')}".endswith("/repro/units.py")


def is_kilo_literal(expr: ast.expr) -> bool:
    """A bare ``1000`` / ``1000.0`` literal (the per-kilo magic number)."""
    return (
        isinstance(expr, ast.Constant)
        and isinstance(expr.value, (int, float))
        and not isinstance(expr.value, bool)
        and float(expr.value) == 1000.0
    )
