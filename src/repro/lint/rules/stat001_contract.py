"""STAT001 — statistical-contract violations.

The paper's statistics have an axis contract (regress the CPI
*response* on an MPKI-family *rate*, §5.8) and a reporting contract
(Table-1-style slopes are only published for models that pass a
significance screen, §6.2).  Swapping the regression axes or skipping
the screen still produces plausible-looking numbers — which is exactly
why a linter has to catch it.

Three checks:

* **swapped axes at fit time** — ``from_observations(x_metric="cpi")``
  or a rate metric in ``y_metric``/the positional slots, and
  ``fit_simple`` called with a CPI-unit x or MPKI-unit y;
* **swapped axes at predict time** — a model/fit ``predict`` /
  ``predict_many`` fed a CPI-valued x position;
* **unscreened reporting** — a harness/examples function that fits via
  ``from_observations`` and reads ``.slope``/``.intercept`` without
  referencing any significance screen in the same scope.

Unit evidence comes from the same lattice as the UNIT rules; UNKNOWN
never flags.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import ModuleInfo
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    has_segment,
    register,
)
from repro.lint.unitflow import UnitScope, UnitValue, unit_scopes

#: Metrics legal only on the response (y) axis of the paper's models.
_RESPONSE_METRICS = frozenset({"cpi", "cycles"})

#: Metrics legal only on the regressor (x) axis.
_RATE_METRICS = frozenset({"mpki", "l1i_mpki", "l1d_mpki", "l2_mpki", "btb_mpki"})

#: Any reference to one of these counts as a significance screen.
_SCREEN_TOKENS = frozenset(
    {
        "significance",
        "is_significant",
        "rejects_null",
        "significant_benchmarks",
        "p_value",
        "f_test_regression",
        "t_test_correlation",
        "t_test_slope",
        "l1_significant",
        "l2_significant",
    }
)

#: Classes whose predict()/predict_many() takes an MPKI-axis position.
_MODEL_CLASSES = frozenset(
    {"PerformanceModel", "CombinedModel", "SimpleLinearFit", "MultipleLinearFit"}
)


def _metric_literal(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


@register
class StatisticalContractRule(ProgramRule):
    """Enforce the regression axis and significance-screen contracts."""

    id = "STAT001"
    title = "statistical-contract violation"
    severity = "error"
    tier = "units"
    rationale = (
        "a regression fitted with swapped axes, or a slope published "
        "without its significance screen, yields numbers that look like "
        "Table 1 but do not mean what Table 1 means"
    )
    hint = (
        "regress the CPI response on an MPKI-family rate (x_metric is "
        "the rate) and consult is_significant()/rejects_null() before "
        "reporting slopes or intercepts"
    )

    def check_program(self, ctx: ProgramContext) -> Iterator[Finding]:
        for scope in unit_scopes(ctx):
            module = scope.module
            for node in scope.nodes:
                if isinstance(node, ast.Call):
                    yield from self._check_fit_axes(module, node)
                    yield from self._check_fit_simple(module, scope, node)
                    yield from self._check_predict(module, scope, node)
            yield from self._check_screen(module, scope.nodes)

    # -- swapped axes at from_observations(...) ------------------------

    def _check_fit_axes(self, module: ModuleInfo, call: ast.Call):
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "from_observations"):
            return
        checks: list[tuple[ast.expr, str | None, str]] = []
        for kw in call.keywords:
            if kw.arg == "x_metric":
                checks.append((kw.value, _metric_literal(kw.value), "x"))
            elif kw.arg == "y_metric":
                checks.append((kw.value, _metric_literal(kw.value), "y"))
            elif kw.arg == "x_metrics" and isinstance(kw.value, (ast.Tuple, ast.List)):
                for element in kw.value.elts:
                    checks.append((element, _metric_literal(element), "x"))
        positional = [a for a in call.args if not isinstance(a, ast.Starred)]
        if len(positional) >= 2:
            checks.append((positional[1], _metric_literal(positional[1]), "x"))
        if len(positional) >= 3:
            checks.append((positional[2], _metric_literal(positional[2]), "y"))
        for node, metric, axis in checks:
            if metric is None:
                continue
            if axis == "x" and metric in _RESPONSE_METRICS:
                yield self.finding_at(
                    module.rel,
                    node,
                    f"swapped regression axes: response metric {metric!r} "
                    "used as the x (rate) axis of from_observations()",
                    source_line=module.source_text(node),
                )
            elif axis == "y" and metric in _RATE_METRICS:
                yield self.finding_at(
                    module.rel,
                    node,
                    f"swapped regression axes: rate metric {metric!r} "
                    "used as the y (response) axis of from_observations()",
                    source_line=module.source_text(node),
                )

    # -- swapped axes at fit_simple(x, y) ------------------------------

    def _check_fit_simple(
        self, module: ModuleInfo, scope: UnitScope, call: ast.Call
    ):
        if module.imports.resolve(call.func) != "repro.stats.regression.fit_simple":
            return
        x_arg = y_arg = None
        positional = [a for a in call.args if not isinstance(a, ast.Starred)]
        if len(positional) >= 1:
            x_arg = positional[0]
        if len(positional) >= 2:
            y_arg = positional[1]
        for kw in call.keywords:
            if kw.arg == "x":
                x_arg = kw.value
            elif kw.arg == "y":
                y_arg = kw.value
        if x_arg is not None and scope.unit_of(x_arg) is UnitValue.CPI:
            yield self.finding_at(
                module.rel,
                x_arg,
                "swapped regression axes: CPI-valued series passed as "
                "the x (rate) argument of fit_simple()",
                source_line=module.source_text(x_arg),
            )
        if y_arg is not None and scope.unit_of(y_arg) is UnitValue.MPKI:
            yield self.finding_at(
                module.rel,
                y_arg,
                "swapped regression axes: MPKI-valued series passed as "
                "the y (response) argument of fit_simple()",
                source_line=module.source_text(y_arg),
            )

    # -- swapped axes at predict time ----------------------------------

    def _check_predict(self, module: ModuleInfo, scope: UnitScope, call: ast.Call):
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in ("predict", "predict_many")
        ):
            return
        targets, _dynamic = scope.scope.calls[call]
        if not targets:
            return
        if not all(t.class_name in _MODEL_CLASSES for t in targets):
            return
        x_arg = None
        if call.args and not isinstance(call.args[0], ast.Starred):
            x_arg = call.args[0]
        for kw in call.keywords:
            if kw.arg in ("x0", "xs"):
                x_arg = kw.value
        if x_arg is not None and scope.unit_of(x_arg) is UnitValue.CPI:
            yield self.finding_at(
                module.rel,
                x_arg,
                f"CPI-valued position fed to {func.attr}() — the model's "
                "x axis is the MPKI-family rate, not the response",
                source_line=module.source_text(x_arg),
            )

    # -- unscreened Table-1-style reporting ----------------------------

    def _check_screen(self, module: ModuleInfo, nodes: list[ast.AST]):
        rel = module.rel
        if not (has_segment(rel, "repro/harness") or has_segment(rel, "examples")):
            return
        fits = any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "from_observations"
            for node in nodes
        )
        if not fits:
            return
        referenced: set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
        if referenced & _SCREEN_TOKENS:
            return
        for node in nodes:
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("slope", "intercept")
                and isinstance(node.ctx, ast.Load)
            ):
                yield self.finding_at(
                    rel,
                    node,
                    f"Table-1-style read of .{node.attr} in a scope that "
                    "fits a model but never consults a significance "
                    "screen",
                    source_line=module.source_text(node),
                )
