"""The quantity-algebra lint pack: UNIT001-003, STAT001, and friends.

Covers the unit lattice (hypothesis property tests: the algebra is
associative and commutative, and UNKNOWN never promotes into a
flagging state), the inference seeds of :mod:`repro.lint.unitflow`,
a true-positive/true-negative fixture corpus per rule, the mutation
check the issue demands (deleting the kilo conversion from a copy of
``observations.py`` must produce a UNIT002 finding at the exact line),
and the CLI satellites (unknown ``--rules`` ids exit 2 with the valid
ids listed; ``--sarif`` emits well-formed SARIF 2.1.0).
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LintUsageError
from repro.lint.callgraph import Program
from repro.lint.cli import main as lint_main
from repro.lint.rules import get_rules
from repro.lint.unitflow import (
    KNOWN_UNITS,
    UnitScope,
    UnitValue,
    add_units,
    div_units,
    is_known,
    join,
    mul_units,
    name_unit,
)

UNIT_RULES = "UNIT001,UNIT002,UNIT003,STAT001"

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lint_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def lint_tree(tmp_path: Path, files: dict[str, str]):
    """Lint a fixture tree with only the quantity-algebra rules."""
    root = write_tree(tmp_path, files)
    return run_cli("--rules", UNIT_RULES, str(root))


def findings_by_rule(tmp_path: Path, files: dict[str, str]) -> dict[str, int]:
    root = write_tree(tmp_path, files)
    _, out, _ = run_cli("--rules", UNIT_RULES, "--json", str(root))
    return json.loads(out)["summary"]["by_rule"]


def build_program(sources: dict[str, str]) -> Program:
    parsed = []
    for rel, source in sorted(sources.items()):
        parsed.append((rel, ast.parse(source), source.splitlines()))
    return Program.build(parsed)


def scope_and_return(source: str, func: str = "f"):
    """A UnitScope over function *func* plus its first return expression."""
    program = build_program({"src/repro/core/mod.py": source})
    module = program.modules["src/repro/core/mod.py"]
    info = module.functions[func]
    scope = UnitScope(program, program.scope_of(info))
    ret = next(
        node for node in ast.walk(info.node) if isinstance(node, ast.Return)
    )
    return scope, ret.value


def unit_of_return(source: str, func: str = "f") -> UnitValue:
    scope, expr = scope_and_return(source, func)
    return scope.unit_of(expr)


# ----------------------------------------------------------------------
# The lattice algebra (hypothesis property tests).
# ----------------------------------------------------------------------

units = st.sampled_from(list(UnitValue))


class TestLatticeAlgebra:
    @given(units, units)
    def test_operations_commute(self, a, b):
        assert join(a, b) is join(b, a)
        assert add_units(a, b) is add_units(b, a)
        assert mul_units(a, b) is mul_units(b, a)

    @given(units, units, units)
    def test_operations_associate(self, a, b, c):
        assert join(join(a, b), c) is join(a, join(b, c))
        assert add_units(add_units(a, b), c) is add_units(a, add_units(b, c))
        assert mul_units(mul_units(a, b), c) is mul_units(a, mul_units(b, c))

    @given(units)
    def test_join_is_idempotent(self, a):
        assert join(a, a) is a

    @given(units)
    def test_unknown_never_promotes(self, a):
        """No operation manufactures a flagging unit from UNKNOWN."""
        unknown = UnitValue.UNKNOWN
        for op in (join, add_units, mul_units, div_units):
            assert op(a, unknown) not in KNOWN_UNITS
            assert op(unknown, a) not in KNOWN_UNITS

    @given(units)
    def test_dimensionless_is_scaling_identity(self, a):
        dim = UnitValue.DIMENSIONLESS
        assert mul_units(a, dim) is a
        assert div_units(a, dim) is a

    def test_quantity_algebra_anchors(self):
        assert div_units(UnitValue.CYCLES, UnitValue.INSTRUCTIONS) is UnitValue.CPI
        assert (
            mul_units(UnitValue.CPI, UnitValue.INSTRUCTIONS) is UnitValue.CYCLES
        )
        assert div_units(UnitValue.MPKI, UnitValue.MPKI) is UnitValue.DIMENSIONLESS


# ----------------------------------------------------------------------
# Inference seeds.
# ----------------------------------------------------------------------


class TestInference:
    def test_lexicon_suffixes(self):
        assert name_unit("mean_mpki") is UnitValue.MPKI
        assert name_unit("total_cycles") is UnitValue.CYCLES
        assert name_unit("instructions") is UnitValue.INSTRUCTIONS
        assert name_unit("branch_mispredicts") is UnitValue.MISSES
        assert name_unit("cpis") is UnitValue.CPI

    def test_lexicon_rejects_compounds_and_neighbours(self):
        # A CPI-per-MPKI slope and an access count are not quantities
        # the lexicon may claim.
        assert name_unit("cpi_per_doubling") is UnitValue.UNKNOWN
        assert name_unit("l1d_accesses") is UnitValue.UNKNOWN
        assert name_unit("coupling_mpki_l1d") is UnitValue.UNKNOWN
        assert name_unit("branches") is UnitValue.UNKNOWN

    def test_params_feed_the_division_rule(self):
        assert (
            unit_of_return("def f(cycles, instructions):\n"
                           "    return cycles / instructions\n")
            is UnitValue.CPI
        )

    def test_metric_string_subscript(self):
        assert (
            unit_of_return("def f(row):\n    return row['l1d_mpki']\n")
            is UnitValue.MPKI
        )

    def test_sanctioned_constructor(self):
        assert (
            unit_of_return("from repro import units\n"
                           "def f(a, b):\n    return units.mpki(a, b)\n")
            is UnitValue.MPKI
        )

    def test_annotation_beats_lexicon(self):
        source = (
            "from repro import units\n"
            "def f(value: units.Cpi):\n    return value\n"
        )
        assert unit_of_return(source) is UnitValue.CPI

    def test_builtin_passthrough(self):
        assert (
            unit_of_return("def f(row):\n    return float(row['cpi'])\n")
            is UnitValue.CPI
        )

    def test_assignment_chain(self):
        source = (
            "def f(row):\n"
            "    value = row['btb_mpki']\n"
            "    scaled = value * 2.0\n"
            "    return scaled\n"
        )
        assert unit_of_return(source) is UnitValue.MPKI


# ----------------------------------------------------------------------
# UNIT001 — mixed-unit arithmetic.
# ----------------------------------------------------------------------


class TestUnit001:
    def test_flags_mixed_addition(self, tmp_path):
        code, out, _ = lint_tree(tmp_path, {
            "src/repro/core/mix.py":
                "def f(cycles, instructions):\n"
                "    return cycles + instructions\n",
        })
        assert code == 1
        assert "UNIT001" in out

    def test_flags_mixed_comparison(self, tmp_path):
        code, out, _ = lint_tree(tmp_path, {
            "src/repro/core/cmp.py":
                "def f(mean_mpki, mean_cpi):\n"
                "    return mean_mpki > mean_cpi\n",
        })
        assert code == 1
        assert "UNIT001" in out

    def test_same_unit_and_offsets_are_clean(self, tmp_path):
        code, _, _ = lint_tree(tmp_path, {
            "src/repro/core/ok.py":
                "def f(mean_cpi, perfect_cpi):\n"
                "    improvement = (mean_cpi - perfect_cpi) / mean_cpi\n"
                "    return improvement * 100.0\n",
        })
        assert code == 0

    def test_unknown_operand_never_flags(self, tmp_path):
        code, _, _ = lint_tree(tmp_path, {
            "src/repro/core/unk.py":
                "def f(mean_cpi, fudge):\n    return mean_cpi + fudge\n",
        })
        assert code == 0


# ----------------------------------------------------------------------
# UNIT002 — malformed ratios and bare 1000s.
# ----------------------------------------------------------------------


class TestUnit002:
    def test_flags_raw_miss_ratio(self, tmp_path):
        code, out, _ = lint_tree(tmp_path, {
            "src/repro/core/raw.py":
                "def f(misses, instructions):\n"
                "    return misses / instructions\n",
        })
        assert code == 1
        assert "UNIT002" in out

    def test_flags_bare_kilo_on_quantity(self, tmp_path):
        code, out, _ = lint_tree(tmp_path, {
            "src/repro/core/kilo.py":
                "def f(mean_mpki):\n    return mean_mpki * 1000\n",
        })
        assert code == 1
        assert "UNIT002" in out

    def test_flags_kilo_scaled_instruction_ratio(self, tmp_path):
        # events is no known unit, but /instructions * 1000 is the MPKI
        # formula spelled by hand.
        code, out, _ = lint_tree(tmp_path, {
            "src/repro/core/formula.py":
                "def f(events, instructions):\n"
                "    return events / instructions * 1000.0\n",
        })
        assert code == 1
        assert "UNIT002" in out

    def test_full_formula_is_one_finding_not_two(self, tmp_path):
        by_rule = findings_by_rule(tmp_path, {
            "src/repro/core/dup.py":
                "def f(misses, instructions):\n"
                "    return misses / instructions * 1000.0\n",
        })
        assert by_rule == {"UNIT002": 1}

    def test_named_per_kilo_constant_is_sanctioned(self, tmp_path):
        code, _, _ = lint_tree(tmp_path, {
            "src/repro/core/named.py":
                "from repro import units\n"
                "def f(mean_mpki):\n"
                "    return mean_mpki * units.PER_KILO\n",
        })
        assert code == 0

    def test_units_module_itself_is_exempt(self, tmp_path):
        code, _, _ = lint_tree(tmp_path, {
            "src/repro/units.py":
                "def mpki(misses, instructions):\n"
                "    return misses / instructions * 1000.0\n",
        })
        assert code == 0

    def test_other_module_named_units_is_not_exempt(self, tmp_path):
        # Only the repro/units.py path components earn the exemption:
        # a harness module that happens to be called units.py is
        # policed exactly like its rates.py sibling.
        body = (
            "def rate(misses, instructions):\n"
            "    return misses / instructions * 1000\n"
        )
        root = write_tree(tmp_path, {
            "src/repro/harness/rates.py": body,
            "src/repro/harness/units.py": body,
        })
        _, out, _ = run_cli("--rules", "UNIT002", "--json", str(root))
        flagged = sorted(
            (f["path"].rsplit("/", 2)[-2:], f["line"])
            for f in json.loads(out)["findings"]
        )
        assert flagged == [
            (["harness", "rates.py"], 2),
            (["harness", "units.py"], 2),
        ]

    def test_shipped_units_module_stays_exempt(self, tmp_path):
        source = (REPO_ROOT / "src/repro/units.py").read_text()
        root = write_tree(tmp_path, {"src/repro/units.py": source})
        code, out, _ = run_cli("--rules", "UNIT002", str(root))
        assert code == 0, out


# ----------------------------------------------------------------------
# UNIT003 — call and return boundaries.
# ----------------------------------------------------------------------


class TestUnit003:
    def test_flags_wrong_unit_argument_by_lexicon(self, tmp_path):
        code, out, _ = lint_tree(tmp_path, {
            "src/repro/core/callee.py":
                "def evaluate(mean_mpki):\n    return mean_mpki\n"
                "def use(mean_cpi):\n    return evaluate(mean_cpi)\n",
        })
        assert code == 1
        assert "UNIT003" in out

    def test_flags_wrong_unit_argument_by_annotation(self, tmp_path):
        code, out, _ = lint_tree(tmp_path, {
            "src/repro/core/annot.py":
                "from repro import units\n"
                "def evaluate(rate: units.Mpki):\n    return rate\n"
                "def use(mean_cpi):\n    return evaluate(mean_cpi)\n",
        })
        assert code == 1
        assert "UNIT003" in out

    def test_flags_dataclass_field_mismatch(self, tmp_path):
        code, out, _ = lint_tree(tmp_path, {
            "src/repro/core/row.py":
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class Row:\n"
                "    mean_mpki: float\n"
                "def build(mean_cpi):\n"
                "    return Row(mean_mpki=mean_cpi)\n",
        })
        assert code == 1
        assert "UNIT003" in out

    def test_flags_return_bound_to_wrong_name(self, tmp_path):
        code, out, _ = lint_tree(tmp_path, {
            "src/repro/core/bind.py":
                "from repro import units\n"
                "def make() -> units.Mpki:\n"
                "    return units.Mpki(0.0)\n"
                "def use():\n"
                "    mean_cpi = make()\n"
                "    return mean_cpi\n",
        })
        assert code == 1
        assert "UNIT003" in out

    def test_matching_units_are_clean(self, tmp_path):
        code, _, _ = lint_tree(tmp_path, {
            "src/repro/core/okcall.py":
                "def evaluate(mean_mpki):\n    return mean_mpki\n"
                "def use(btb_mpki):\n    return evaluate(btb_mpki)\n",
        })
        assert code == 0


# ----------------------------------------------------------------------
# STAT001 — statistical-contract violations.
# ----------------------------------------------------------------------


class TestStat001:
    def test_flags_response_metric_on_x_axis(self, tmp_path):
        code, out, _ = lint_tree(tmp_path, {
            "src/repro/core/fit.py":
                "def fit(observations, model_cls):\n"
                "    return model_cls.from_observations(\n"
                "        observations, x_metric='cpi')\n",
        })
        assert code == 1
        assert "STAT001" in out and "swapped" in out

    def test_flags_rate_metric_on_y_axis(self, tmp_path):
        code, out, _ = lint_tree(tmp_path, {
            "src/repro/core/fity.py":
                "def fit(observations, model_cls):\n"
                "    return model_cls.from_observations(\n"
                "        observations, x_metric='mpki', y_metric='l2_mpki')\n",
        })
        assert code == 1
        assert "STAT001" in out

    def test_flags_swapped_fit_simple_arguments(self, tmp_path):
        by_rule = findings_by_rule(tmp_path, {
            "src/repro/stats/swap.py":
                "from repro.stats.regression import fit_simple\n"
                "def fit(cpis, mpkis):\n"
                "    return fit_simple(cpis, mpkis)\n",
        })
        assert by_rule.get("STAT001") == 2  # both axes are swapped

    def test_flags_cpi_fed_to_model_predict(self, tmp_path):
        code, out, _ = lint_tree(tmp_path, {
            "src/repro/core/pred.py":
                "class PerformanceModel:\n"
                "    def predict(self, x0):\n"
                "        return x0\n"
                "def use(model, mean_cpi):\n"
                "    return model.predict(mean_cpi)\n",
        })
        assert code == 1
        assert "STAT001" in out

    def test_flags_unscreened_slope_report_in_harness(self, tmp_path):
        code, out, _ = lint_tree(tmp_path, {
            "src/repro/harness/rep.py":
                "def report(observations, model_cls):\n"
                "    model = model_cls.from_observations(\n"
                "        observations, x_metric='mpki')\n"
                "    return model.slope\n",
        })
        assert code == 1
        assert "STAT001" in out and "significance" in out

    def test_screened_slope_report_is_clean(self, tmp_path):
        code, _, _ = lint_tree(tmp_path, {
            "src/repro/harness/okrep.py":
                "def report(observations, model_cls):\n"
                "    model = model_cls.from_observations(\n"
                "        observations, x_metric='mpki')\n"
                "    if not model.is_significant():\n"
                "        return None\n"
                "    return model.slope\n",
        })
        assert code == 0

    def test_slope_read_without_fit_is_clean(self, tmp_path):
        code, _, _ = lint_tree(tmp_path, {
            "src/repro/harness/render.py":
                "def render(model):\n"
                "    return f'{model.slope:.3f} {model.intercept:.3f}'\n",
        })
        assert code == 0

    def test_unscreened_slope_outside_harness_is_clean(self, tmp_path):
        # Sub-check C polices the reporting layers only.
        code, _, _ = lint_tree(tmp_path, {
            "src/repro/core/internal.py":
                "def refit(observations, model_cls):\n"
                "    model = model_cls.from_observations(\n"
                "        observations, x_metric='mpki')\n"
                "    return model.slope\n",
        })
        assert code == 0


# ----------------------------------------------------------------------
# The mutation check: delete the kilo conversion, demand a finding.
# ----------------------------------------------------------------------


class TestMutationCheck:
    def test_deleted_kilo_conversion_is_flagged_at_exact_line(self, tmp_path):
        source = (REPO_ROOT / "src/repro/core/observations.py").read_text()
        sanctioned = "units.mpki(misses, instructions)"
        assert sanctioned in source, "mutation anchor moved"
        mutated = source.replace(sanctioned, "misses / instructions")
        expected_line = next(
            lineno
            for lineno, text in enumerate(mutated.splitlines(), 1)
            if "return misses / instructions" in text
        )
        root = write_tree(
            tmp_path, {"src/repro/core/observations.py": mutated}
        )
        code, out, _ = run_cli("--rules", UNIT_RULES, "--json", str(root))
        assert code == 1
        payload = json.loads(out)
        hits = [
            f for f in payload["findings"]
            if f["rule"] == "UNIT002"
            and f["path"].endswith("src/repro/core/observations.py")
        ]
        assert len(hits) == 1
        assert hits[0]["line"] == expected_line

    def test_unmutated_observations_module_is_clean(self, tmp_path):
        source = (REPO_ROOT / "src/repro/core/observations.py").read_text()
        code, _, _ = lint_tree(
            tmp_path, {"src/repro/core/observations.py": source}
        )
        assert code == 0


# ----------------------------------------------------------------------
# CLI satellites: unknown rules exit 2; SARIF output.
# ----------------------------------------------------------------------


class TestCliSatellites:
    def test_unknown_rule_exits_2_and_lists_valid_ids(self, tmp_path):
        code, _, err = run_cli("--rules", "UNIT999", str(tmp_path))
        assert code == 2
        assert "unknown rule 'UNIT999'" in err
        assert "valid rule ids" in err
        # Both per-file and program rule ids are offered.
        assert "DET001" in err and "UNIT001" in err and "STAT001" in err

    def test_get_rules_raises_usage_error(self):
        with pytest.raises(LintUsageError):
            get_rules(["BOGUS1"])

    def test_sarif_report_structure(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/core/raw.py":
                "def f(misses, instructions):\n"
                "    return misses / instructions\n",
        })
        sarif_path = tmp_path / "out.sarif"
        code, _, _ = run_cli(
            "--rules", UNIT_RULES, "--sarif", str(sarif_path), str(root)
        )
        assert code == 1
        payload = json.loads(sarif_path.read_text())
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert rule_ids == sorted(UNIT_RULES.split(","))
        result = run["results"][0]
        assert result["ruleId"] == "UNIT002"
        assert result["level"] == "error"
        assert rule_ids[result["ruleIndex"]] == "UNIT002"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2
        assert result["partialFingerprints"]["reproLintFingerprint/v1"]

    def test_sarif_parse_error_has_no_rule_index(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/core/bad.py": "def f(:\n"})
        sarif_path = tmp_path / "bad.sarif"
        code, _, _ = run_cli(
            "--rules", "UNIT001", "--sarif", str(sarif_path), str(root)
        )
        assert code == 1
        payload = json.loads(sarif_path.read_text())
        result = payload["runs"][0]["results"][0]
        assert result["ruleId"] == "DET000"
        assert "ruleIndex" not in result
