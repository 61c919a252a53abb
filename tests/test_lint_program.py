"""Whole-program analysis layer of ``repro.lint``.

Covers the project symbol table and call graph
(:mod:`repro.lint.callgraph`), the seed-taint dataflow core
(:mod:`repro.lint.dataflow`), the CLI surface added for
interprocedural linting (``--graph``, ``--rules``), baseline
rule-set staleness detection, and a hypothesis-driven corpus of
generated seeded/unseeded call chains asserting SEED001's contract:
no false negatives on severed chains, no false positives on threaded
ones.
"""

from __future__ import annotations

import ast
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from repro.errors import LintUsageError
from repro.lint import Baseline, LintEngine
from repro.lint import callgraph
from repro.lint.callgraph import CallGraph, Program, module_name
from repro.lint.cli import main as lint_main
from repro.lint.dataflow import (
    FunctionDataflow,
    Taint,
    argument_for_param,
    is_seed_name,
    is_seed_root_name,
)
from repro.lint.rules import get_rules


REPO_ROOT = Path(__file__).resolve().parent.parent


def build_program(sources: dict[str, str]) -> Program:
    """Index ``{rel: source}`` into a Program without touching disk."""
    parsed = []
    for rel, source in sorted(sources.items()):
        parsed.append((rel, ast.parse(source), source.splitlines()))
    return Program.build(parsed)


def flow_of(source: str) -> FunctionDataflow:
    """Dataflow over function ``f`` in *source*."""
    program = build_program({"src/repro/core/mod.py": source})
    return FunctionDataflow(program.scope_of(program.functions["repro.core.mod.f"]))


# ----------------------------------------------------------------------
# Symbol table and call graph.
# ----------------------------------------------------------------------


class TestModuleNaming:
    def test_src_anchor_stripped(self):
        assert module_name("src/repro/machine/pmc.py") == "repro.machine.pmc"

    def test_absolute_tmp_paths_still_anchor_on_src(self):
        assert (
            module_name("/tmp/x/src/repro/core/park.py") == "repro.core.park"
        )

    def test_tests_prefix_kept(self):
        assert module_name("tests/test_rng.py") == "tests.test_rng"

    def test_init_maps_to_package(self):
        assert module_name("src/repro/lint/__init__.py") == "repro.lint"

    def test_unanchored_falls_back_to_stem(self):
        assert module_name("scratch/tool.py") == "tool"


class TestCallResolution:
    SOURCES = {
        "src/repro/machine/engine.py": (
            "from repro.machine.pmc import read_counter\n"
            "class Machine:\n"
            "    def run(self, spec):\n"
            "        return self.step(spec)\n"
            "    def step(self, spec):\n"
            "        return read_counter(spec)\n"
            "def run_machine(machine, spec):\n"
            "    return machine.run(spec)\n"
        ),
        "src/repro/machine/pmc.py": (
            "def read_counter(spec):\n"
            "    return 0\n"
        ),
    }

    def test_imported_name_resolves_statically(self):
        program = build_program(self.SOURCES)
        graph = CallGraph(program)
        assert (
            "repro.machine.pmc.read_counter"
            in graph.edges["repro.machine.engine.Machine.step"]
        )

    def test_self_method_resolves_statically(self):
        program = build_program(self.SOURCES)
        graph = CallGraph(program)
        assert (
            "repro.machine.engine.Machine.step"
            in graph.edges["repro.machine.engine.Machine.run"]
        )

    def test_unknown_receiver_resolves_dynamically(self):
        program = build_program(self.SOURCES)
        graph = CallGraph(program)
        dynamic = graph.dynamic_edges.get("repro.machine.engine.run_machine", set())
        assert "repro.machine.engine.Machine.run" in dynamic
        assert "repro.machine.engine.run_machine" not in graph.edges

    def test_reachability_with_and_without_dynamic_edges(self):
        program = build_program(self.SOURCES)
        graph = CallGraph(program)
        with_dynamic = graph.reachable(
            ["repro.machine.engine.run_machine"], include_dynamic=True
        )
        assert "repro.machine.pmc.read_counter" in with_dynamic
        without = graph.reachable(
            ["repro.machine.engine.run_machine"], include_dynamic=False
        )
        assert "repro.machine.pmc.read_counter" not in without

    def test_render_is_deterministic_and_marks_dynamic(self):
        program = build_program(self.SOURCES)
        first = CallGraph(program).render()
        second = CallGraph(build_program(self.SOURCES)).render()
        assert first == second
        assert "->" in first
        assert "[dynamic]" in first

    def test_mro_walks_statically_resolvable_bases(self):
        program = build_program({
            "src/repro/machine/base.py": (
                "class Base:\n"
                "    def hook(self):\n"
                "        return 1\n"
            ),
            "src/repro/machine/derived.py": (
                "from repro.machine.base import Base\n"
                "class Derived(Base):\n"
                "    def run(self):\n"
                "        return self.hook()\n"
            ),
        })
        graph = CallGraph(program)
        assert (
            "repro.machine.base.Base.hook"
            in graph.edges["repro.machine.derived.Derived.run"]
        )

    TWICE = (
        "class A:\n"
        "    def f(self):\n"
        "        return 1\n"
        "    def h(self):\n"
        "        return 1\n"
        "class A:\n"
        "    def g(self):\n"
        "        return self.h()\n"
        "    def h(self):\n"
        "        return 2\n"
    )

    def test_class_defined_twice_keeps_the_later_definition(self):
        """As at run time, the second ``class A`` rebinds the name."""
        program = build_program({"src/repro/core/twice.py": self.TWICE})
        methods = sorted(q for q in program.functions if ".A." in q)
        assert methods == ["repro.core.twice.A.g", "repro.core.twice.A.h"]
        assert "f" not in program.methods_by_name
        assert [m.node.lineno for m in program.methods_by_name["h"]] == [9]
        for fn in program.functions.values():
            assert program.scope_of(fn).fn is fn
        graph = CallGraph(program)
        assert graph.edges["repro.core.twice.A.g"] == {"repro.core.twice.A.h"}

    def test_lint_survives_a_class_defined_twice(self, tmp_path, capsys):
        target = tmp_path / "twice.py"
        target.write_text(self.TWICE)
        assert lint_main([str(target)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


class TestScopeTable:
    def test_lint_run_builds_each_map_and_resolves_each_call_once(
        self, monkeypatch
    ):
        """Every analysis reads the scope table; none rebuilds its facts."""
        maps: Counter = Counter()
        resolutions: Counter = Counter()
        build_map = callgraph.collect_assignments
        resolve = Program._resolve_call

        def counting_build(body):
            # A scope is its statements; an empty top level is its list.
            maps[tuple(map(id, body)) or id(body)] += 1
            return build_map(body)

        def counting_resolve(self, module, caller, call):
            resolutions[id(call)] += 1
            return resolve(self, module, caller, call)

        monkeypatch.setattr(callgraph, "collect_assignments", counting_build)
        monkeypatch.setattr(Program, "_resolve_call", counting_resolve)
        result = LintEngine().run(
            [REPO_ROOT / "src/repro/core", REPO_ROOT / "src/repro/uarch"]
        )
        assert result.clean
        assert maps and max(maps.values()) == 1
        assert resolutions and max(resolutions.values()) == 1


# ----------------------------------------------------------------------
# Seed-taint dataflow.
# ----------------------------------------------------------------------


class TestSeedNames:
    @pytest.mark.parametrize("name", ["seed", "seeds", "layout_seed",
                                      "heap_seeds", "_seed", "run_seed"])
    def test_seed_like(self, name):
        assert is_seed_name(name)

    @pytest.mark.parametrize("name", ["seedling", "x", "rng", "seeded",
                                      "proceed"])
    def test_not_seed_like(self, name):
        assert not is_seed_name(name)

    @pytest.mark.parametrize("name", ["MASTER_SEED", "LAYOUT_SEED_BASE",
                                      "_SEED", "SEED"])
    def test_root_constants(self, name):
        assert is_seed_root_name(name)


class TestTaint:
    def test_constant_expressions(self):
        flow = flow_of("def f(seed):\n    x = 1 + 2\n    return x\n")
        assert flow.taint_of(ast.parse("41 + 1", mode="eval").body) is Taint.CONSTANT

    def test_seed_param_is_seeded(self):
        flow = flow_of("def f(seed):\n    return seed\n")
        expr = ast.parse("seed", mode="eval").body
        assert flow.taint_of(expr) is Taint.SEEDED

    def test_derive_seed_propagates(self):
        flow = flow_of(
            "def f(seed):\n"
            "    child = derive_seed(seed, 'x')\n"
            "    return child\n"
        )
        expr = ast.parse("child", mode="eval").body
        assert flow.taint_of(expr) is Taint.SEEDED

    def test_derive_seed_of_constants_is_constant(self):
        flow = flow_of("def f():\n    return 0\n")
        expr = ast.parse("derive_seed(1, 'x')", mode="eval").body
        assert flow.taint_of(expr) is Taint.CONSTANT

    def test_unknown_call_is_unknown(self):
        flow = flow_of("def f(seed):\n    return 0\n")
        expr = ast.parse("mystery()", mode="eval").body
        assert flow.taint_of(expr) is Taint.UNKNOWN

    def test_cyclic_locals_do_not_recurse_forever(self):
        flow = flow_of("def f():\n    a = b\n    b = a\n    return a\n")
        expr = ast.parse("a", mode="eval").body
        assert flow.taint_of(expr) is Taint.UNKNOWN

    def test_shadowing_store_detected(self):
        flow = flow_of("def f(seed):\n    seed = 99\n    return seed\n")
        assert len(list(flow.shadowing_stores("seed"))) == 1

    def test_self_referential_refinement_is_not_shadowing(self):
        flow = flow_of(
            "def f(seed):\n"
            "    seed = seed & 0xFFFF\n"
            "    return seed\n"
        )
        assert list(flow.shadowing_stores("seed")) == []


class TestArgumentBinding:
    CALL = ast.parse("g(1, 2, key=3)", mode="eval").body

    def test_positional(self):
        arg = argument_for_param(self.CALL, ["a", "b", "key"], "b")
        assert isinstance(arg, ast.Constant) and arg.value == 2

    def test_keyword(self):
        arg = argument_for_param(self.CALL, ["a", "b", "key"], "key")
        assert isinstance(arg, ast.Constant) and arg.value == 3

    def test_missing_is_none(self):
        assert argument_for_param(self.CALL, ["a", "b", "key", "z"], "z") is None

    def test_star_args_defeat_binding(self):
        call = ast.parse("g(*xs, 2)", mode="eval").body
        assert argument_for_param(call, ["a", "b"], "b") is None


# ----------------------------------------------------------------------
# CLI: --graph, --rules, baseline staleness, --json rule_set.
# ----------------------------------------------------------------------


def run_cli(*argv):
    import contextlib
    import io

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


class TestCliSurface:
    CHAIN = {
        "src/repro/machine/worker.py":
            "from repro.rng import RandomStream\n"
            "def simulate(run_seed):\n"
            "    return RandomStream(run_seed)\n",
        "src/repro/machine/driver.py":
            "from repro.machine.worker import simulate\n"
            "def drive(seed):\n"
            "    return simulate(seed)\n",
    }

    def test_graph_dumps_edges_and_exits_zero(self, tmp_path):
        root = write_tree(tmp_path, self.CHAIN)
        code, out, _ = run_cli("--graph", str(root))
        assert code == 0
        assert (
            "repro.machine.driver.drive -> repro.machine.worker.simulate"
            in out
        )
        assert out.strip().splitlines()[-1].startswith("#")

    def test_graph_is_deterministic(self, tmp_path):
        root = write_tree(tmp_path, self.CHAIN)
        _, first, _ = run_cli("--graph", str(root))
        _, second, _ = run_cli("--graph", str(root))
        assert first == second

    def test_rules_flag_filters(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/machine/mod.py":
                "import random\n"
                "def build(seed):\n"
                "    return random.random()\n",
        })
        # DET001 only: the dropped seed is SEED001's to report.
        code, out, _ = run_cli("--rules", "DET001", str(root))
        assert code == 1
        assert "DET001" in out and "SEED001" not in out
        # Both selected, both fire.
        code, out, _ = run_cli("--rules", "DET001,SEED001", str(root))
        assert code == 1
        assert "DET001" in out and "SEED001" in out

    def test_json_rule_set_reflects_rule_filter(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/machine/mod.py": "x = 1\n"})
        code, out, _ = run_cli("--rules", "SEED001", "--json", str(root))
        assert code == 0
        payload = json.loads(out)
        assert payload["version"] == 3
        assert payload["rule_set"] == ["SEED001"]

    def test_unknown_rule_flag_is_usage_error(self, tmp_path):
        code, _, err = run_cli("--rules", "NOPE999", str(tmp_path))
        assert code == 2
        assert "unknown rule" in err


class TestBaselineStaleness:
    def findings(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/machine/mod.py":
                "import random\n"
                "def f():\n"
                "    return random.random()\n",
        })
        return root, LintEngine().run([root]).findings

    def test_round_trip_with_matching_rules(self, tmp_path):
        root, findings = self.findings(tmp_path)
        path = tmp_path / "baseline.json"
        rules = [r.id for r in get_rules()]
        Baseline.write(path, findings, rules=rules)
        loaded = Baseline.load(path, expected_rules=rules)
        assert sum(loaded.counts.values()) == len(findings)
        assert loaded.rules == tuple(sorted(rules))

    def test_different_rule_set_is_stale(self, tmp_path):
        _, findings = self.findings(tmp_path)
        path = tmp_path / "baseline.json"
        Baseline.write(path, findings, rules=["DET001"])
        with pytest.raises(LintUsageError, match="stale baseline"):
            Baseline.load(
                path, expected_rules=[r.id for r in get_rules()]
            )

    def test_version1_file_predates_tracking(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "entries": []}))
        # Legacy read without expectations still works…
        assert Baseline.load(path).rules is None
        # …but the CLI's strict load rejects it.
        with pytest.raises(LintUsageError, match="predates"):
            Baseline.load(path, expected_rules=["DET001"])

    def test_cli_rejects_stale_baseline(self, tmp_path):
        root, findings = self.findings(tmp_path)
        path = tmp_path / "baseline.json"
        Baseline.write(path, findings, rules=["DET001"])
        code, _, err = run_cli(str(root), "--baseline", str(path))
        assert code == 2
        assert "stale" in err

    def test_written_baseline_records_rule_set(self, tmp_path):
        root, findings = self.findings(tmp_path)
        path = tmp_path / "baseline.json"
        code, _, _ = run_cli(str(root), "--write-baseline", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        assert payload["rules"] == sorted(r.id for r in get_rules())


# ----------------------------------------------------------------------
# Hypothesis corpus: generated call chains vs SEED001's contract.
# ----------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def chain_sources(links: list[bool]) -> dict[str, str]:
    """A cross-module call chain; ``links[i]`` is True when function i
    threads its seed into function i+1, False when it passes a constant.

    The terminal function always builds its RNG from its parameter, so
    the only provenance breaks are the ones *links* injects.
    """
    n = len(links)
    files: dict[str, str] = {
        f"src/repro/machine/stage{n}.py": (
            "from repro.rng import RandomStream\n"
            f"def run{n}(seed):\n"
            "    return RandomStream(seed)\n"
        )
    }
    for i, threaded in enumerate(links):
        arg = f"derive_seed(seed, 'stage{i}')" if threaded else "0xBEEF"
        files[f"src/repro/machine/stage{i}.py"] = (
            f"from repro.machine.stage{i + 1} import run{i + 1}\n"
            "from repro.rng import derive_seed\n"
            f"def run{i}(seed):\n"
            f"    return run{i + 1}({arg})\n"
        )
    return files


@settings(derandomize=True, deadline=None, max_examples=30)
@given(links=st.lists(st.booleans(), min_size=1, max_size=4))
def test_seed001_corpus_no_false_verdicts(links):
    """SEED001 flags a generated chain iff a link passes a constant —
    every severed link is caught (no false negatives) and a fully
    threaded chain is clean (no false positives)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = write_tree(Path(tmp), chain_sources(links))
        engine = LintEngine(rules=get_rules(["SEED001"]))
        result = engine.run([root])
    broken = {i for i, threaded in enumerate(links) if not threaded}
    if not broken:
        assert result.clean, [f.message for f in result.findings]
        return
    assert not result.clean
    flagged_stages = {
        f.path for f in result.findings if "not threaded" in f.message
    }
    assert flagged_stages == {
        (root / f"src/repro/machine/stage{i}.py").as_posix() for i in broken
    }
