"""The linter walks each syntax tree once.

One :class:`~repro.lint.callgraph.ModuleIndex` per module (nodes,
parents, imports) and one node list plus one executing-call list per
scope record replace the walks every rule used to make.  These tests
pin the index to the walks it replaced — the old implementations live
on here, as oracles only — and bound how much traversal a lint run may
do, counted rather than timed.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import LintEngine
from repro.lint.callgraph import ImportTable, Program

REPO_ROOT = Path(__file__).resolve().parent.parent
TREE = [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "examples"]
CORE = [REPO_ROOT / "src/repro/core", REPO_ROOT / "src/repro/uarch"]
SHARED = (ast.expr_context, ast.boolop, ast.operator, ast.unaryop, ast.cmpop)


def oracle_annotate_parents(tree: ast.AST) -> None:
    """The per-rule parent pass the index replaced."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node


def oracle_direct_calls(body: list[ast.stmt]) -> list[ast.Call]:
    """The per-call-site executing-call walk the scope record replaced."""
    calls = []
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            calls.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return calls


def same_nodes(got: list, want: list) -> bool:
    """Element-by-element identity, in order."""
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


@pytest.fixture(scope="module")
def indexed():
    """``(rel, index, lines)`` of every file in the tree, via the engine."""
    engine = LintEngine()
    parsed = []
    for path in engine.discover(TREE):
        rel, index, lines, _ = engine._parse(path)
        assert index is not None, rel
        parsed.append((rel, index, lines))
    return parsed


class TestModuleIndex:
    def test_nodes_are_ast_walk_order(self, indexed):
        for rel, index, _ in indexed:
            assert same_nodes(index.nodes, list(ast.walk(index.tree))), rel

    def test_parents_match_the_old_pass(self, indexed):
        for rel, index, _ in indexed:
            # Operator and context nodes (Add, Load, ...) are singletons
            # shared by every parsed tree: any pass leaves them the
            # parent it saw last, here the last file indexed.
            nodes = [n for n in index.nodes[1:] if not isinstance(n, SHARED)]
            parents = [node.parent for node in nodes]
            oracle_annotate_parents(index.tree)
            assert all(
                got is node.parent for got, node in zip(parents, nodes)
            ), rel
            assert not hasattr(index.tree, "parent"), rel

    def test_imports_match_a_fresh_table(self, indexed):
        for rel, index, _ in indexed:
            assert index.imports.aliases == ImportTable.of(index.tree).aliases, rel


class TestScopeRecords:
    @pytest.fixture(scope="class")
    def program(self, indexed):
        return Program.build(indexed)

    def test_nodes_are_the_per_statement_walk(self, program):
        for scope in program.scopes():
            want = [node for stmt in scope.body for node in ast.walk(stmt)]
            assert same_nodes(scope.nodes, want), scope.qualname

    def test_direct_calls_match_the_old_walk(self, program):
        for scope in program.scopes():
            want = oracle_direct_calls(scope.body)
            assert same_nodes(scope.direct_calls, want), scope.qualname

    def test_bare_trees_are_indexed_too(self):
        source = "import numpy as np\ndef f():\n    return np.zeros(3)\n"
        program = Program.build([("src/repro/core/m.py", ast.parse(source), [])])
        module = program.modules["src/repro/core/m.py"]
        assert module.imports.aliases == {"np": "numpy"}
        assert same_nodes(module.nodes, list(ast.walk(module.tree)))
        scope = program.scope_of(module.functions["f"])
        assert [type(n).__name__ for n in scope.direct_calls] == ["Call"]


def test_lint_run_walks_each_tree_once(monkeypatch):
    """Traversal is counted, not timed: one index walk per module, and
    child-node visits bounded by a small multiple of the tree size."""
    files = LintEngine.discover(CORE)
    node_count = sum(
        sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        for path in files
    )
    walk, iter_child_nodes = ast.walk, ast.iter_child_nodes
    module_walks: Counter = Counter()
    child_visits = 0

    def counting_walk(node):
        if isinstance(node, ast.Module):
            module_walks[id(node)] += 1
        return walk(node)

    def counting_iter_child_nodes(node):
        nonlocal child_visits
        child_visits += 1
        return iter_child_nodes(node)

    monkeypatch.setattr(ast, "walk", counting_walk)
    monkeypatch.setattr(ast, "iter_child_nodes", counting_iter_child_nodes)
    result = LintEngine().run(CORE)
    monkeypatch.undo()
    assert result.clean and result.files_scanned == len(files)
    assert max(module_walks.values(), default=0) <= 1
    assert child_visits <= 8 * node_count, child_visits / node_count
