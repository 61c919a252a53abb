"""The perf lint pack: the hot-path model and PERF001-PERF004.

A hypothesis property pins the hot-scope reachability's monotonicity
(adding call edges can only grow the hot set, never shrink it),
fixture tests demonstrate each rule's true positives and true
negatives — including the scalar-guard and chunk-dispatch exemptions
that make the engine contract expressible without suppressions — and
the mutation checks prove that re-introducing a per-event ``scan``
loop into ``bimode.py``, or deleting the justified suppression from
TAGE's state-machine loop, produces PERF001 at the exact loop line,
while the oracle loop of ``Structure.simulate_mask`` in ``vector.py``
is seen by the model and exempt because it sits in the scalar guard.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import re
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from repro.lint.callgraph import Program
from repro.lint.cli import main as lint_main
from repro.lint.perfflow import HotPathModel
from repro.lint.rules.base import annotate_parents

PERF_RULES = "PERF001,PERF002,PERF003,PERF004"
PERF_IDS = tuple(PERF_RULES.split(","))

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Fixture module path — the PERF rules bind the measurement core, so
#: fixtures must live under a uarch/machine/mase segment.
REL = "src/repro/uarch/sim.py"


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


def lint_tree(tmp_path: Path, files: dict[str, str], rules: str = PERF_RULES):
    root = write_tree(tmp_path, files)
    return run_cli("--rules", rules, str(root))


def findings_json(
    tmp_path: Path, files: dict[str, str], rules: str = PERF_RULES
):
    root = write_tree(tmp_path, files)
    _, out, _ = run_cli("--rules", rules, "--json", str(root))
    return json.loads(out)


def structure(kernel_body: str, simulate_extra: str = "") -> str:
    """A contract-conforming structure with a configurable hot method.

    ``simulate`` is an engine entry point; ``_kernel`` is reachable
    from it outside the scalar guard (hot), ``_oracle`` only inside it
    (exempt by construction).
    """
    return (
        "import numpy as np\n"
        "\n"
        "from repro.uarch import vector\n"
        "\n"
        "\n"
        "class Structure:\n"
        '    def simulate(self, addresses, outcomes, engine="vector"):\n'
        "        vector.require_engine(engine)\n"
        f"{simulate_extra}"
        '        if engine == "scalar":\n'
        "            return self._oracle(addresses, outcomes)\n"
        "        return self._kernel(addresses, outcomes)\n"
        "\n"
        "    def _oracle(self, addresses, outcomes):\n"
        "        count = 0\n"
        "        for pc, outcome in zip(addresses.tolist(), outcomes.tolist()):\n"
        "            count += self._step(pc, outcome)\n"
        "        return count\n"
        "\n"
        "    def _step(self, pc, outcome):\n"
        "        return int(pc & 1) ^ outcome\n"
        "\n"
        "    def _kernel(self, addresses, outcomes):\n"
        f"{kernel_body}"
    )


CHUNKED_KERNEL = (
    "        total = 0\n"
    "        for start, stop in vector.iter_chunks(int(addresses.size)):\n"
    "            total += int(np.count_nonzero(outcomes[start:stop]))\n"
    "        return total\n"
)


# ----------------------------------------------------------------------
# Hot-scope reachability: monotone in the call-edge set.
# ----------------------------------------------------------------------

_N_FUNCS = 7
_edge = st.tuples(
    st.integers(0, _N_FUNCS - 1), st.integers(0, _N_FUNCS - 1)
)


def _call_graph_source(edges: frozenset[tuple[int, int]]) -> str:
    lines = []
    for i in range(_N_FUNCS):
        lines.append(f"def f{i}():")
        callees = sorted({b for a, b in edges if a == i})
        lines.extend(f"    f{j}()" for j in callees)
        if not callees:
            lines.append("    return None")
    lines.append("def simulate():")
    lines.append("    f0()")
    return "\n".join(lines) + "\n"


def _hot(edges: frozenset[tuple[int, int]]) -> frozenset[str]:
    source = _call_graph_source(edges)
    tree = ast.parse(source)
    annotate_parents(tree)
    program = Program.build(
        [("src/repro/uarch/m.py", tree, source.splitlines())]
    )
    return HotPathModel(program).hot


class TestHotScopeReachability:
    @given(
        base=st.frozensets(_edge, max_size=12),
        extra=st.frozensets(_edge, max_size=6),
    )
    def test_monotone_in_call_edges(self, base, extra):
        """hot(E) is contained in hot(E | E') for every edge set E'."""
        assert _hot(base) <= _hot(base | extra)

    @given(base=st.frozensets(_edge, max_size=12))
    def test_entry_point_always_hot(self, base):
        hot = _hot(base)
        assert any(q.endswith(".simulate") for q in hot)
        assert any(q.endswith(".f0") for q in hot)

    def test_scalar_guard_call_sites_are_cold(self, tmp_path):
        """_oracle is only reached through the scalar guard: not hot."""
        source = structure(CHUNKED_KERNEL)
        tree = ast.parse(source)
        annotate_parents(tree)
        program = Program.build([(REL, tree, source.splitlines())])
        model = HotPathModel(program)
        assert any(q.endswith("Structure._kernel") for q in model.hot)
        assert not any(q.endswith("Structure._oracle") for q in model.hot)


# ----------------------------------------------------------------------
# PERF001 — per-event loop on the hot path.
# ----------------------------------------------------------------------


class TestHotEventLoop:
    def test_conforming_structure_is_clean(self, tmp_path):
        code, out, _ = lint_tree(
            tmp_path, {REL: structure(CHUNKED_KERNEL)}, rules="PERF001"
        )
        assert code == 0, out

    def test_tolist_loop_in_hot_method_flags(self, tmp_path):
        kernel = (
            "        count = 0\n"
            "        for pc, outcome in zip(addresses.tolist(), outcomes.tolist()):\n"
            "            count += self._step(pc, outcome)\n"
            "        return count\n"
        )
        payload = findings_json(
            tmp_path, {REL: structure(kernel)}, rules="PERF001"
        )
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["PERF001"]
        assert "Structure._kernel is hot" in findings[0]["message"]
        assert "kernel family" in findings[0]["message"]

    def test_trace_lexicon_parameter_loop_flags(self, tmp_path):
        kernel = (
            "        count = 0\n"
            "        for address in addresses:\n"
            "            count += int(address) & 1\n"
            "        return count\n"
        )
        code, out, _ = lint_tree(
            tmp_path, {REL: structure(kernel)}, rules="PERF001"
        )
        assert code == 1
        assert "PERF001" in out

    def test_oracle_loop_under_scalar_guard_is_exempt(self, tmp_path):
        # The conforming fixture's _oracle loops per event over
        # .tolist() streams — sanctioned, because every path to it
        # runs through the scalar-engine guard.
        payload = findings_json(
            tmp_path, {REL: structure(CHUNKED_KERNEL)}, rules="PERF001"
        )
        assert payload["findings"] == []
        assert payload["summary"]["suppressed"] == 0

    def test_same_shape_outside_measurement_core_is_out_of_scope(
        self, tmp_path
    ):
        kernel = (
            "        count = 0\n"
            "        for pc in addresses.tolist():\n"
            "            count += int(pc) & 1\n"
            "        return count\n"
        )
        code, out, _ = lint_tree(
            tmp_path,
            {"src/repro/report/sim.py": structure(kernel)},
            rules="PERF001",
        )
        assert code == 0, out


# ----------------------------------------------------------------------
# PERF002 — allocation inside a hot loop.
# ----------------------------------------------------------------------


class TestLoopAllocation:
    def test_allocation_in_hot_loop_flags(self, tmp_path):
        kernel = (
            "        total = 0\n"
            "        for round_no in range(8):\n"
            "            scratch = np.zeros(4, dtype=np.int64)\n"
            "            total += int(scratch.size) + round_no\n"
            "        return total\n"
        )
        payload = findings_json(
            tmp_path, {REL: structure(kernel)}, rules="PERF002"
        )
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["PERF002"]
        assert "np.zeros" in findings[0]["message"]

    def test_chunk_dispatch_loop_is_exempt(self, tmp_path):
        # Kernels allocate per chunk by design; the dispatch loop
        # exists to bound working-set size.
        kernel = (
            "        total = 0\n"
            "        for start, stop in vector.iter_chunks(int(addresses.size)):\n"
            "            scratch = np.zeros(stop - start, dtype=np.int64)\n"
            "            total += int(scratch.size)\n"
            "        return total\n"
        )
        code, out, _ = lint_tree(
            tmp_path, {REL: structure(kernel)}, rules="PERF002"
        )
        assert code == 0, out

    def test_compute_ufuncs_are_not_allocations(self, tmp_path):
        # np.where is not something the author can hoist: never flags.
        kernel = (
            "        total = 0\n"
            "        for round_no in range(8):\n"
            "            total += int(np.count_nonzero(np.where(outcomes > round_no, 1, 0)))\n"
            "        return total\n"
        )
        code, out, _ = lint_tree(
            tmp_path, {REL: structure(kernel)}, rules="PERF002"
        )
        assert code == 0, out


# ----------------------------------------------------------------------
# PERF003 — loop-carried promote/cast-back churn.
# ----------------------------------------------------------------------


class TestDtypeChurn:
    def test_loop_carried_promote_cast_back_flags(self, tmp_path):
        kernel = (
            "        acc = np.zeros(8, dtype=np.int16)\n"
            "        wide = np.zeros(8, dtype=np.int64)\n"
            "        for round_no in range(4):\n"
            "            acc = (acc + wide).astype(np.int16)\n"
            "        return int(acc[0])\n"
        )
        payload = findings_json(
            tmp_path, {REL: structure(kernel)}, rules="PERF003"
        )
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["PERF003"]
        message = findings[0]["message"]
        assert "'acc'" in message
        assert "int64" in message and "int16" in message

    def test_python_scalar_does_not_widen(self, tmp_path):
        # (acc + 1) stays in the array's dtype: no promotion, no churn.
        kernel = (
            "        acc = np.zeros(8, dtype=np.int16)\n"
            "        for round_no in range(4):\n"
            "            acc = (acc + 1).astype(np.int16)\n"
            "        return int(acc[0])\n"
        )
        code, out, _ = lint_tree(
            tmp_path, {REL: structure(kernel)}, rules="PERF003"
        )
        assert code == 0, out

    def test_one_shot_cast_is_not_loop_carried(self, tmp_path):
        # The cast's operand never reads the assigned name: PERF002's
        # beat (a copy in a loop), not a promote/cast-back cycle.
        kernel = (
            "        wide = np.zeros(8, dtype=np.int64)\n"
            "        total = 0\n"
            "        for round_no in range(4):\n"
            "            narrow = (wide + wide).astype(np.int16)\n"
            "            total += int(narrow[0])\n"
            "        return total\n"
        )
        code, out, _ = lint_tree(
            tmp_path, {REL: structure(kernel)}, rules="PERF003"
        )
        assert code == 0, out


# ----------------------------------------------------------------------
# PERF004 — engine-contract drift.
# ----------------------------------------------------------------------


def simulating(signature: str, body: str) -> str:
    return (
        "import numpy as np\n"
        "\n"
        "from repro.uarch import vector\n"
        "\n"
        "\n"
        "class Structure:\n"
        f"    def simulate({signature}):\n"
        f"{body}"
    )


class TestEngineContract:
    def test_missing_engine_knob_flags(self, tmp_path):
        source = simulating(
            "self, addresses, outcomes",
            "        return int(np.count_nonzero(outcomes))\n",
        )
        payload = findings_json(tmp_path, {REL: source}, rules="PERF004")
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["PERF004"]
        assert "no engine knob" in findings[0]["message"]

    def test_scalar_default_flags(self, tmp_path):
        source = simulating(
            'self, addresses, outcomes, engine="scalar"',
            "        vector.require_engine(engine)\n"
            '        if engine == "scalar":\n'
            "            return 0\n"
            "        return 1\n",
        )
        payload = findings_json(tmp_path, {REL: source}, rules="PERF004")
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["PERF004"]
        assert 'contract default is "vector"' in findings[0]["message"]

    def test_unconsulted_knob_flags(self, tmp_path):
        source = simulating(
            'self, addresses, outcomes, engine="vector"',
            "        return int(np.count_nonzero(outcomes))\n",
        )
        payload = findings_json(tmp_path, {REL: source}, rules="PERF004")
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["PERF004"]
        assert "never consults" in findings[0]["message"]

    def test_conforming_structure_is_clean(self, tmp_path):
        code, out, _ = lint_tree(
            tmp_path, {REL: structure(CHUNKED_KERNEL)}, rules="PERF004"
        )
        assert code == 0, out

    def test_kwargs_signature_is_unknown_not_flagged(self, tmp_path):
        source = simulating(
            "self, addresses, outcomes, **kwargs",
            "        return int(np.count_nonzero(outcomes))\n",
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="PERF004")
        assert code == 0, out


# ----------------------------------------------------------------------
# Mutation check: re-introduce the pre-conversion bimode loop.
# ----------------------------------------------------------------------

_MUTATION = (
    "\n"
    "\n"
    "class MutatedBiMode(BiModePredictor):\n"
    '    """The pre-conversion shape: a per-event trace interpreter."""\n'
    "\n"
    "    def scan(self, addresses, outcomes):\n"
    "        misses = np.zeros(addresses.size, dtype=bool)\n"
    "        for i, (pc, outcome) in enumerate(zip(addresses.tolist(), outcomes.tolist())):\n"
    "            if not self.predict_and_update(int(pc), int(outcome)):\n"
    "                misses[i] = True\n"
    "        return misses\n"
)

#: The shipped sources the mutation is linted with: the predictor base
#: and ``vector.py``, whose ``Structure.simulate`` dispatches to ``scan``.
_CONTRACT_SOURCES = (
    "src/repro/uarch/predictors/base.py",
    "src/repro/uarch/vector.py",
)


def _shipped(*rels: str) -> dict[str, str]:
    return {rel: (REPO_ROOT / rel).read_text() for rel in rels}


def _model(files: dict[str, str]) -> HotPathModel:
    parsed = []
    for rel, source in sorted(files.items()):
        tree = ast.parse(source)
        annotate_parents(tree)
        parsed.append((rel, tree, source.splitlines()))
    return HotPathModel(Program.build(parsed))


class TestBimodeMutation:
    def test_shipped_predictor_sources_are_clean(self, tmp_path):
        files = _shipped(
            *_CONTRACT_SOURCES,
            "src/repro/uarch/predictors/bimode.py",
            "src/repro/uarch/predictors/perceptron.py",
            "src/repro/uarch/predictors/tage.py",
        )
        payload = findings_json(tmp_path, files, rules="PERF001")
        assert payload["findings"] == []
        # TAGE's state-machine loop is the one justified suppression.
        assert payload["summary"]["suppressed"] == 1
        # The oracle loop is visible to the rule and classified as the
        # scalar engine's: hot scope, per-event shape, inside the guard.
        model = _model(files)
        oracle = next(q for q in model.loops if q.endswith("Structure.simulate_mask"))
        assert model.is_hot(oracle)
        [loop] = model.loops[oracle]
        assert loop.per_event and loop.in_scalar_guard
        assert loop not in list(model.hot_loops())

    def test_reintroduced_event_loop_flags_at_exact_line(self, tmp_path):
        bimode_src = (
            REPO_ROOT / "src/repro/uarch/predictors/bimode.py"
        ).read_text()
        mutated = bimode_src.rstrip("\n") + "\n" + _MUTATION
        files = _shipped(*_CONTRACT_SOURCES)
        files["src/repro/uarch/predictors/bimode.py"] = mutated
        mutated_line = (
            "        for i, (pc, outcome) in "
            "enumerate(zip(addresses.tolist(), outcomes.tolist())):"
        )
        expected_line = mutated.splitlines().index(mutated_line) + 1
        payload = findings_json(tmp_path, files, rules="PERF001")
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["PERF001"]
        finding = findings[0]
        assert finding["path"].endswith("src/repro/uarch/predictors/bimode.py")
        assert finding["line"] == expected_line
        assert "MutatedBiMode.scan is hot" in finding["message"]

    def test_tage_event_loop_flags_without_its_suppression(self, tmp_path):
        rel = "src/repro/uarch/predictors/tage.py"
        lines = (REPO_ROOT / rel).read_text().splitlines(keepends=True)
        [marker] = [
            i for i, line in enumerate(lines) if "repro: allow-PERF001" in line
        ]
        del lines[marker]
        # The loop statement now sits on the comment's old line.
        assert lines[marker].lstrip().startswith("for e, ")
        files = _shipped(*_CONTRACT_SOURCES)
        files[rel] = "".join(lines)
        payload = findings_json(tmp_path, files, rules="PERF001")
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["PERF001"]
        assert findings[0]["path"].endswith(rel)
        assert findings[0]["line"] == marker + 1
        assert "TagePredictor._scan_chunk is hot" in findings[0]["message"]


# ----------------------------------------------------------------------
# CLI surface: --list-rules tier, --rules selection, SARIF indices.
# ----------------------------------------------------------------------


class TestCliSurface:
    def test_list_rules_shows_perf_tier(self):
        code, out, _ = run_cli("--list-rules")
        assert code == 0
        for rule_id in PERF_IDS:
            assert re.search(
                rf"^{rule_id} \[(error|warning)\] \(perf\) ", out, re.M
            ), rule_id

    def test_single_rule_selection(self, tmp_path):
        kernel = (
            "        count = 0\n"
            "        for pc in addresses.tolist():\n"
            "            count += int(pc) & 1\n"
            "        return count\n"
        )
        root = write_tree(tmp_path, {REL: structure(kernel)})
        code, out, _ = run_cli("--rules", "PERF001", "--json", str(root))
        assert code == 1
        payload = json.loads(out)
        assert payload["rule_set"] == ["PERF001"]
        assert [f["rule"] for f in payload["findings"]] == ["PERF001"]

    def test_sarif_rule_indices_are_correct(self, tmp_path):
        kernel = (
            "        count = 0\n"
            "        for pc in addresses.tolist():\n"
            "            count += int(pc) & 1\n"
            "        return count\n"
        )
        root = write_tree(tmp_path, {REL: structure(kernel)})
        sarif_path = tmp_path / "report.sarif"
        code, _, _ = run_cli("--sarif", str(sarif_path), str(root))
        assert code == 1
        sarif = json.loads(sarif_path.read_text())
        run = sarif["runs"][0]
        ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        for rule_id in PERF_IDS:
            assert rule_id in ids
        perf_results = [
            r for r in run["results"] if r["ruleId"].startswith("PERF")
        ]
        assert perf_results
        for result in perf_results:
            assert ids[result["ruleIndex"]] == result["ruleId"]
