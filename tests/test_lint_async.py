"""The async lint pack: the event-loop context model and ASYNC001-004.

A hypothesis property pins the context labeling's monotonicity (adding
call edges can only grow each context's reachable set, never shrink
it), fixture tests demonstrate each rule's true positives and true
negatives — including the UNKNOWN-never-flags discipline and the
sanctioned handoffs (locks, asyncio primitives, awaited calls,
executor offload) — and the mutation checks the issue demands prove
that re-introducing ``time.sleep`` into a serving coroutine produces
ASYNC001 at the exact mutated line and that de-locking the
``StoreStats`` counters re-provokes the ASYNC003 the shipped tree
fixed.
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
from repro.lint.contextflow import ContextModel
from repro.lint.cli import main as lint_main
from repro.lint.rules.base import annotate_parents

ASYNC_RULES = "ASYNC001,ASYNC002,ASYNC003,ASYNC004"
ASYNC_IDS = tuple(ASYNC_RULES.split(","))

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Fixture module path — the ASYNC rules bind repro library modules
#: outside tests.
REL = "src/repro/svc/app.py"

#: The shipped modules whose loop/executor split the tier certifies.
#: Together they close the typed-attribute chains (``serve`` holds the
#: entries, ``lab`` the executor path, ``store`` the shared counters),
#: so mutation checks over this subset see the same contexts the
#: whole-tree lint does.
SHIPPED = (
    "src/repro/serve.py",
    "src/repro/store.py",
    "src/repro/harness/lab.py",
)


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


def lint_tree(tmp_path: Path, files: dict[str, str], rules: str = ASYNC_RULES):
    root = write_tree(tmp_path, files)
    return run_cli("--rules", rules, str(root))


def findings_json(
    tmp_path: Path, files: dict[str, str], rules: str = ASYNC_RULES
):
    root = write_tree(tmp_path, files)
    _, out, _ = run_cli("--rules", rules, "--json", str(root))
    return json.loads(out)


def shipped_files() -> dict[str, str]:
    return {rel: (REPO_ROOT / rel).read_text() for rel in SHIPPED}


def build_model(files: dict[str, str]) -> ContextModel:
    parsed = []
    for rel, source in sorted(files.items()):
        tree = ast.parse(source)
        annotate_parents(tree)
        parsed.append((rel, tree, source.splitlines()))
    program = Program.build(parsed)
    return ContextModel(program)


# ----------------------------------------------------------------------
# Context labeling: monotone in the call-edge set.
# ----------------------------------------------------------------------

_N_FUNCS = 6
_edge = st.tuples(
    st.integers(0, _N_FUNCS - 1), st.integers(0, _N_FUNCS - 1)
)


def _context_source(edges: frozenset[tuple[int, int]]) -> str:
    """f0 is a loop root, f1 an executor root; fi() -> fj() per edge."""
    lines = ["import asyncio", ""]
    for i in range(_N_FUNCS):
        lines.append(f"def f{i}():")
        callees = sorted({b for a, b in edges if a == i})
        lines.extend(f"    f{j}()" for j in callees)
        if not callees:
            lines.append("    return None")
    lines.append("async def main():")
    lines.append("    loop = asyncio.get_running_loop()")
    lines.append("    await loop.run_in_executor(None, f1)")
    lines.append("asyncio.run(main())")
    lines.append("asyncio.create_task(f0())")
    return "\n".join(lines) + "\n"


def _contexts(
    edges: frozenset[tuple[int, int]],
) -> dict[str, frozenset[str]]:
    source = _context_source(edges)
    model = build_model({REL: source})
    return {
        qualname: model.contexts_of(qualname)
        for qualname in model.program.functions
    }


class TestContextMonotonicity:
    @given(
        base=st.frozensets(_edge, max_size=10),
        extra=st.frozensets(_edge, max_size=5),
    )
    def test_monotone_in_call_edges(self, base, extra):
        """contexts(E) is pointwise contained in contexts(E | E')."""
        before = _contexts(base)
        after = _contexts(base | extra)
        for qualname, contexts in before.items():
            assert contexts <= after[qualname], qualname

    @given(base=st.frozensets(_edge, max_size=10))
    def test_roots_carry_their_context(self, base):
        contexts = _contexts(base)
        f0 = next(c for q, c in contexts.items() if q.endswith(".f0"))
        f1 = next(c for q, c in contexts.items() if q.endswith(".f1"))
        assert "loop" in f0
        assert "executor" in f1


class TestModelResolution:
    def test_local_instance_entry_resolves(self):
        source = (
            "import asyncio\n"
            "class Server:\n"
            "    async def run(self):\n"
            "        await asyncio.sleep(0)\n"
            "def main():\n"
            "    server = Server()\n"
            "    asyncio.run(server.run())\n"
        )
        model = build_model({REL: source})
        assert any(
            e.context == "loop" and e.qualname.endswith("Server.run")
            for e in model.entries
        )

    def test_typed_attr_chain_resolves_across_modules(self):
        files = {
            "src/repro/svc/stats.py": (
                "class Stats:\n"
                "    def bump(self):\n"
                "        self.count = 0\n"
            ),
            REL: (
                "import asyncio\n"
                "from repro.svc.stats import Stats\n"
                "class App:\n"
                "    def __init__(self):\n"
                "        self.stats = Stats()\n"
                "    async def tick(self):\n"
                "        self.stats.bump()\n"
                "def main():\n"
                "    app = App()\n"
                "    asyncio.run(app.tick())\n"
            ),
        }
        model = build_model(files)
        bumps = [q for q in model.program.functions if q.endswith("Stats.bump")]
        assert bumps and model.contexts_of(bumps[0]) == frozenset({"loop"})

    def test_unresolvable_callable_contributes_nothing(self):
        source = (
            "import asyncio\n"
            "def launch(callback):\n"
            "    asyncio.create_task(callback())\n"
            "def quiet():\n"
            "    return 1\n"
        )
        model = build_model({REL: source})
        quiet = next(q for q in model.program.functions if q.endswith(".quiet"))
        assert model.contexts_of(quiet) == frozenset()


# ----------------------------------------------------------------------
# ASYNC001 — blocking call inside a coroutine.
# ----------------------------------------------------------------------


class TestBlockingInCoroutine:
    def test_direct_time_sleep_flags(self, tmp_path):
        source = (
            "import asyncio\n"
            "import time\n"
            "async def handler():\n"
            "    time.sleep(0.1)\n"
        )
        payload = findings_json(tmp_path, {REL: source}, rules="ASYNC001")
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["ASYNC001"]
        assert "time.sleep" in findings[0]["message"]
        assert findings[0]["line"] == 4

    def test_transitive_blocking_helper_flags(self, tmp_path):
        source = (
            "import asyncio\n"
            "import time\n"
            "def settle():\n"
            "    time.sleep(0.1)\n"
            "def helper():\n"
            "    settle()\n"
            "async def handler():\n"
            "    helper()\n"
        )
        payload = findings_json(tmp_path, {REL: source}, rules="ASYNC001")
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["ASYNC001"]
        message = findings[0]["message"]
        assert "helper" in message and "time.sleep" in message

    def test_awaited_asyncio_sleep_is_clean(self, tmp_path):
        source = (
            "import asyncio\n"
            "async def handler():\n"
            "    await asyncio.sleep(0.1)\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC001")
        assert code == 0, out

    def test_executor_offload_is_clean(self, tmp_path):
        source = (
            "import asyncio\n"
            "import time\n"
            "def settle():\n"
            "    time.sleep(0.1)\n"
            "async def handler():\n"
            "    loop = asyncio.get_running_loop()\n"
            "    return await loop.run_in_executor(None, settle)\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC001")
        assert code == 0, out

    def test_blocking_call_in_deferred_lambda_is_clean(self, tmp_path):
        # Creating a closure is not calling it; the lambda body's
        # blocking call does not execute when the coroutine runs.
        source = (
            "import asyncio\n"
            "import time\n"
            "async def handler(defer):\n"
            "    defer(lambda: time.sleep(0.1))\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC001")
        assert code == 0, out

    def test_shadowed_open_is_clean(self, tmp_path):
        source = (
            "import asyncio\n"
            "def open(gate):\n"
            "    return gate\n"
            "async def handler():\n"
            "    return open(1)\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC001")
        assert code == 0, out

    def test_suppression_comment_works(self, tmp_path):
        # ASYNC ids are five letters; the suppression grammar accepts
        # them like the three- and four-letter packs.
        source = (
            "import asyncio\n"
            "import time\n"
            "async def handler():\n"
            "    time.sleep(0.1)  # repro: allow-ASYNC001 startup barrier, loop not yet serving\n"
        )
        payload = findings_json(tmp_path, {REL: source}, rules="ASYNC001")
        assert payload["findings"] == []
        assert payload["summary"]["suppressed"] == 1


# ----------------------------------------------------------------------
# ASYNC002 — un-awaited coroutine / dropped task handle.
# ----------------------------------------------------------------------


class TestOrphanCoroutine:
    def test_discarded_create_task_flags(self, tmp_path):
        source = (
            "import asyncio\n"
            "async def work():\n"
            "    await asyncio.sleep(0)\n"
            "async def main():\n"
            "    asyncio.create_task(work())\n"
            "    await asyncio.sleep(1)\n"
        )
        payload = findings_json(tmp_path, {REL: source}, rules="ASYNC002")
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["ASYNC002"]
        assert "task handle" in findings[0]["message"]

    def test_bare_coroutine_call_flags(self, tmp_path):
        source = (
            "import asyncio\n"
            "async def work():\n"
            "    await asyncio.sleep(0)\n"
            "async def main():\n"
            "    work()\n"
        )
        payload = findings_json(tmp_path, {REL: source}, rules="ASYNC002")
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["ASYNC002"]
        assert "never runs" in findings[0]["message"]

    def test_kept_handle_and_awaited_coroutine_are_clean(self, tmp_path):
        source = (
            "import asyncio\n"
            "async def work():\n"
            "    await asyncio.sleep(0)\n"
            "async def main():\n"
            "    task = asyncio.create_task(work())\n"
            "    await work()\n"
            "    await task\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC002")
        assert code == 0, out

    def test_handle_appended_to_registry_is_clean(self, tmp_path):
        source = (
            "import asyncio\n"
            "async def work():\n"
            "    await asyncio.sleep(0)\n"
            "async def main(tasks):\n"
            "    tasks.append(asyncio.create_task(work()))\n"
            "    await asyncio.sleep(1)\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC002")
        assert code == 0, out

    def test_discarded_sync_call_is_not_flagged(self, tmp_path):
        source = (
            "import asyncio\n"
            "def log():\n"
            "    return 1\n"
            "async def main():\n"
            "    log()\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC002")
        assert code == 0, out


# ----------------------------------------------------------------------
# ASYNC003 — state shared across loop/executor without a handoff.
# ----------------------------------------------------------------------

def _shared_state(cls_body: str) -> str:
    """A class whose bump() runs executor-side and read() loop-side."""
    return (
        "import asyncio\n"
        "import threading\n"
        "class Service:\n"
        + cls_body
        + "def measure():\n"
        "    svc = Service()\n"
        "    svc.bump()\n"
        "async def main():\n"
        "    loop = asyncio.get_running_loop()\n"
        "    await loop.run_in_executor(None, measure)\n"
        "    svc = Service()\n"
        "    svc.read()\n"
        "def boot():\n"
        "    asyncio.run(main())\n"
    )


class TestAsyncSharedState:
    def test_unguarded_counter_across_contexts_flags(self, tmp_path):
        source = _shared_state(
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
            "    def read(self):\n"
            "        return self.count\n"
        )
        payload = findings_json(tmp_path, {REL: source}, rules="ASYNC003")
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["ASYNC003"]
        message = findings[0]["message"]
        assert "bump" in message and "executor" in message
        assert "loop" in message

    def test_lock_discipline_is_clean(self, tmp_path):
        source = _shared_state(
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "        self._lock = threading.Lock()\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.count += 1\n"
            "    def read(self):\n"
            "        return self.count\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC003")
        assert code == 0, out

    def test_asyncio_primitive_attr_is_exempt(self, tmp_path):
        source = _shared_state(
            "    def __init__(self):\n"
            "        self.queue = asyncio.Queue(maxsize=8)\n"
            "    def bump(self):\n"
            "        self.queue.put_nowait(1)\n"
            "    def read(self):\n"
            "        return self.queue.qsize()\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC003")
        assert code == 0, out

    def test_same_context_on_both_sides_is_clean(self, tmp_path):
        source = (
            "import asyncio\n"
            "class Metrics:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
            "    def read(self):\n"
            "        return self.count\n"
            "async def main():\n"
            "    metrics = Metrics()\n"
            "    metrics.bump()\n"
            "    return metrics.read()\n"
            "def boot():\n"
            "    asyncio.run(main())\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC003")
        assert code == 0, out

    def test_no_async_contexts_is_out_of_jurisdiction(self, tmp_path):
        # Plain-thread sharing is CONC002's finding, not ASYNC003's.
        source = (
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
            "    def read(self):\n"
            "        return self.count\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC003")
        assert code == 0, out


# ----------------------------------------------------------------------
# ASYNC004 — unbounded queue / starred gather fan-out.
# ----------------------------------------------------------------------


class TestBackpressure:
    def test_unbounded_queue_flags(self, tmp_path):
        source = (
            "import asyncio\n"
            "def build():\n"
            "    return asyncio.Queue()\n"
        )
        payload = findings_json(tmp_path, {REL: source}, rules="ASYNC004")
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["ASYNC004"]
        assert "unbounded" in findings[0]["message"]

    def test_zero_maxsize_is_explicitly_unbounded(self, tmp_path):
        source = (
            "import asyncio\n"
            "def build():\n"
            "    return asyncio.Queue(maxsize=0)\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC004")
        assert code == 1
        assert "ASYNC004" in out

    def test_bounded_queue_is_clean(self, tmp_path):
        source = (
            "import asyncio\n"
            "def build():\n"
            "    return asyncio.Queue(maxsize=32)\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC004")
        assert code == 0, out

    def test_variable_maxsize_is_unknown_not_flagged(self, tmp_path):
        source = (
            "import asyncio\n"
            "def build(backlog):\n"
            "    return asyncio.Queue(maxsize=backlog)\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC004")
        assert code == 0, out

    def test_starred_gather_flags(self, tmp_path):
        source = (
            "import asyncio\n"
            "async def work(i):\n"
            "    await asyncio.sleep(i)\n"
            "async def main(items):\n"
            "    await asyncio.gather(*[work(i) for i in items])\n"
        )
        payload = findings_json(tmp_path, {REL: source}, rules="ASYNC004")
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["ASYNC004"]
        assert "gather" in findings[0]["message"]

    def test_fixed_arity_gather_is_clean(self, tmp_path):
        source = (
            "import asyncio\n"
            "async def work(i):\n"
            "    await asyncio.sleep(i)\n"
            "async def main():\n"
            "    await asyncio.gather(work(1), work(2))\n"
        )
        code, out, _ = lint_tree(tmp_path, {REL: source}, rules="ASYNC004")
        assert code == 0, out


# ----------------------------------------------------------------------
# Mutation checks over the shipped serving stack.
# ----------------------------------------------------------------------


class TestShippedServingStack:
    def test_shipped_subset_is_clean(self, tmp_path):
        payload = findings_json(tmp_path, shipped_files())
        assert payload["findings"] == []

    def test_reintroduced_sleep_flags_at_exact_line(self, tmp_path):
        files = shipped_files()
        serve = files["src/repro/serve.py"]
        needle = "            payload = body.encode()\n"
        assert needle in serve
        mutated_line = "            time.sleep(0.01)\n"
        serve = serve.replace(needle, mutated_line + needle)
        serve = serve.replace("import sys\n", "import sys\nimport time\n", 1)
        files["src/repro/serve.py"] = serve
        expected_line = (
            serve.splitlines().index(mutated_line.rstrip("\n")) + 1
        )
        payload = findings_json(tmp_path, files, rules="ASYNC001")
        findings = payload["findings"]
        assert [f["rule"] for f in findings] == ["ASYNC001"]
        finding = findings[0]
        assert finding["path"].endswith("src/repro/serve.py")
        assert finding["line"] == expected_line
        assert "_handle_client" in finding["message"]
        assert "time.sleep" in finding["message"]

    def test_delocked_store_stats_flags_async003(self, tmp_path):
        # The draft defect this PR fixed in-tree: StoreStats counters
        # mutated bare from executor threads while the loop-side
        # metrics endpoint reads them.  De-locking record_hit must
        # re-provoke the finding.
        files = shipped_files()
        store = files["src/repro/store.py"]
        locked = (
            "        with self._lock:\n"
            "            self.hits += 1\n"
            "            self.layouts_loaded += layouts\n"
        )
        unlocked = (
            "        self.hits += 1\n"
            "        self.layouts_loaded += layouts\n"
        )
        assert locked in store
        files["src/repro/store.py"] = store.replace(locked, unlocked)
        payload = findings_json(tmp_path, files, rules="ASYNC003")
        findings = payload["findings"]
        assert findings, "de-locked StoreStats must flag ASYNC003"
        assert {f["rule"] for f in findings} == {"ASYNC003"}
        assert all(
            f["path"].endswith("src/repro/store.py") for f in findings
        )
        message = findings[0]["message"]
        assert "record_hit" in message
        assert "executor" in message and "loop" in message


# ----------------------------------------------------------------------
# CLI surface.
# ----------------------------------------------------------------------


class TestCliSurface:
    def test_list_rules_shows_async_tier(self):
        code, out, _ = run_cli("--list-rules")
        assert code == 0
        for rule_id in ASYNC_IDS:
            assert re.search(
                rf"^{rule_id} \[(error|warning)\] \(async\) ", out, re.M
            ), rule_id

    def test_unknown_rule_catalogue_includes_async_ids(self):
        code, _, err = run_cli("--rules", "NOPE001", ".")
        assert code != 0
        for rule_id in ASYNC_IDS:
            assert rule_id in err

    def test_single_rule_selection(self, tmp_path):
        source = (
            "import asyncio\n"
            "import time\n"
            "async def handler():\n"
            "    time.sleep(0.1)\n"
        )
        root = write_tree(tmp_path, {REL: source})
        code, out, _ = run_cli("--rules", "ASYNC001", "--json", str(root))
        assert code == 1
        payload = json.loads(out)
        assert payload["rule_set"] == ["ASYNC001"]
        assert [f["rule"] for f in payload["findings"]] == ["ASYNC001"]
