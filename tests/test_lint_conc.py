"""The concurrency lint pack: thread/signal contexts and CONC002-CONC005.

Covers the thread/signal family of the context model (thread targets,
signal handlers, thread-pool submissions resolve; process pools and
unresolvable targets do not), one program mixing both context families
(each rule sees only its own), a true-positive/true-negative fixture corpus per
rule, the mutation checks the issue demands (swapping the monotonic
clock for the wall clock in a copy of ``supervise.py`` must produce
CONC005 at the exact line), and the suppression path for deliberate
patterns.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
from collections import Counter
from pathlib import Path

from repro.lint import LintEngine, contextflow
from repro.lint.callgraph import Program
from repro.lint.cli import main as lint_main
from repro.lint.rules.base import annotate_parents
from repro.lint.contextflow import ASYNC_CONTEXTS, THREAD_CONTEXTS, ContextModel

CONC_RULES = "CONC002,CONC003,CONC004,CONC005"

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


def lint_tree(tmp_path: Path, files: dict[str, str], rules: str = CONC_RULES):
    root = write_tree(tmp_path, files)
    return run_cli("--rules", rules, str(root))


def findings_json(tmp_path: Path, files: dict[str, str], rules: str = CONC_RULES):
    root = write_tree(tmp_path, files)
    _, out, _ = run_cli("--rules", rules, "--json", str(root))
    return json.loads(out)


def by_rule(tmp_path: Path, files: dict[str, str], rules: str = CONC_RULES):
    return findings_json(tmp_path, files, rules)["summary"]["by_rule"]


def build_model(sources: dict[str, str]) -> ContextModel:
    parsed = []
    for rel, source in sorted(sources.items()):
        tree = ast.parse(source)
        annotate_parents(tree)
        parsed.append((rel, tree, source.splitlines()))
    program = Program.build(parsed)
    return ContextModel(program)


# ----------------------------------------------------------------------
# The concurrency-context model.
# ----------------------------------------------------------------------


class TestConcurrencyModel:
    def test_thread_target_and_its_callees_get_thread_context(self):
        model = build_model({
            "src/repro/core/app.py": (
                "import threading\n"
                "def helper():\n"
                "    return 1\n"
                "def worker():\n"
                "    return helper()\n"
                "def launch():\n"
                "    t = threading.Thread(target=worker, daemon=True)\n"
                "    t.start()\n"
                "    t.join()\n"
            ),
        })
        assert model.contexts_of("repro.core.app.worker") == {"thread"}
        assert model.contexts_of("repro.core.app.helper") == {"thread"}
        assert model.contexts_of("repro.core.app.launch") == frozenset()

    def test_signal_handler_context_via_bound_method(self):
        model = build_model({
            "src/repro/core/app.py": (
                "import signal\n"
                "class H:\n"
                "    def _mark(self):\n"
                "        self.hit = True\n"
                "    def _handle(self, signum, frame):\n"
                "        self._mark()\n"
                "    def install(self):\n"
                "        signal.signal(signal.SIGINT, self._handle)\n"
            ),
        })
        assert model.contexts_of("repro.core.app.H._handle") == {"signal"}
        assert model.contexts_of("repro.core.app.H._mark") == {"signal"}
        assert model.contexts_of("repro.core.app.H.install") == frozenset()

    def test_thread_pool_submission_counts_process_pool_does_not(self):
        model = build_model({
            "src/repro/core/app.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "from concurrent.futures import ThreadPoolExecutor\n"
                "def shared():\n"
                "    return 1\n"
                "def isolated():\n"
                "    return 2\n"
                "def launch():\n"
                "    with ThreadPoolExecutor() as tp:\n"
                "        tp.submit(shared)\n"
                "    with ProcessPoolExecutor() as pp:\n"
                "        pp.submit(isolated)\n"
            ),
        })
        assert model.contexts_of("repro.core.app.shared") == {"thread"}
        # Process-pool workers share no memory: not a thread context.
        assert model.contexts_of("repro.core.app.isolated") == frozenset()

    def test_unresolvable_target_contributes_no_context(self):
        model = build_model({
            "src/repro/core/app.py": (
                "import threading\n"
                "def maybe_worker():\n"
                "    return 1\n"
                "def launch(fn):\n"
                "    threading.Thread(target=fn, daemon=True).start()\n"
            ),
        })
        assert model.contexts_of("repro.core.app.maybe_worker") == frozenset()

    def test_nested_def_target_seeds_reachability(self):
        model = build_model({
            "src/repro/core/app.py": (
                "import threading\n"
                "def helper():\n"
                "    return 1\n"
                "def launch():\n"
                "    def work():\n"
                "        helper()\n"
                "    t = threading.Thread(target=work, daemon=True)\n"
                "    t.start()\n"
                "    t.join()\n"
            ),
        })
        assert model.contexts_of("repro.core.app.helper") == {"thread"}


# ----------------------------------------------------------------------
# Both families in one program: thread/signal for CONC, loop/executor
# for ASYNC, never merged.
# ----------------------------------------------------------------------

_MIXED_REL = "src/repro/svc/app.py"

_MIXED_APP = (
    "import asyncio\n"
    "import signal\n"
    "import threading\n"
    "class Service:\n"
    "    def run(self):\n"
    "        return 1\n"
    "class App:\n"
    "    def __init__(self):\n"
    "        self.svc = Service()\n"
    "        self.hits = 0\n"
    "        self.served = 0\n"
    "    def worker(self):\n"
    "        self.hits += 1\n"
    "    def report(self):\n"
    "        return self.hits\n"
    "    def on_signal(self, signum, frame):\n"
    "        self.stopping = True\n"
    "    def offload(self):\n"
    "        self.served += 1\n"
    "    async def serve(self):\n"
    "        loop = asyncio.get_running_loop()\n"
    "        await loop.run_in_executor(None, self.offload)\n"
    "        return self.served\n"
    "    def start(self):\n"
    "        threading.Thread(target=self.worker, daemon=True).start()\n"
    "        threading.Thread(target=self.svc.run, daemon=True).start()\n"
    "        signal.signal(signal.SIGTERM, self.on_signal)\n"
    "def main():\n"
    "    app = App()\n"
    "    app.start()\n"
    "    asyncio.run(app.serve())\n"
)


def _mixed_line(text: str) -> int:
    return next(
        n for n, line in enumerate(_MIXED_APP.splitlines(), 1) if text in line
    )


class TestCrossFamilyContexts:
    def test_contexts_of_each_function(self):
        model = build_model({_MIXED_REL: _MIXED_APP})
        app = "repro.svc.app.App"
        assert model.contexts_of(f"{app}.worker") == {"thread"}
        assert model.contexts_of(f"{app}.on_signal") == {"signal"}
        assert model.contexts_of(f"{app}.serve") == {"loop"}
        assert model.contexts_of(f"{app}.offload") == {"executor"}
        for main_only in (f"{app}.start", f"{app}.report", "repro.svc.app.main"):
            assert model.contexts_of(main_only) == frozenset(), main_only

    def test_each_family_sees_only_its_own_contexts(self):
        model = build_model({_MIXED_REL: _MIXED_APP})
        app = "repro.svc.app.App"
        assert model.contexts_of(f"{app}.worker", THREAD_CONTEXTS) == {"thread"}
        assert model.contexts_of(f"{app}.offload", THREAD_CONTEXTS) == frozenset()
        assert model.contexts_of(f"{app}.serve", THREAD_CONTEXTS) == frozenset()
        assert model.contexts_of(f"{app}.offload", ASYNC_CONTEXTS) == {"executor"}
        assert model.contexts_of(f"{app}.worker", ASYNC_CONTEXTS) == frozenset()
        assert model.contexts_of(f"{app}.on_signal", ASYNC_CONTEXTS) == frozenset()

    def test_each_pair_is_flagged_by_its_own_family_rule_only(self, tmp_path):
        payload = findings_json(
            tmp_path, {_MIXED_REL: _MIXED_APP}, rules="CONC002,ASYNC003"
        )
        flagged = [(f["rule"], f["line"]) for f in payload["findings"]]
        # thread-vs-main is CONC002's; loop-vs-executor is ASYNC003's.
        assert flagged == [
            ("CONC002", _mixed_line("self.hits += 1")),
            ("ASYNC003", _mixed_line("self.served += 1")),
        ]
        conc, asyn = payload["findings"]
        assert "{thread}" in conc["message"]
        assert "{main only}" in conc["message"]
        assert "{executor}" in asyn["message"]
        assert "{loop}" in asyn["message"]

    def test_typed_attribute_thread_target_resolves(self):
        # Thread(target=self.svc.run), with self.svc = Service() in
        # __init__: the resolver follows the typed attribute chain.
        model = build_model({_MIXED_REL: _MIXED_APP})
        assert model.contexts_of("repro.svc.app.Service.run") == {"thread"}


# ----------------------------------------------------------------------
# CONC002 — cross-context shared state.
# ----------------------------------------------------------------------

_RACY_CLASS = (
    "import threading\n"
    "class Collector:\n"
    "    def __init__(self):\n"
    "        self.items = []\n"
    "    def worker(self):\n"
    "        self.items.append(1)\n"
    "    def drain(self):\n"
    "        return len(self.items)\n"
    "def launch():\n"
    "    c = Collector()\n"
    "    t = threading.Thread(target=c.worker, daemon=True)\n"
    "    t.start()\n"
    "    t.join()\n"
    "    return c.drain()\n"
)


class TestSharedStateRule:
    def test_cross_context_append_flags(self, tmp_path):
        counts = by_rule(tmp_path, {"src/repro/core/app.py": _RACY_CLASS})
        assert counts.get("CONC002") == 1

    def test_class_facts_computed_once_for_conc002_and_async003(self, monkeypatch):
        """Both shared-state rules read one analysis per class."""
        calls: Counter = Counter()
        analyze = contextflow.analyze_class

        def counting(program, module, cls):
            calls[id(cls.node)] += 1
            return analyze(program, module, cls)

        monkeypatch.setattr(contextflow, "analyze_class", counting)
        result = LintEngine().run(
            [REPO_ROOT / "src/repro/core", REPO_ROOT / "src/repro/uarch"]
        )
        assert result.clean
        assert calls and max(calls.values()) == 1

    def test_lock_guard_silences(self, tmp_path):
        guarded = _RACY_CLASS.replace(
            "        self.items = []\n",
            "        self.items = []\n"
            "        self._lock = threading.Lock()\n",
        ).replace(
            "        self.items.append(1)\n",
            "        with self._lock:\n"
            "            self.items.append(1)\n",
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/core/app.py": guarded})
        assert code == 0

    def test_event_attribute_is_exempt(self, tmp_path):
        source = _RACY_CLASS.replace(
            "        self.items = []\n",
            "        self.items = threading.Event()\n",
        ).replace(
            "        self.items.append(1)\n",
            "        self.items.set()\n",
        ).replace(
            "        return len(self.items)\n",
            "        return self.items.is_set()\n",
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/core/app.py": source})
        assert code == 0

    def test_plain_store_is_atomic_flag_discipline(self, tmp_path):
        source = _RACY_CLASS.replace(
            "        self.items.append(1)\n",
            "        self.items = [1]\n",
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/core/app.py": source})
        assert code == 0

    def test_same_context_pair_does_not_flag(self, tmp_path):
        source = (
            "import threading\n"
            "class Collector:\n"
            "    def __init__(self):\n"
            "        self.items = []\n"
            "    def worker(self):\n"
            "        self.items.append(1)\n"
            "        return len(self.items)\n"
            "def launch():\n"
            "    c = Collector()\n"
            "    t = threading.Thread(target=c.worker, daemon=True)\n"
            "    t.start()\n"
            "    t.join()\n"
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/core/app.py": source})
        assert code == 0

    def test_suppression_with_reason_waives(self, tmp_path):
        suppressed = _RACY_CLASS.replace(
            "        self.items.append(1)\n",
            "        # repro: allow-CONC002 single-producer queue; the"
            " drain only runs after join()\n"
            "        self.items.append(1)\n",
        )
        payload = findings_json(
            tmp_path, {"src/repro/core/app.py": suppressed}
        )
        assert payload["summary"]["by_rule"] == {}
        assert payload["summary"]["suppressed"] == 1


# ----------------------------------------------------------------------
# CONC003 — signal-handler safety.
# ----------------------------------------------------------------------


class TestSignalSafetyRule:
    def test_io_sleep_logging_and_locks_flag(self, tmp_path):
        source = (
            "import logging\n"
            "import signal\n"
            "import time\n"
            "_LOG = logging.getLogger(__name__)\n"
            "def flush_state():\n"
            "    with open('state.json', 'w') as fh:\n"
            "        fh.write('{}')\n"
            "def handler(signum, frame):\n"
            "    time.sleep(0.1)\n"
            "    _LOG.warning('caught %s', signum)\n"
            "    flush_state()\n"
            "def install():\n"
            "    signal.signal(signal.SIGTERM, handler)\n"
        )
        counts = by_rule(tmp_path, {"src/repro/core/app.py": source})
        # sleep + logging in the handler, open() in the reached helper.
        assert counts.get("CONC003") == 3

    def test_flag_telemetry_and_raise_are_sanctioned(self, tmp_path):
        source = (
            "import signal\n"
            "from repro import telemetry\n"
            "from repro.errors import ShutdownRequested\n"
            "class H:\n"
            "    def _handle(self, signum, frame):\n"
            "        if getattr(self, 'armed', False):\n"
            "            raise ShutdownRequested('drain', signal_name='X')\n"
            "        self.armed = True\n"
            "        telemetry.count('signals')\n"
            "    def install(self):\n"
            "        signal.signal(signal.SIGINT, self._handle)\n"
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/core/app.py": source})
        assert code == 0

    def test_nested_def_handler_body_is_checked(self, tmp_path):
        source = (
            "import signal\n"
            "def install():\n"
            "    def handler(signum, frame):\n"
            "        print('caught')\n"
            "    signal.signal(signal.SIGINT, handler)\n"
        )
        counts = by_rule(tmp_path, {"src/repro/core/app.py": source})
        assert counts.get("CONC003") == 1

    def test_lock_acquisition_in_handler_flags(self, tmp_path):
        source = (
            "import signal\n"
            "import threading\n"
            "_state_lock = threading.Lock()\n"
            "def handler(signum, frame):\n"
            "    with _state_lock:\n"
            "        pass\n"
            "def install():\n"
            "    signal.signal(signal.SIGINT, handler)\n"
        )
        counts = by_rule(tmp_path, {"src/repro/core/app.py": source})
        assert counts.get("CONC003") == 1


# ----------------------------------------------------------------------
# CONC004 — lock discipline.
# ----------------------------------------------------------------------


class TestLockDisciplineRule:
    def test_bare_acquire_flags_with_statement_does_not(self, tmp_path):
        source = (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def bad(self):\n"
            "        self._lock.acquire()\n"
            "        self.n += 1\n"
            "        self._lock.release()\n"
            "    def good(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
        )
        payload = findings_json(tmp_path, {"src/repro/core/app.py": source})
        assert payload["summary"]["by_rule"].get("CONC004") == 1
        (finding,) = payload["findings"]
        assert "acquire" in finding["message"]

    def test_blocking_call_under_lock_flags(self, tmp_path):
        source = (
            "import threading\n"
            "import time\n"
            "_io_lock = threading.Lock()\n"
            "def slow():\n"
            "    with _io_lock:\n"
            "        time.sleep(1.0)\n"
        )
        counts = by_rule(tmp_path, {"src/repro/core/app.py": source})
        assert counts.get("CONC004") == 1

    def test_future_result_under_lock_flags(self, tmp_path):
        source = (
            "import threading\n"
            "def collect(pool, spec):\n"
            "    state_lock = threading.Lock()\n"
            "    future = pool.submit(spec)\n"
            "    with state_lock:\n"
            "        return future.result()\n"
        )
        counts = by_rule(tmp_path, {"src/repro/core/app.py": source})
        assert counts.get("CONC004") == 1

    def test_inverted_acquisition_order_flags_once(self, tmp_path):
        source = (
            "import threading\n"
            "a_lock = threading.Lock()\n"
            "b_lock = threading.Lock()\n"
            "def forward():\n"
            "    with a_lock:\n"
            "        with b_lock:\n"
            "            return 1\n"
            "def backward():\n"
            "    with b_lock:\n"
            "        with a_lock:\n"
            "            return 2\n"
        )
        counts = by_rule(tmp_path, {"src/repro/core/app.py": source})
        assert counts.get("CONC004") == 1

    def test_consistent_order_is_clean(self, tmp_path):
        source = (
            "import threading\n"
            "a_lock = threading.Lock()\n"
            "b_lock = threading.Lock()\n"
            "def one():\n"
            "    with a_lock:\n"
            "        with b_lock:\n"
            "            return 1\n"
            "def two():\n"
            "    with a_lock:\n"
            "        with b_lock:\n"
            "            return 2\n"
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/core/app.py": source})
        assert code == 0


# ----------------------------------------------------------------------
# CONC005 — thread lifecycle and the deadline clock.
# ----------------------------------------------------------------------


class TestThreadLifecycleRule:
    def test_unjoined_non_daemon_thread_flags(self, tmp_path):
        source = (
            "import threading\n"
            "def fire_and_forget(fn):\n"
            "    t = threading.Thread(target=fn)\n"
            "    t.start()\n"
        )
        counts = by_rule(tmp_path, {"src/repro/core/app.py": source})
        assert counts.get("CONC005") == 1

    def test_daemon_joined_or_daemonized_are_clean(self, tmp_path):
        source = (
            "import threading\n"
            "def a(fn):\n"
            "    threading.Thread(target=fn, daemon=True).start()\n"
            "def b(fn):\n"
            "    t = threading.Thread(target=fn)\n"
            "    t.start()\n"
            "    t.join()\n"
            "def c(fn):\n"
            "    t = threading.Thread(target=fn)\n"
            "    t.daemon = True\n"
            "    t.start()\n"
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/core/app.py": source})
        assert code == 0

    def test_wall_clock_in_deadline_statement_flags(self, tmp_path):
        source = (
            "import time\n"
            "def watch(deadline_seconds, started):\n"
            "    remaining = deadline_seconds - (time.time() - started)\n"
            "    return remaining\n"
        )
        payload = findings_json(tmp_path, {"src/repro/core/app.py": source})
        assert payload["summary"]["by_rule"].get("CONC005") == 1
        (finding,) = payload["findings"]
        assert finding["line"] == 3

    def test_wall_clock_via_local_into_deadline_arith_flags(self, tmp_path):
        source = (
            "import time\n"
            "def watch(timeout):\n"
            "    started = time.time()\n"
            "    while True:\n"
            "        if started + timeout < 10:\n"
            "            break\n"
        )
        payload = findings_json(tmp_path, {"src/repro/core/app.py": source})
        assert payload["summary"]["by_rule"].get("CONC005") == 1
        (finding,) = payload["findings"]
        assert finding["line"] == 3

    def test_wall_clock_without_deadline_names_is_det002_territory(
        self, tmp_path
    ):
        source = (
            "import time\n"
            "def stamp():\n"
            "    return {'wall': time.time()}\n"
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/core/app.py": source})
        assert code == 0


# ----------------------------------------------------------------------
# Mutation checks against the real supervise.py.
# ----------------------------------------------------------------------

_SUPERVISE_REL = "src/repro/core/supervise.py"
_MONOTONIC_LINE = (
    "        remaining = deadline_seconds - "
    "(telemetry.tick_seconds() - started)"
)


class TestSuperviseMutation:
    def _real_source(self) -> str:
        return (REPO_ROOT / _SUPERVISE_REL).read_text()

    def test_shipped_supervise_is_clean(self, tmp_path):
        code, _, _ = lint_tree(
            tmp_path, {_SUPERVISE_REL: self._real_source()}
        )
        assert code == 0

    def test_wall_clock_mutation_flags_the_exact_line(self, tmp_path):
        source = self._real_source()
        assert _MONOTONIC_LINE in source
        mutated = source.replace(
            _MONOTONIC_LINE,
            _MONOTONIC_LINE.replace("tick_seconds", "wall_seconds"),
        )
        expected_line = (
            mutated.splitlines().index(
                _MONOTONIC_LINE.replace("tick_seconds", "wall_seconds")
            )
            + 1
        )
        payload = findings_json(
            tmp_path, {_SUPERVISE_REL: mutated}, rules="CONC005"
        )
        assert payload["summary"]["by_rule"].get("CONC005") == 1
        (finding,) = payload["findings"]
        assert finding["line"] == expected_line
        assert "wall_seconds" in finding["message"]

    def test_started_stamp_mutation_flags_via_dataflow(self, tmp_path):
        source = self._real_source()
        original = "    started = telemetry.tick_seconds()"
        assert original in source
        mutated = source.replace(
            original, "    started = telemetry.wall_seconds()"
        )
        expected_line = (
            mutated.splitlines().index(
                "    started = telemetry.wall_seconds()"
            )
            + 1
        )
        payload = findings_json(
            tmp_path, {_SUPERVISE_REL: mutated}, rules="CONC005"
        )
        assert payload["summary"]["by_rule"].get("CONC005") == 1
        (finding,) = payload["findings"]
        assert finding["line"] == expected_line
