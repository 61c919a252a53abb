"""Determinism linter and runtime sanitizer (``repro.lint``).

Covers each DET rule against a fixture corpus of good/bad snippets,
suppression and baseline handling, the ``--json`` schema, CLI exit
codes, and the runtime traps of :class:`DeterminismSanitizer`.
"""

from __future__ import annotations

import glob as glob_module
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import DeterminismViolation, LintUsageError
from repro.lint import Baseline, DeterminismSanitizer, LintEngine
from repro.lint.cli import main as lint_main
from repro.lint.engine import parse_suppressions
from repro.lint.rules import all_rules, get_rules
from repro.lint.sanitizer import sanitize_requested

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path: Path, source: str, rel: str = "src/repro/machine/mod.py"):
    """Lint one in-memory snippet placed at a scope-relevant path."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    engine = LintEngine()
    active, suppressed = engine.lint_file(target)
    return active, suppressed


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# Rule corpus: bad snippets must flag, good twins must not.
# ----------------------------------------------------------------------


class TestDET001Randomness:
    def test_global_random_functions_flagged(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import random\n"
            "def f():\n"
            "    return random.random() + random.randint(0, 3)\n",
        )
        assert rules_of(active) == ["DET001", "DET001"]
        assert active[0].line == 3

    def test_aliased_and_from_imports_resolved(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import random as rnd\n"
            "from random import shuffle\n"
            "def f(xs):\n"
            "    rnd.seed(1)\n"
            "    shuffle(xs)\n",
        )
        assert rules_of(active) == ["DET001", "DET001"]

    def test_numpy_global_state_flagged_seeded_generator_ok(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def f():\n"
            "    np.random.seed(0)\n"
            "    good = np.random.default_rng(42)\n"
            "    bad = np.random.default_rng()\n"
            "    return good, bad\n",
        )
        assert rules_of(active) == ["DET001", "DET001"]
        assert {f.line for f in active} == {3, 5}

    def test_entropy_sources_flagged(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import os, uuid\n"
            "def f():\n"
            "    return os.urandom(8), uuid.uuid4()\n",
            rel="src/repro/core/mod.py",
        )
        assert rules_of(active) == ["DET001", "DET001"]

    def test_sanctioned_rng_module_exempt(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import random\nx = random.random()\n",
            rel="src/repro/rng.py",
        )
        assert "DET001" not in rules_of(active)

    def test_repro_stream_not_flagged(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "from repro.rng import RandomStream\n"
            "def f():\n"
            "    return RandomStream(7).fork('x').uniform()\n",
        )
        assert active == []


class TestDET002WallClock:
    def test_clock_reads_flagged(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import time\n"
            "from datetime import datetime\n"
            "def f():\n"
            "    return time.time(), time.monotonic(), datetime.now()\n",
        )
        assert rules_of(active) == ["DET002", "DET002", "DET002"]

    def test_sleep_not_flagged(self, tmp_path):
        active, _ = lint_source(
            tmp_path, "import time\ndef f():\n    time.sleep(0.1)\n"
        )
        assert active == []

    def test_telemetry_module_exempt(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import time\ndef now():\n    return time.time()\n",
            rel="src/repro/telemetry.py",
        )
        assert active == []


class TestDET003Iteration:
    def test_unsorted_scans_flagged(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import os, glob\n"
            "from pathlib import Path\n"
            "def f(p):\n"
            "    a = os.listdir(p)\n"
            "    b = glob.glob('*.json')\n"
            "    c = list(Path(p).iterdir())\n"
            "    return a, b, c\n",
        )
        assert rules_of(active) == ["DET003", "DET003", "DET003"]

    def test_sorted_wrapped_scans_ok(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import os, glob\n"
            "from pathlib import Path\n"
            "def f(p):\n"
            "    a = sorted(os.listdir(p))\n"
            "    b = sorted(glob.glob('*.json'))\n"
            "    c = sorted(Path(p).iterdir())\n"
            "    return a, b, c\n",
        )
        assert active == []

    def test_set_iteration_flagged_sorted_ok(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "def f(xs):\n"
            "    for x in set(xs):\n"
            "        pass\n"
            "    for y in sorted(set(xs)):\n"
            "        pass\n"
            "    return [z for z in {1, 2, 3}]\n",
        )
        assert rules_of(active) == ["DET003", "DET003"]
        assert {f.line for f in active} == {2, 6}


class TestDET004MutableState:
    def test_mutable_default_flagged_in_core_scope(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "def f(xs=[]):\n    return xs\n",
            rel="src/repro/uarch/mod.py",
        )
        assert rules_of(active) == ["DET004"]

    def test_module_level_mutable_flagged(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "cache = {}\nTABLE = {1: 2}\n__all__ = ['f']\n",
            rel="src/repro/core/mod.py",
        )
        assert rules_of(active) == ["DET004"]
        assert "cache" in active[0].message

    def test_out_of_scope_module_not_checked(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "def f(xs=[]):\n    return xs\n",
            rel="src/repro/harness/mod.py",
        )
        assert active == []


class TestDET005Env:
    def test_env_read_flagged_in_campaign_path(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import os\n"
            "def f():\n"
            "    return os.environ.get('X'), os.getenv('Y')\n",
            rel="src/repro/core/mod.py",
        )
        assert rules_of(active) == ["DET005", "DET005"]

    def test_cli_config_surface_exempt(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import os\n"
            "def f():\n"
            "    return os.environ.get('REPRO_SCALE')\n",
            rel="src/repro/cli.py",
        )
        assert active == []


class TestDET006JsonOrdering:
    def test_unsorted_dump_flagged_in_persistence(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import json\n"
            "def f(payload):\n"
            "    return json.dumps(payload)\n",
            rel="src/repro/persistence.py",
        )
        assert rules_of(active) == ["DET006"]

    def test_sorted_dump_ok(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import json\n"
            "def f(payload):\n"
            "    return json.dumps(payload, sort_keys=True)\n",
            rel="src/repro/store.py",
        )
        assert active == []

    def test_out_of_scope_file_exempt(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import json\nx = json.dumps({'a': 1})\n",
            rel="src/repro/harness/fig1.py",
        )
        assert active == []


# ----------------------------------------------------------------------
# Suppressions.
# ----------------------------------------------------------------------


class TestSuppressions:
    def test_inline_suppression_with_reason(self, tmp_path):
        active, suppressed = lint_source(
            tmp_path,
            "import random\n"
            "x = random.random()  # repro: allow-DET001 seeding example in docs\n",
        )
        assert active == []
        assert len(suppressed) == 1
        assert suppressed[0].suppress_reason == "seeding example in docs"

    def test_comment_line_above_covers_next_line(self, tmp_path):
        active, suppressed = lint_source(
            tmp_path,
            "import random\n"
            "# repro: allow-DET001 fixture corpus needs a real hazard\n"
            "x = random.random()\n",
        )
        assert active == []
        assert len(suppressed) == 1

    def test_suppression_without_reason_does_not_suppress(self, tmp_path):
        active, suppressed = lint_source(
            tmp_path,
            "import random\nx = random.random()  # repro: allow-DET001\n",
        )
        assert suppressed == []
        assert len(active) == 1
        assert "missing reason" in active[0].message

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        active, _ = lint_source(
            tmp_path,
            "import random\n"
            "x = random.random()  # repro: allow-DET002 wrong rule\n",
        )
        assert rules_of(active) == ["DET001"]

    def test_parse_suppressions_maps_lines(self):
        lines = [
            "x = 1  # repro: allow-DET001 inline",
            "# repro: allow-DET003 block",
            "y = 2",
        ]
        by_line = parse_suppressions(lines)
        assert by_line[1][0].rule == "DET001"
        assert by_line[3][0].rule == "DET003"


# ----------------------------------------------------------------------
# Baseline handling.
# ----------------------------------------------------------------------


class TestBaseline:
    BAD = "import random\nx = random.random()\n"

    def test_baseline_grandfathers_then_catches_new(self, tmp_path):
        mod = tmp_path / "src/repro/machine/mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(self.BAD)
        engine = LintEngine()
        result = engine.run([tmp_path / "src"])
        assert len(result.findings) == 1
        baseline_file = tmp_path / "baseline.json"
        Baseline.write(baseline_file, result.findings)

        baseline = Baseline.load(baseline_file)
        clean = engine.run([tmp_path / "src"], baseline=baseline)
        assert clean.clean
        assert len(clean.baselined) == 1

        # A second, new hazard is not grandfathered.
        mod.write_text(self.BAD + "y = random.randint(0, 9)\n")
        again = engine.run([tmp_path / "src"], baseline=baseline)
        assert len(again.findings) == 1
        assert "randint" in again.findings[0].message

    def test_fingerprint_survives_line_drift(self, tmp_path):
        mod = tmp_path / "src/repro/machine/mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(self.BAD)
        engine = LintEngine()
        baseline = Baseline.from_findings(engine.run([tmp_path / "src"]).findings)
        # Prepend unrelated lines: the finding moves but stays baselined.
        mod.write_text("import os\n\n\n" + self.BAD)
        result = engine.run([tmp_path / "src"], baseline=baseline)
        assert result.clean

    def test_duplicate_hazards_tracked_by_count(self, tmp_path):
        mod = tmp_path / "src/repro/machine/mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import random\nx = random.random()\nx = random.random()\n")
        engine = LintEngine()
        findings = engine.run([tmp_path / "src"]).findings
        assert len(findings) == 2
        baseline = Baseline.from_findings(findings[:1])
        result = engine.run([tmp_path / "src"], baseline=baseline)
        assert len(result.findings) == 1  # one grandfathered, one new

    def test_missing_baseline_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "nope.json").counts == {}

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text("{not json")
        with pytest.raises(LintUsageError):
            Baseline.load(bad)


# ----------------------------------------------------------------------
# Engine behaviour.
# ----------------------------------------------------------------------


class TestEngine:
    def test_discovery_is_sorted_and_deduplicated(self, tmp_path):
        for name in ("b.py", "a.py", "c/d.py"):
            target = tmp_path / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text("x = 1\n")
        files = LintEngine.discover([tmp_path, tmp_path / "a.py"])
        names = [f.relative_to(tmp_path).as_posix() for f in files]
        assert names == ["a.py", "b.py", "c/d.py"]

    def test_missing_path_raises_usage_error(self, tmp_path):
        with pytest.raises(LintUsageError):
            LintEngine.discover([tmp_path / "missing"])

    def test_syntax_error_becomes_det000_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(:\n")
        active, _ = LintEngine().lint_file(bad)
        assert rules_of(active) == ["DET000"]

    def test_rule_subset_selection(self, tmp_path):
        active, _ = lint_source(tmp_path, "import random\nx = random.random()\n")
        assert rules_of(active) == ["DET001"]
        engine = LintEngine(rules=get_rules(["DET002"]))
        mod = tmp_path / "src/repro/machine/mod.py"
        only_clock, _ = engine.lint_file(mod)
        assert only_clock == []

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(LintUsageError, match="valid rule ids"):
            get_rules(["DET999"])

    def test_shipped_tree_is_clean_with_no_baseline(self):
        """The acceptance invariant: src/ lints clean with no baseline."""
        engine = LintEngine()
        result = engine.run([REPO_ROOT / "src"])
        assert result.clean, [f.location() for f in result.findings]

    def test_shipped_examples_are_clean_with_no_baseline(self):
        """examples/ is in lint scope and carries no grandfathered debt."""
        engine = LintEngine()
        result = engine.run([REPO_ROOT / "examples"])
        assert result.clean, [f.location() for f in result.findings]

    def test_no_baseline_file_is_shipped(self):
        """The grandfathered-findings file is gone: debt stays at zero."""
        assert not (REPO_ROOT / "repro-lint-baseline.json").exists()

    def test_ci_lint_matrix_covers_every_rule_once(self):
        """The CI ``lint`` passes partition the registered rule set."""
        workflow = (REPO_ROOT / ".github/workflows/ci.yml").read_text()
        listed = [
            rule_id
            for group in re.findall(r'^\s*rules:\s*"([^"]*)"', workflow, re.M)
            for rule_id in group.split(",")
        ]
        assert listed, "no `rules:` lines found in ci.yml"
        assert len(listed) == len(set(listed)), sorted(listed)
        assert set(listed) == {rule.id for rule in all_rules()}


# ----------------------------------------------------------------------
# Whole-program rules: true-positive / true-negative fixture trees.
# ----------------------------------------------------------------------


def lint_tree(tmp_path: Path, files: dict[str, str], rules=None):
    """Write a fixture tree and run the engine (program rules included)."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    engine = LintEngine(rules=get_rules(rules) if rules is not None else None)
    return engine.run([tmp_path])


class TestSEED001Provenance:
    def test_dropped_seed_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/machine/build.py":
                "def build_machine(seed):\n"
                "    table = [0] * 4\n"
                "    return table\n",
        }, rules=["SEED001"])
        assert rules_of(result.findings) == ["SEED001"]
        assert "dropped" in result.findings[0].message

    def test_underscore_prefix_declares_unused(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/machine/build.py":
                "def build_machine(_seed):\n"
                "    return [0] * 4\n",
        }, rules=["SEED001"])
        assert result.clean

    def test_constant_rng_beside_ignored_seed_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/machine/streams.py":
                "from repro.rng import RandomStream\n"
                "def make(seed):\n"
                "    stream = RandomStream(42)\n"
                "    return stream, seed\n",
        }, rules=["SEED001"])
        assert rules_of(result.findings) == ["SEED001"]
        assert "constant" in result.findings[0].message

    def test_shadowed_seed_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/machine/streams.py":
                "from repro.rng import RandomStream\n"
                "def make(seed):\n"
                "    seed = 7\n"
                "    return RandomStream(seed)\n",
        }, rules=["SEED001"])
        assert rules_of(result.findings) == ["SEED001"]
        assert "reassigned" in result.findings[0].message

    def test_threaded_seed_chain_is_clean(self, tmp_path):
        """True negative: the seed flows caller -> callee -> RNG."""
        result = lint_tree(tmp_path, {
            "src/repro/machine/worker.py":
                "from repro.rng import RandomStream\n"
                "def simulate(run_seed):\n"
                "    return RandomStream(run_seed)\n",
            "src/repro/machine/driver.py":
                "from repro.machine.worker import simulate\n"
                "from repro.rng import derive_seed\n"
                "def drive(seed):\n"
                "    return simulate(derive_seed(seed, 'worker'))\n",
        }, rules=["SEED001"])
        assert result.clean, [f.message for f in result.findings]

    def test_breaking_seed_threading_is_caught_end_to_end(self, tmp_path):
        """The acceptance check: severing an inter-module seed chain

        that lints clean must produce a SEED001 finding at the exact
        call site where the constant replaced the seed.
        """
        good = {
            "src/repro/machine/worker.py":
                "from repro.rng import RandomStream\n"
                "def simulate(run_seed):\n"
                "    return RandomStream(run_seed)\n",
            "src/repro/machine/driver.py":
                "from repro.machine.worker import simulate\n"
                "from repro.rng import derive_seed\n"
                "def drive(seed):\n"
                "    return simulate(run_seed=derive_seed(seed, 'w'))\n",
        }
        assert lint_tree(tmp_path / "good", good, rules=["SEED001"]).clean
        broken = dict(good)
        broken["src/repro/machine/driver.py"] = broken[
            "src/repro/machine/driver.py"
        ].replace("run_seed=derive_seed(seed, 'w')", "run_seed=1234")
        result = lint_tree(tmp_path / "broken", broken, rules=["SEED001"])
        # Severing the chain yields two diagnoses: the call site passes
        # a constant, and drive()'s own seed is now dropped entirely.
        assert set(rules_of(result.findings)) == {"SEED001"}
        threaded = [f for f in result.findings if "not threaded" in f.message]
        assert len(threaded) == 1
        assert threaded[0].path.endswith("driver.py")
        assert threaded[0].line == 4
        assert any("dropped" in f.message for f in result.findings)

    def test_sanctioned_root_seed_constant_is_clean(self, tmp_path):
        """Published MASTER_SEED-style roots are provenance, not hazards."""
        result = lint_tree(tmp_path, {
            "src/repro/machine/roots.py":
                "from repro.rng import RandomStream, derive_seed\n"
                "MASTER_SEED = 0x5EED\n"
                "def entry(name, seed):\n"
                "    return RandomStream(derive_seed(seed, name))\n"
                "def default_entry(name):\n"
                "    return RandomStream(derive_seed(MASTER_SEED, name))\n",
        }, rules=["SEED001"])
        assert result.clean, [f.message for f in result.findings]


class TestPURE001ObservationPurity:
    OBSERVER = (
        "from repro.machine.engine import run_machine\n"
        "class Interferometer:\n"
        "    def observe(self, spec):\n"
        "        return run_machine(spec)\n"
    )

    def test_print_on_observation_path_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/interf.py": self.OBSERVER,
            "src/repro/machine/engine.py":
                "def run_machine(spec):\n"
                "    print('measuring', spec)\n"
                "    return 0\n",
        }, rules=["PURE001"])
        assert rules_of(result.findings) == ["PURE001"]
        assert "print" in result.findings[0].message

    def test_clock_read_on_observation_path_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/interf.py": self.OBSERVER,
            "src/repro/machine/engine.py":
                "import time\n"
                "def run_machine(spec):\n"
                "    started = time.perf_counter()\n"
                "    return started\n",
        }, rules=["PURE001"])
        assert rules_of(result.findings) == ["PURE001"]

    def test_module_state_mutation_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/interf.py": self.OBSERVER,
            "src/repro/machine/engine.py":
                "_CACHE = {}\n"
                "def run_machine(spec):\n"
                "    _CACHE.update({spec: 1})\n"
                "    return 0\n",
        }, rules=["PURE001"])
        assert rules_of(result.findings) == ["PURE001"]
        assert "_CACHE" in result.findings[0].message

    def test_pure_observation_path_is_clean(self, tmp_path):
        """True negative: arithmetic-only measurement code."""
        result = lint_tree(tmp_path, {
            "src/repro/core/interf.py": self.OBSERVER,
            "src/repro/machine/engine.py":
                "def run_machine(spec):\n"
                "    return sum(ord(c) for c in spec)\n",
        }, rules=["PURE001"])
        assert result.clean, [f.message for f in result.findings]

    def test_impurity_off_the_observation_path_is_clean(self, tmp_path):
        """I/O in measurement-core code observe() never reaches is fine
        for PURE001 (other rules police it on their own terms)."""
        result = lint_tree(tmp_path, {
            "src/repro/core/interf.py": self.OBSERVER,
            "src/repro/machine/engine.py":
                "def run_machine(spec):\n"
                "    return 0\n"
                "def debug_dump(spec):\n"
                "    print(spec)\n",
        }, rules=["PURE001"])
        assert result.clean, [f.message for f in result.findings]


class TestEXC001ExceptionContract:
    def test_builtin_raise_on_campaign_path_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/runner.py":
                "def run(x):\n"
                "    if x < 0:\n"
                "        raise ValueError('negative')\n"
                "    return x\n",
        }, rules=["EXC001"])
        assert rules_of(result.findings) == ["EXC001"]
        assert "ValueError" in result.findings[0].message

    def test_repro_errors_raise_is_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/runner.py":
                "from repro.errors import ConfigurationError\n"
                "def run(x):\n"
                "    if x < 0:\n"
                "        raise ConfigurationError('negative')\n"
                "    return x\n",
        }, rules=["EXC001"])
        assert result.clean, [f.message for f in result.findings]

    def test_local_subclass_closure_is_clean(self, tmp_path):
        """A class transitively deriving from ReproError is in-tree,
        even when the subclass lives in another scanned module."""
        result = lint_tree(tmp_path, {
            "src/repro/core/local_errors.py":
                "from repro.errors import ReproError\n"
                "class PipelineError(ReproError):\n"
                "    pass\n",
            "src/repro/core/runner.py":
                "from repro.core.local_errors import PipelineError\n"
                "class StageError(PipelineError):\n"
                "    pass\n"
                "def run(x):\n"
                "    if x < 0:\n"
                "        raise StageError('negative')\n"
                "    return x\n",
        }, rules=["EXC001"])
        assert result.clean, [f.message for f in result.findings]

    def test_out_of_tree_class_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/runner.py":
                "class LocalError(Exception):\n"
                "    pass\n"
                "def run(x):\n"
                "    raise LocalError('boom')\n",
        }, rules=["EXC001"])
        assert rules_of(result.findings) == ["EXC001"]
        assert "LocalError" in result.findings[0].message

    def test_assertion_and_not_implemented_allowed(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/runner.py":
                "def run(x):\n"
                "    if x is None:\n"
                "        raise AssertionError('invariant')\n"
                "    raise NotImplementedError\n",
        }, rules=["EXC001"])
        assert result.clean, [f.message for f in result.findings]

    def test_out_of_scope_code_unpoliced(self, tmp_path):
        """True negative: the contract binds campaign-path code only."""
        result = lint_tree(tmp_path, {
            "src/repro/lint/checker.py":
                "def run(x):\n"
                "    raise ValueError('fine here')\n",
        }, rules=["EXC001"])
        assert result.clean, [f.message for f in result.findings]


class TestCONC001WorkerBoundary:
    def test_lambda_callable_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/parallel.py":
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def run_all(specs):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        futures = [pool.submit(lambda s: s, spec)\n"
                "                   for spec in specs]\n"
                "    return futures\n",
        }, rules=["CONC001"])
        assert rules_of(result.findings) == ["CONC001"]
        assert "lambda" in result.findings[0].message

    def test_bound_method_callable_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/parallel.py":
                "from concurrent.futures import ProcessPoolExecutor\n"
                "class Runner:\n"
                "    def go(self, specs):\n"
                "        with ProcessPoolExecutor() as pool:\n"
                "            return [pool.submit(self.work, s) for s in specs]\n"
                "    def work(self, s):\n"
                "        return s\n",
        }, rules=["CONC001"])
        assert rules_of(result.findings) == ["CONC001"]
        assert "bound method" in result.findings[0].message

    def test_live_rng_argument_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/parallel.py":
                "from concurrent.futures import ProcessPoolExecutor\n"
                "from repro.rng import RandomStream\n"
                "def work(stream):\n"
                "    return stream\n"
                "def run_all():\n"
                "    stream = RandomStream(7)\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return pool.submit(work, stream)\n",
        }, rules=["CONC001"])
        assert rules_of(result.findings) == ["CONC001"]
        assert "RNG" in result.findings[0].message

    def test_mutable_dataclass_argument_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/parallel.py":
                "from concurrent.futures import ProcessPoolExecutor\n"
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class Spec:\n"
                "    x: int = 0\n"
                "def work(spec):\n"
                "    return spec.x\n"
                "def run_all():\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return pool.submit(work, Spec())\n",
        }, rules=["CONC001"])
        assert rules_of(result.findings) == ["CONC001"]
        assert "frozen" in result.findings[0].hint or "frozen" in result.findings[0].message

    def test_frozen_spec_to_module_function_is_clean(self, tmp_path):
        """True negative: the park.py idiom — a frozen dataclass spec
        submitted to a module-level worker function."""
        result = lint_tree(tmp_path, {
            "src/repro/core/parallel.py":
                "from concurrent.futures import ProcessPoolExecutor\n"
                "from dataclasses import dataclass\n"
                "@dataclass(frozen=True)\n"
                "class Spec:\n"
                "    x: int = 0\n"
                "def work(spec):\n"
                "    return spec.x\n"
                "def run_all(xs):\n"
                "    specs = [Spec(x) for x in xs]\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        futures = [pool.submit(work, s) for s in specs]\n"
                "    return futures\n",
        }, rules=["CONC001"])
        assert result.clean, [f.message for f in result.findings]

    def test_thread_pool_is_exempt(self, tmp_path):
        """ThreadPoolExecutor pickles nothing; lambdas are legal there."""
        result = lint_tree(tmp_path, {
            "src/repro/core/parallel.py":
                "from concurrent.futures import ThreadPoolExecutor\n"
                "def run_all(specs):\n"
                "    with ThreadPoolExecutor() as pool:\n"
                "        return [pool.submit(lambda s: s, x) for x in specs]\n",
        }, rules=["CONC001"])
        assert result.clean, [f.message for f in result.findings]


class TestProgramRulePlumbing:
    def test_inline_suppression_waives_program_finding(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/machine/build.py":
                "# repro: allow-SEED001 interface parity with seeded allocators\n"
                "def build_machine(seed):\n"
                "    return [0] * 4\n",
        }, rules=["SEED001"])
        assert result.clean
        assert rules_of(result.suppressed) == ["SEED001"]

    def test_program_findings_respect_baseline(self, tmp_path):
        files = {
            "src/repro/machine/build.py":
                "def build_machine(seed):\n"
                "    return [0] * 4\n",
        }
        first = lint_tree(tmp_path, files, rules=["SEED001"])
        assert not first.clean
        baseline = Baseline.from_findings(first.findings)
        engine = LintEngine(rules=get_rules(["SEED001"]))
        second = engine.run([tmp_path], baseline=baseline)
        assert second.clean
        assert rules_of(second.baselined) == ["SEED001"]


# ----------------------------------------------------------------------
# CLI: exit codes and --json schema.
# ----------------------------------------------------------------------


class TestCli:
    def run_cli(self, *argv):
        import contextlib
        import io

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lint_main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def make_tree(self, tmp_path, source):
        mod = tmp_path / "src/repro/machine/mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(source)
        return tmp_path / "src"

    def test_exit_0_on_clean_tree(self, tmp_path):
        root = self.make_tree(tmp_path, "x = 1\n")
        code, out, _ = self.run_cli(str(root))
        assert code == 0
        assert "0 finding(s)" in out

    def test_exit_1_on_findings(self, tmp_path):
        root = self.make_tree(tmp_path, "import random\nx = random.random()\n")
        code, out, _ = self.run_cli(str(root))
        assert code == 1
        assert "DET001" in out

    def test_exit_2_on_bad_path_and_bad_rule(self, tmp_path):
        code, _, err = self.run_cli(str(tmp_path / "missing"))
        assert code == 2
        assert "error" in err
        code, _, err = self.run_cli("--rules", "DET999", str(tmp_path))
        assert code == 2

    def test_json_schema(self, tmp_path):
        root = self.make_tree(tmp_path, "import random\nx = random.random()\n")
        code, out, _ = self.run_cli(str(root), "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["version"] == 3
        assert payload["rule_set"] == [r.id for r in all_rules()]
        assert payload["clean"] is False
        assert payload["summary"]["findings"] == 1
        assert payload["summary"]["by_rule"] == {"DET001": 1}
        timing = payload["timing"]
        assert timing["per_file_seconds"] >= 0.0
        assert timing["total_seconds"] >= timing["per_file_seconds"]
        assert set(timing["program_rules"]) == {
            r.id for r in all_rules() if hasattr(r, "check_program")
        }
        finding = payload["findings"][0]
        assert set(finding) == {
            "rule", "severity", "path", "line", "col", "message", "hint",
            "fingerprint",
        }
        assert finding["rule"] == "DET001"
        assert finding["line"] == 2
        assert "DET001" in payload["rules"]
        assert payload["rules"]["DET001"]["severity"] == "error"

    def test_json_output_is_byte_stable(self, tmp_path):
        # The timing key is wall-clock telemetry — the one sanctioned
        # nondeterminism in the payload; everything else must be
        # byte-identical across runs.
        root = self.make_tree(tmp_path, "import random\nx = random.random()\n")
        _, first, _ = self.run_cli(str(root), "--json")
        _, second, _ = self.run_cli(str(root), "--json")
        a, b = json.loads(first), json.loads(second)
        a.pop("timing"), b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_write_then_check_baseline_roundtrip(self, tmp_path):
        root = self.make_tree(tmp_path, "import random\nx = random.random()\n")
        baseline = tmp_path / "baseline.json"
        code, _, _ = self.run_cli(str(root), "--write-baseline", str(baseline))
        assert code == 0
        code, out, _ = self.run_cli(str(root), "--baseline", str(baseline))
        assert code == 0
        assert "1 baselined" in out

    def test_list_rules(self):
        code, out, _ = self.run_cli("--list-rules")
        assert code == 0
        for rule in all_rules():
            assert rule.id in out

    def test_module_entry_point(self, tmp_path):
        root = self.make_tree(tmp_path, "x = 1\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(root)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_repro_cli_dispatches_lint(self, tmp_path):
        from repro.dispatch import main as cli_main

        root = self.make_tree(tmp_path, "import random\nx = random.random()\n")
        import contextlib
        import io

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["lint", str(root)])
        assert code == 1
        assert "DET001" in out.getvalue()


# ----------------------------------------------------------------------
# Runtime sanitizer.
# ----------------------------------------------------------------------


def _call_from_repro_frame(fn, *args, **kwargs):
    """Invoke *fn* with the call frame attributed to repro library code.

    Compiles a stub at a filename inside ``src/repro`` so the
    sanitizer's caller check classifies the frame as library code.
    """
    fake = str(REPO_ROOT / "src" / "repro" / "machine" / "_sanitizer_probe.py")
    code = compile("result = fn(*args, **kwargs)\n", fake, "exec")
    namespace = {"fn": fn, "args": args, "kwargs": kwargs}
    exec(code, namespace)
    return namespace["result"]


class TestSanitizer:
    def test_traps_global_random_from_repro_frames(self):
        with DeterminismSanitizer():
            with pytest.raises(DeterminismViolation) as excinfo:
                _call_from_repro_frame(random.random)
        assert "random.random()" in str(excinfo.value)
        assert "repro.rng" in str(excinfo.value)

    def test_traps_wall_clock_from_repro_frames(self):
        with DeterminismSanitizer():
            with pytest.raises(DeterminismViolation):
                _call_from_repro_frame(time.time)
            with pytest.raises(DeterminismViolation):
                _call_from_repro_frame(time.perf_counter)

    def test_traps_unsorted_scans_from_repro_frames(self, tmp_path):
        with DeterminismSanitizer():
            with pytest.raises(DeterminismViolation):
                _call_from_repro_frame(os.listdir, str(tmp_path))
            with pytest.raises(DeterminismViolation):
                _call_from_repro_frame(glob_module.glob, str(tmp_path / "*"))
            with pytest.raises(DeterminismViolation):
                _call_from_repro_frame(pathlib.Path(str(tmp_path)).iterdir)

    def test_third_party_frames_pass_through(self, tmp_path):
        with DeterminismSanitizer():
            # This test file is outside src/repro: everything works.
            assert isinstance(random.random(), float)  # repro: allow-DET001 deliberate hazard proving non-repro frames pass through
            assert time.time() > 0  # repro: allow-DET002 deliberate hazard proving non-repro frames pass through
            assert os.listdir(str(tmp_path)) == []  # repro: allow-DET003 deliberate hazard proving non-repro frames pass through
            assert list(tmp_path.iterdir()) == []  # repro: allow-DET003 deliberate hazard proving non-repro frames pass through

    def test_telemetry_module_exempt_under_sanitizer(self):
        from repro import telemetry

        with DeterminismSanitizer():
            assert telemetry.tick_seconds() >= 0
            assert telemetry.wall_seconds() > 0

    def test_repro_rng_streams_work_under_sanitizer(self):
        from repro.rng import RandomStream

        with DeterminismSanitizer():
            stream = RandomStream(7).fork("sanitized")
            values = [stream.uniform() for _ in range(4)]
        replay = RandomStream(7).fork("sanitized")
        assert values == [replay.uniform() for _ in range(4)]

    def test_patches_are_restored_on_exit(self):
        before = (random.random, time.time, os.listdir, pathlib.Path.iterdir)
        with DeterminismSanitizer():
            assert random.random is not before[0]
        after = (random.random, time.time, os.listdir, pathlib.Path.iterdir)
        assert before == after

    def test_nested_sanitizers_unwind_cleanly(self):
        before = random.random
        with DeterminismSanitizer():
            with DeterminismSanitizer():
                with pytest.raises(DeterminismViolation):
                    _call_from_repro_frame(random.random)
            with pytest.raises(DeterminismViolation):
                _call_from_repro_frame(random.random)
        assert random.random is before

    def test_measurement_pipeline_runs_sanitized(self):
        """The core invariant: a real campaign is hazard-free end to end."""
        from repro.core.interferometer import Interferometer
        from repro.machine.system import XeonE5440
        from repro.workloads.suite import get_benchmark

        machine = XeonE5440(seed=11)
        interferometer = Interferometer(machine, trace_events=3000)
        benchmark = get_benchmark("400.perlbench")
        with DeterminismSanitizer():
            sanitized = interferometer.observe(benchmark, n_layouts=4)
        replay = interferometer.observe(benchmark, n_layouts=4)
        assert [o.measurement.counters for o in sanitized] == [
            o.measurement.counters for o in replay
        ]

    def test_sanitize_requested_parses_env(self):
        assert sanitize_requested({"REPRO_SANITIZE": "1"})
        assert sanitize_requested({"REPRO_SANITIZE": "true"})
        assert not sanitize_requested({"REPRO_SANITIZE": "0"})
        assert not sanitize_requested({})


class TestSanitizerCatchesSeededHazard:
    """Acceptance scenario: an un-suppressed hazard fails the run.

    The hazard body is compiled at a ``src/repro/machine/`` filename,
    exactly as if someone had slipped ``random.random()`` into the
    measurement core: the sanitized run must fail.
    """

    def test_seeded_hazard_in_machine_code_traps(self):
        fake = str(
            REPO_ROOT / "src" / "repro" / "machine" / "_seeded_hazard.py"
        )
        hazard = compile(
            "import random\nresult = random.random()\n", fake, "exec"
        )
        with DeterminismSanitizer():
            with pytest.raises(DeterminismViolation):
                exec(hazard, {})
