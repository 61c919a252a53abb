"""Tests of the benchmark's own logic: span arithmetic, timed-run metrics
and output checks.

Run from the root of a checkout::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    """A clock that reads the given instants in order."""

    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_of_nested_spans_excludes_children():
    tracer = Tracer(FakeClock(0, 1, 3, 4, 5, 10))
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    assert tracer.self_seconds == {"outer": 7, "a": 2, "b": 1}
    assert tracer.unattributed(10) == 0


def test_self_time_of_reentrant_span_counts_its_interval_once():
    # outer A [0, 10] holds inner A [2, 6], which holds B [3, 4].
    tracer = Tracer(FakeClock(0, 2, 3, 4, 6, 10))
    with tracer.span("A"):
        with tracer.span("A"):
            with tracer.span("B"):
                pass
    assert tracer.self_seconds == {"A": 9, "B": 1}
    assert sum(tracer.self_seconds.values()) == 10
    parents = {span_id: parent for span_id, parent, *_ in tracer.spans}
    layers = {span_id: layer for span_id, _, layer, *_ in tracer.spans}
    inner_a = next(i for i, layer in layers.items() if layer == "A" and parents[i] != -1)
    assert layers[parents[inner_a]] == "A" and parents[parents[inner_a]] == -1


def test_traced_counts_only_the_outermost_call_of_a_reentrant_layer():
    tracer = Tracer()
    seen = []

    def countdown(n):
        return n if n == 0 else countdown(n - 1)

    countdown = tracer.traced(countdown, "rec", after=lambda result, n: seen.append(n))
    countdown(3)
    assert tracer.counts["rec.calls"] == 1
    assert seen == [3]
    assert len(tracer.spans) == 4
    assert tracer.unattributed(tracer.spans[-1][4] - tracer.spans[-1][3]) == pytest.approx(0)


def test_traced_ignores_calls_from_other_threads():
    tracer = Tracer()
    work = tracer.traced(lambda: 1, "work")
    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert tracer.spans == [] and tracer.counts["work.calls"] == 0
    work()
    assert tracer.counts["work.calls"] == 1


def test_timed_metrics_are_the_least_times_at_the_reference_speed():
    runs = [
        run.Invocation(wall_s=3.0, cpu_s=2.9, peak_rss_mb=100.0, returncode=0, stdout="", stderr=""),
        run.Invocation(wall_s=2.0, cpu_s=1.8, peak_rss_mb=110.0, returncode=0, stdout="", stderr=""),
        run.Invocation(wall_s=4.0, cpu_s=3.9, peak_rss_mb=120.0, returncode=0, stdout="", stderr=""),
    ]
    # The calibration took at best twice its reference time: the host ran
    # at half speed, so every time is halved.
    metrics = run.timed_metrics(runs, [3 * REFERENCE_S, 2 * REFERENCE_S], setup_s=1.0)
    assert metrics == pytest.approx(
        {"wall_s": 1.0, "cpu_s": 0.9, "peak_rss_mb": 110.0, "setup_s": 0.5}
    )


CLI_OUTPUT = """\
scale: small (40 layouts, 20000 trace events)
campaign store: store
  campaign 400.perlbench: 40/40 layouts measured in 2.42s (16.6 layouts/s)

=== headline (2.4s) ========================================
1) perfect prediction: CPI 0.734 ± 0.032 — an improvement of 32.3%
400.perlbench: CPI = 0.02768 * MPKI + 0.73439   (r = 0.968, r^2 = 0.936, n = 40)
(b: L2 cache) CPI = 0.14643 * l2_mpki + 0.56740   (r^2 = 0.789, p = 2.06e-14)
  campaign 401.bzip2: 40 layouts from cache (0.01s)
campaigns: 3 served (0 from cache, 3 measured); 120 layouts measured (15.0 layouts/s)
campaign store: 0 hits, 3 misses; 0 layouts loaded, 120 measured
"""


def test_normaliser_strips_the_timing_lines_and_nothing_else():
    kept = checks.normalise(CLI_OUTPUT).splitlines()
    assert kept == [
        "scale: small (40 layouts, 20000 trace events)",
        "campaign store: store",
        "",
        "1) perfect prediction: CPI 0.734 ± 0.032 — an improvement of 32.3%",
        "400.perlbench: CPI = 0.02768 * MPKI + 0.73439   (r = 0.968, r^2 = 0.936, n = 40)",
        "(b: L2 cache) CPI = 0.14643 * l2_mpki + 0.56740   (r^2 = 0.789, p = 2.06e-14)",
        "campaign store: 0 hits, 3 misses; 0 layouts loaded, 120 measured",
    ]


def test_cli_digest_ignores_timings_but_not_statistics():
    slower = CLI_OUTPUT.replace("(2.4s)", "(3.9s)").replace("16.6 layouts/s", "9.1 layouts/s")
    assert checks.cli_digest(slower) == checks.cli_digest(CLI_OUTPUT)
    assert checks.cli_digest(CLI_OUTPUT.replace("0.73439", "0.73438")) != checks.cli_digest(
        CLI_OUTPUT
    )


def test_lint_digest_drops_only_the_timing_block():
    report = {"clean": True, "summary": {"findings": 0}, "timing": {"total_seconds": 1.5}}
    retimed = dict(report, timing={"total_seconds": 9.0})
    assert checks.lint_digest(json.dumps(report)) == checks.lint_digest(json.dumps(retimed))
    assert checks.lint_digest(json.dumps(dict(report, clean=False))) != checks.lint_digest(
        json.dumps(report)
    )
    assert checks.lint_problems(json.dumps(report)) == []
    assert checks.lint_problems(json.dumps({"clean": False, "summary": {"findings": 2}}))


def _warm_counts(store_dir: Path, names: list[str]) -> dict[str, int] | None:
    """Serve *names* from the store in *store_dir*; parse the CLI summary line."""
    from repro.harness.lab import SCALES, Laboratory

    lab = Laboratory(scale=SCALES["ci"], cache_dir=store_dir)
    for name in names:
        lab.observations(name)
    return checks.store_counts(f"campaign store: {lab.store.stats.summary()}\n")


def test_warm_store_check_fails_with_one_campaign_missing(tmp_path):
    names = ["400.perlbench", "471.omnetpp"]
    _warm_counts(tmp_path, names)  # fill
    assert checks.warm_store_problems(_warm_counts(tmp_path, names), expected_hits=2) == []

    (missing,) = tmp_path.glob("471_omnetpp-*.json")
    missing.unlink()
    counts = _warm_counts(tmp_path, names)
    assert counts == {"hits": 1, "misses": 1, "quarantined": 0}
    assert checks.warm_store_problems(counts, expected_hits=2) == [
        "store misses 1 != 0",
        "store hits 1 != 2",
    ]


def test_warm_store_check_fails_without_a_summary():
    assert checks.warm_store_problems(None, expected_hits=23)
    assert checks.store_counts("campaign store: 23 hits, 0 misses, 1 quarantined; x") == {
        "hits": 23,
        "misses": 0,
        "quarantined": 1,
    }
