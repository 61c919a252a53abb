"""Command-line entry point: regenerate any paper experiment.

Usage::

    repro-interferometry --list
    repro-interferometry fig2 table1
    REPRO_SCALE=paper repro-interferometry all
    repro-interferometry all --workers 4 --cache-dir ~/.cache/repro
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import faults, telemetry
from repro.core.supervise import ShutdownHandler
from repro.errors import (
    CampaignExecutionError,
    ConfigurationError,
    ReproError,
    SuiteExecutionError,
)
from repro.faults import FaultPlan
from repro.harness import (  # noqa: F401 - EXPERIMENTS: the CLI's runner table
    EXPERIMENT_TABLE,
    EXPERIMENTS,
    SCALES,
    SUITE,
    Laboratory,
    export_csv,
    result_of,
)


def _campaigns_needed(names: list[str]) -> tuple[list[str] | None, list[str]]:
    """Union of (code, heap) campaigns the named experiments read.

    The first element is ``None`` when any experiment needs the whole
    suite (prefetch everything), else the explicit benchmark list.
    """
    code: dict[str, None] = {}
    heap: dict[str, None] = {}
    suite_wide = False
    for name in names:
        experiment = EXPERIMENT_TABLE[name]
        if experiment.code == SUITE:
            suite_wide = True
        else:
            code.update(dict.fromkeys(experiment.code))
        heap.update(dict.fromkeys(experiment.heap))
    return (None if suite_wide else list(code)), list(heap)


#: Systematic exit codes (documented in ``--help``).
EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2

_EPILOG = """\
exit codes:
  0  success — every requested experiment completed (possibly after
     transparent retries, deadline-killed-and-retried campaigns, or
     parallel->serial degradation; a recovery report is printed
     whenever anything had to be retried)
  1  partial failure — some campaigns or experiments failed after
     exhausting their retry budget, or a graceful shutdown
     (SIGINT/SIGTERM) drained the run early; with --cache-dir the
     completed campaigns are kept in the store, and rerunning with the
     same --cache-dir measures only the missing ones (a second signal
     aborts the drain immediately)
  2  configuration or usage error (unknown experiment, bad flag value,
     invalid fault plan, ...)
"""


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-interferometry",
        description="Regenerate Program Interferometry (IISWC 2011) experiments.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (or 'all'); see --list",
    )
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="sampling scale (overrides REPRO_SCALE)",
    )
    parser.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="after running, export the run experiments' plottable series as CSV",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="fan suite campaigns out over N worker processes "
        "(0 = serial; results are bit-identical either way)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=os.environ.get("REPRO_CACHE_DIR"),
        help="disk-backed campaign store: measured campaigns are persisted "
        "and reused across invocations (default: $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir / $REPRO_CACHE_DIR and always measure",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=faults.DEFAULT_MAX_RETRIES,
        metavar="N",
        help="retry budget per campaign on transient failures "
        "(default: %(default)s); retried measurements are "
        "bit-identical because each is a pure function of its key",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort on the first campaign/experiment failure instead of "
        "completing the rest and reporting (exit code 1 either way)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-campaign execution deadline: a campaign (pool worker or "
        "serial alike) that exceeds it is killed, recorded as timed out, "
        "and re-run under the retry budget — bit-identical on recovery",
    )
    parser.add_argument(
        "--fault-plan",
        metavar="SPEC",
        default=None,
        help="inject deterministic faults for testing: a canned profile "
        "('flaky', 'chaos', 'hung') or 'field=value,...' pairs, e.g. "
        "'seed=7,worker_crash=0.1,torn_write=0.05' "
        "(overrides $REPRO_FAULT_PLAN; 'none' disables)",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the installation self-check battery and exit",
    )
    args = parser.parse_args(argv)

    if args.selftest:
        from repro.validation import render_selftest, run_selftest

        results = run_selftest()
        print(render_selftest(results))
        return 0 if all(r.passed for r in results) else 1

    if args.list or not args.experiments:
        if args.export and not args.list:
            print(
                "error: --export needs experiment names to run "
                "(e.g. 'repro-interferometry all --export DIR')",
                file=sys.stderr,
            )
            return EXIT_USAGE
        print("available experiments:")
        for name in EXPERIMENT_TABLE:
            print(f"  {name}")
        print("scale via REPRO_SCALE env var: ci | small (default) | paper")
        return EXIT_OK

    names = list(EXPERIMENT_TABLE) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in EXPERIMENT_TABLE]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return EXIT_USAGE
    if args.workers < 0:
        print(f"error: --workers must be >= 0, got {args.workers}", file=sys.stderr)
        return EXIT_USAGE
    if args.max_retries < 0:
        print(
            f"error: --max-retries must be >= 0, got {args.max_retries}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.deadline is not None and args.deadline <= 0:
        print(
            f"error: --deadline must be > 0 seconds, got {args.deadline}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    plan_installed = False
    if args.fault_plan is not None:
        try:
            faults.install(FaultPlan.from_spec(args.fault_plan))
        except ConfigurationError as exc:
            print(f"error: --fault-plan {args.fault_plan!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        plan_installed = True

    cache_dir = None if args.no_cache else args.cache_dir
    try:
        with ShutdownHandler() as shutdown:
            lab = Laboratory(
                scale=SCALES[args.scale] if args.scale else None,
                cache_dir=cache_dir,
                workers=args.workers,
                max_retries=args.max_retries,
                fail_fast=args.fail_fast,
                deadline_seconds=args.deadline,
                shutdown=shutdown,
            )
            return _run(lab, names, args, shutdown)
    except SuiteExecutionError as exc:
        # fail-fast path: a suite prefetch gave up mid-flight.
        print(f"error: {exc}", file=sys.stderr)
        print(exc.report.render(), file=sys.stderr)
        return EXIT_PARTIAL
    except CampaignExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if plan_installed:
            # The --fault-plan installation is scoped to this run, so
            # in-process callers (tests, notebooks) are not left with a
            # process-wide plan.
            faults.clear()


def _run(
    lab: Laboratory,
    names: list[str],
    args: argparse.Namespace,
    shutdown: ShutdownHandler | None = None,
) -> int:
    """Drive the selected experiments through a configured laboratory."""
    lab.on_campaign = lambda record: print(f"  {record.render()}", flush=True)
    print(f"scale: {lab.scale.name} ({lab.scale.n_layouts} layouts, "
          f"{lab.scale.trace_events} trace events)")
    if lab.store is not None:
        print(f"campaign store: {lab.store.root}")

    if args.workers > 0:
        code_names, heap_names = _campaigns_needed(names)
        if code_names is None or code_names:
            lab.prefetch(code_names, heap=False)
        if heap_names:
            lab.prefetch(heap_names, heap=True)

    failed_experiments: list[str] = []
    for name in names:
        if shutdown is not None and shutdown.requested:
            break  # draining: finish nothing new, keep what completed
        start = telemetry.tick_seconds()
        try:
            result = result_of(lab, name)
        except (CampaignExecutionError, SuiteExecutionError) as exc:
            # A campaign exhausted its retry budget.  Report the
            # experiment as failed and keep going: partial results beat
            # a traceback, and the final report names every casualty.
            failed_experiments.append(name)
            print(f"\n=== {name} FAILED " + "=" * 40)
            print(f"  {exc}")
            if args.fail_fast:
                break
            continue
        elapsed = telemetry.tick_seconds() - start
        print(f"\n=== {name} ({elapsed:.1f}s) " + "=" * 40)
        print(result.render())

    _print_summary(lab)
    if lab.failure_report:
        print("\n" + lab.failure_report.render())

    if shutdown is not None and shutdown.requested:
        kept = (
            "nothing was persisted (no campaign store)"
            if lab.store is None
            else "completed campaigns are in the campaign store; rerun "
            "with the same --cache-dir to measure only the missing ones"
        )
        print(
            f"\ngraceful shutdown ({shutdown.signal_name}): in-flight "
            f"campaigns drained; {kept}",
            file=sys.stderr,
        )
        return EXIT_PARTIAL

    if args.export:
        completed = [name for name in lab.results if name in names]
        paths = export_csv(lab, completed, args.export)
        print(f"\nexported {len(paths)} CSV files to {args.export}/")
    if failed_experiments or not lab.failure_report.ok:
        print(
            f"\npartial failure: {len(failed_experiments)} experiment(s) "
            f"did not complete ({', '.join(failed_experiments) or 'none'})",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return EXIT_OK


def _print_summary(lab: Laboratory) -> None:
    """Campaign/cache accounting printed after every run."""
    log = lab.campaign_log
    if not log:
        return
    measured = sum(record.measured for record in log)
    seconds = sum(record.seconds for record in log if record.measured)
    rate = f" ({measured / seconds:.1f} layouts/s)" if seconds > 0 else ""
    from_cache = sum(1 for record in log if record.measured == 0)
    print(
        f"\ncampaigns: {len(log)} served ({from_cache} from cache, "
        f"{len(log) - from_cache} measured); "
        f"{measured} layouts measured{rate}"
    )
    if lab.store is not None:
        print(f"campaign store: {lab.store.stats.summary()}")


if __name__ == "__main__":
    raise SystemExit(main())
