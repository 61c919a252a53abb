"""The repository benchmark: real CLI workloads, timed and traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 34 --trace 0

``--trace 0`` is a timed run: the workload's CLI command is invoked in
fresh child processes, one at a time, at least twice and for about
``--seconds``; the least wall and CPU time of an invocation, the median
peak RSS and the median set-up time are reported, the times scaled to a
host of fixed speed by a calibration child run before each invocation
(see ``calibrate.py``).  Each workload's command is sized to a few
seconds, so a run holds about ten invocations to take the least of.
``--trace 1`` is a traced run: the same command runs once in a child
(untraced, for the overhead figure) and once in this process with every
layer boundary wrapped (see ``layers.py``), and per-layer self times
and counts are reported.

Every invocation is checked: exit code 0, the digest of its normalised
output equal to the one in ``reference.json``, and on the warm
workloads a store that served every campaign.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The workloads take no input from the seed: the CLI is deterministic
and its outputs repeat bit-for-bit, so the seed only names the run's
scratch directory.  Scratch files live under ``.bench_build/perfbench``
in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import checks
from layers import ProgramLayers
from tracer import Tracer

HERE = Path(__file__).resolve().parent
#: Caller settings that would change what the program does.
SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_FAULT_PLAN", "REPRO_MAX_RETRIES", "REPRO_SANITIZE")
#: Set to one thread in every child's environment.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_INVOCATIONS = 2
SETUP_ROUNDS = 5
IMPORT_ROUNDS = 3
UNTRACED_ROUNDS = 1
#: Kill a child that runs longer than this, so a run always ends.
CHILD_TIMEOUT_S = 150.0
FILL_TIMEOUT_S = 600.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One CLI command and how its runs are prepared and checked."""

    module: str
    args: tuple[str, ...]
    #: ``"fresh"``: an empty store per invocation; ``"warm"``: a copy of
    #: the filled suite store; ``None``: no store.
    store: str | None = None
    expected_hits: int = 0
    #: ``REPRO_SCALE`` of the child (and of the warm store it reads).
    scale: str = "small"

    @property
    def is_lint(self) -> bool:
        return self.module == "repro.lint"

    def argv(self) -> list[str]:
        store = ["--cache-dir", "store"] if self.store else []
        return ["-m", self.module, *self.args, *store]

    def noop_argv(self) -> list[str]:
        """A start-up of the same program that does no work."""
        return ["-m", self.module, "--list-rules" if self.is_lint else "--list"]


#: Each command takes 2-4 s on a 2-vCPU host.  The host's speed drifts
#: by tens of percent over seconds to minutes, so the least time of a
#: run is steady only when a run holds many short invocations.
WORKLOADS = {
    # One campaign with code and heap randomization: every cache level,
    # the BTB and the hybrid predictor, and a store write.
    "campaign-cold": Workload("repro.cli", ("fig3",), store="fresh"),
    # fig6 reads all 23 suite campaigns and runs the blame analysis, so
    # the store-read and blame layers are measured here too.  At "small"
    # these three take 12 s; "ci" keeps the same predictors and sweep.
    "sim-studies": Workload(
        "repro.cli", ("extended", "fig4", "fig6"), store="warm", expected_hits=23, scale="ci"
    ),
    # The simulator core and kernels: every rule tier has code to walk.
    "lint-tree": Workload("repro.lint", ("src/repro/core", "src/repro/uarch", "--json")),
}
#: Fills the warm store with all 23 suite code campaigns.
FILL_ARGS = ("table1",)


@dataclasses.dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


class Bench:
    """One run of one workload in one checkout."""

    def __init__(self, root: Path, name: str, seed: int) -> None:
        self.root = root
        self.name = name
        self.workload = WORKLOADS[name]
        self.references = json.loads((HERE / "reference.json").read_text())
        self.work = root / ".bench_build" / "perfbench"
        self.run_dir = self.work / "runs" / f"{name}-seed{seed}-pid{os.getpid()}"
        self.env = child_env(root, self.workload.scale)

    # -- children ------------------------------------------------------

    def invoke(self, argv: list[str], cwd: Path, timeout: float = CHILD_TIMEOUT_S) -> Invocation:
        """Run ``python argv`` in *cwd*; wall from spawn to exit, rusage via wait4."""
        out_path, err_path = self.run_dir / "stdout.txt", self.run_dir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=cwd, env=self.env, stdout=out, stderr=err
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            returncode=proc.returncode,
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
        )

    def cwd(self) -> Path:
        """Directory an invocation runs in (store paths are relative to it)."""
        if self.workload.is_lint:
            return self.root
        if self.workload.store == "fresh":
            fresh = self.run_dir / "cold"
            shutil.rmtree(fresh, ignore_errors=True)
            fresh.mkdir()
            return fresh
        return self.run_dir

    # -- set-up --------------------------------------------------------

    def warm_store(self) -> Path:
        """The filled suite store, built once per checkout and then reused.

        Filling measures all 23 suite campaigns (5-10 s at ``ci``), too
        slow to repeat in every set-up round; it is a build step of the
        checkout, like compiling, and is not part of ``setup_s``.
        """
        cache = self.work / f"warm-store-{self.workload.scale}"
        if (cache / "COMPLETE").exists():
            return cache
        tmp = self.work / f"warm-store.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        start = time.perf_counter()
        inv = self.invoke(["-m", "repro.cli", *FILL_ARGS, "--cache-dir", "."], tmp, FILL_TIMEOUT_S)
        if inv.returncode != 0:
            raise RuntimeError(f"filling the warm store failed: {inv.stderr.strip()[-500:]}")
        (tmp / "suite-journal.json").unlink(missing_ok=True)
        (tmp / "COMPLETE").write_text("")
        shutil.rmtree(cache, ignore_errors=True)
        tmp.rename(cache)
        log(f"filled the warm store in {time.perf_counter() - start:.1f}s")
        return cache

    def setup_round(self) -> float:
        """One set-up: a no-op start-up of the program, plus the store copy."""
        start = time.perf_counter()
        inv = self.invoke(self.workload.noop_argv(), self.root)
        if inv.returncode != 0:
            raise RuntimeError(f"program start-up failed: {inv.stderr.strip()[-500:]}")
        if self.workload.store == "warm":
            store = self.run_dir / "store"
            shutil.rmtree(store, ignore_errors=True)
            shutil.copytree(self.warm_store(), store)
        return time.perf_counter() - start

    def setup(self) -> float:
        """Prepare the run; return the median set-up time."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        if self.workload.store == "warm":
            self.warm_store()
        return statistics.median(self.setup_round() for _ in range(SETUP_ROUNDS))

    # -- checks --------------------------------------------------------

    def problems(self, returncode: int, stdout: str, store_counts: dict | None) -> list[str]:
        """Why one invocation's output is wrong (empty when it is right)."""
        if returncode != 0:
            return [f"exit code {returncode}"]
        problems = []
        if self.workload.is_lint:
            problems += checks.lint_problems(stdout)
            digest = checks.lint_digest(stdout) if not problems else None
        else:
            digest = checks.cli_digest(stdout)
        if self.workload.store == "warm":
            problems += checks.warm_store_problems(store_counts, self.workload.expected_hits)
        reference = self.references.get(self.name)
        if digest is not None and digest != reference:
            problems.append(f"output digest {digest} != reference {reference}")
        return problems

    def checked(self, inv: Invocation) -> bool:
        problems = self.problems(inv.returncode, inv.stdout, checks.store_counts(inv.stdout))
        for problem in problems:
            log(f"FAILED: {problem}\n{inv.stderr.strip()[-2000:]}")
        return not problems

    # -- runs ----------------------------------------------------------

    def calibration(self) -> float:
        """Wall seconds of one run of ``calibrate.py`` in a child."""
        inv = self.invoke([str(HERE / "calibrate.py")], self.root)
        if inv.returncode != 0:
            raise RuntimeError(f"calibration failed: {inv.stderr.strip()[-500:]}")
        return inv.wall_s

    def timed(self, seconds: float) -> dict:
        setup_s = self.setup()
        runs: list[Invocation] = []
        calibrations: list[float] = []
        failed = 0
        start = time.perf_counter()
        # Start another invocation only if it should end within the window.
        while len(runs) < MIN_INVOCATIONS or (
            (time.perf_counter() - start) * (len(runs) + 1) / len(runs) <= seconds
        ):
            calibrations.append(self.calibration())
            inv = self.invoke(self.workload.argv(), self.cwd())
            runs.append(inv)
            failed += not self.checked(inv)
        log(
            f"{len(runs)} invocation(s); wall " + " ".join(f"{r.wall_s:.3f}" for r in runs)
            + f"; calibration least {min(calibrations):.3f}s,"
            + f" scale {calibrate.REFERENCE_S / min(calibrations):.3f}"
        )
        return result(len(runs), failed, timed_metrics(runs, calibrations, setup_s), "end_to_end")

    def traced(self) -> dict:
        self.setup()
        imports = []
        for _ in range(IMPORT_ROUNDS):
            inv = self.invoke(["-c", IMPORT_PROBE], self.root)
            if inv.returncode != 0:
                raise RuntimeError(f"importing repro.cli failed: {inv.stderr.strip()[-500:]}")
            imports.append(float(inv.stdout))
        untraced = [self.invoke(self.workload.argv(), self.cwd()) for _ in range(UNTRACED_ROUNDS)]
        failed = sum(not self.checked(inv) for inv in untraced)

        tracer = Tracer()
        layers = ProgramLayers(tracer)
        stdout = io.StringIO()
        cwd = self.cwd()
        os.environ.clear()
        os.environ.update(self.env)
        sys.path.insert(0, str(self.root / "src"))
        start = time.perf_counter()
        if self.workload.is_lint:
            from repro.lint.cli import main

            layers.install_lint()
        else:
            from repro.cli import main

            layers.install_cli()
        previous = os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(stdout):
                returncode = main(self.workload.argv()[2:])
        finally:
            os.chdir(previous)
        wall = time.perf_counter() - start

        counts = layers.store_counts() if self.workload.store else None
        problems = self.problems(returncode, stdout.getvalue(), counts)
        if tracer.unattributed(wall) < 0:
            problems.append("layer self times sum past the traced wall time")
        for problem in problems:
            log(f"FAILED (traced): {problem}")
        failed += bool(problems)
        self.write_spans(tracer, start)
        untraced_wall = statistics.median(inv.wall_s for inv in untraced)
        metrics = layer_metrics(
            tracer, layers, counts or {}, statistics.median(imports), wall, untraced_wall
        )
        return result(UNTRACED_ROUNDS + 1, failed, metrics, "per_layer")

    def write_spans(self, tracer: Tracer, start: float) -> None:
        """Keep the raw spans of the last traced run of each workload."""
        spans = [
            [span_id, parent, layer, round(t0 - start, 6), round(t1 - start, 6)]
            for span_id, parent, layer, t0, t1 in tracer.spans
        ]
        (self.work / f"spans-{self.name}.json").write_text(json.dumps(spans))


def timed_metrics(
    runs: list[Invocation], calibrations: list[float], setup_s: float
) -> dict[str, float]:
    """The end-to-end metrics of a timed run.

    Contention from other tenants of the host only ever adds time, so
    the least time over the run's invocations is the steadiest estimate
    of what the program itself costs.  A slow spell that outlasts the
    run slows the calibration too; scaling by it reports every time at
    the host speed where the calibration takes ``REFERENCE_S``.
    """
    speed = calibrate.REFERENCE_S / min(calibrations)
    return {
        "wall_s": min(r.wall_s for r in runs) * speed,
        "cpu_s": min(r.cpu_s for r in runs) * speed,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": setup_s * speed,
    }


def layer_metrics(
    tracer: Tracer,
    layers: ProgramLayers,
    store_counts: dict[str, int],
    import_s: float,
    wall: float,
    untraced_wall: float,
) -> dict[str, float]:
    """Every per-layer metric named in BENCHMARK.json, by name."""
    self_s, counts = tracer.self_seconds, tracer.counts
    calls = counts["machine.core_model.calls"]
    special = {
        "cli.import_s": import_s,
        "machine.core_model_hit_ratio": (
            1 - len(layers.fingerprints) / calls if calls else 0.0
        ),
        "machine.pmc_rereads": counts["machine.pmc.rereads"],
        "store.bytes_read": counts["store.bytes_read"],
        "store.bytes_written": counts["store.bytes_written"],
        "store.hits": store_counts.get("hits", 0),
        "store.misses": store_counts.get("misses", 0),
        "store.quarantined": store_counts.get("quarantined", 0),
        "lint.per_file_s": self_s["lint.parse"] + self_s["lint.file_rules"],
        "lint.files": counts["lint.parse.calls"],
        "lint.program_rules_s": self_s["lint.run"],
        "tracing.wall_s": wall,
        "tracing.overhead_s": wall - untraced_wall,
        "tracing.unattributed_s": tracer.unattributed(wall),
    }
    metrics = {}
    for name, _ in definition("per_layer"):
        if name in special:
            metrics[name] = special[name]
        elif name.endswith("_s"):
            metrics[name] = self_s[name[: -len("_s")]]
        else:
            layer, _, kind = name.rpartition("_")
            metrics[name] = counts[f"{layer}.{kind}"]
    return metrics


def definition(section: str) -> list[tuple[str, str]]:
    """``(name, unit)`` of each metric in a section of BENCHMARK.json."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def result(attempted: int, failed: int, values: dict, section: str) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in definition(section)
        },
    }


def child_env(root: Path, scale: str) -> dict[str, str]:
    """The caller's environment without settings that change the program.

    BLAS runs one thread, so each child is one busy thread and this
    process plus its child stay within the host's cores.
    """
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(dict.fromkeys(BLAS_THREADS, "1"))
    env["REPRO_SCALE"] = scale
    env["PYTHONPATH"] = str(root / "src")
    return env


def host(env: dict[str, str]) -> dict:
    """The host the numbers were measured on, and the children's BLAS settings."""
    from importlib.metadata import PackageNotFoundError, version

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = version(package)
        except PackageNotFoundError:
            versions[package] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "blas_threads": {k: env[k] for k in BLAS_THREADS},
    }


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="The repository benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        log(f"no program sources under {root / 'src'}; run from the root of a checkout")
        return 2
    bench = Bench(root, args.workload, args.seed)
    try:
        outcome = bench.traced() if args.trace else bench.timed(args.seconds)
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)
    print("host: " + json.dumps(host(bench.env), sort_keys=True))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
