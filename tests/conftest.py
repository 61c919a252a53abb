"""Shared fixtures.

Expensive artifacts (benchmarks, traces, the laboratory) are session
scoped: the underlying objects are deterministic and immutable-by-
convention, so sharing them across tests is safe and keeps the suite
fast.
"""

from __future__ import annotations

import pytest

from repro.harness.lab import SCALES, Laboratory, Scale
from repro.lint.sanitizer import DeterminismSanitizer, sanitize_requested
from repro.machine.system import XeonE5440
from repro.program.behavior import BiasedBehavior, LoopBehavior
from repro.program.structure import (
    BranchSite,
    DataRefSpec,
    HeapObjectSpec,
    ProcedureSpec,
    ProgramSpec,
    SourceFile,
)
from repro.program.tracegen import generate_trace
from repro.toolchain.camino import Camino
from repro.workloads.suite import get_benchmark

@pytest.fixture(scope="session", autouse=True)
def determinism_sanitizer():
    """Run the whole suite sanitized when ``REPRO_SANITIZE=1``.

    Any repro-library frame that reaches for global RNG state, the
    wall clock, or an unsorted directory scan raises
    :class:`~repro.errors.DeterminismViolation` on the spot; test and
    third-party frames are exempt.
    """
    if sanitize_requested():
        with DeterminismSanitizer():
            yield
    else:
        yield


#: Test-tier scale: small enough for CI, big enough for significance.
TEST_SCALE = Scale(
    name="test",
    n_layouts=8,
    trace_events=6000,
    mase_trace_events=2500,
    mase_configs=21,
    ltage_layouts=4,
)


def make_tiny_spec(
    name: str = "tiny",
    n_procs: int = 6,
    sites_per_proc: int = 3,
    with_heap: bool = True,
) -> ProgramSpec:
    """A small hand-rolled program for unit tests."""
    heap_objects = (
        (
            HeapObjectSpec(name="table", size_bytes=6144),
            HeapObjectSpec(name="buffer", size_bytes=3072),
        )
        if with_heap
        else ()
    )
    procedures = []
    for p in range(n_procs):
        sites = []
        for s in range(sites_per_proc):
            behavior = (
                LoopBehavior(trip_count=4)
                if (p + s) % 3 == 0
                else BiasedBehavior(0.9 if s % 2 == 0 else 0.2)
            )
            refs = ()
            if with_heap and s == 0:
                refs = (
                    DataRefSpec(
                        object_name="table", mode="stride", stride=64, span=4096
                    ),
                )
            sites.append(
                BranchSite(
                    name=f"b{p}_{s}",
                    offset=32 + s * 48,
                    behavior=behavior,
                    instr_gap=5,
                    data_refs=refs,
                )
            )
        procedures.append(
            ProcedureSpec(name=f"p{p}", sites=tuple(sites), weight=1.0 + p)
        )
    files = (
        SourceFile(name="a.o", procedure_names=tuple(f"p{i}" for i in range(n_procs // 2))),
        SourceFile(
            name="b.o",
            procedure_names=tuple(f"p{i}" for i in range(n_procs // 2, n_procs)),
        ),
    )
    return ProgramSpec(
        name=name, procedures=tuple(procedures), files=files, heap_objects=heap_objects
    )


@pytest.fixture(scope="session")
def tiny_spec() -> ProgramSpec:
    """A small deterministic program."""
    return make_tiny_spec()


@pytest.fixture(scope="session")
def tiny_trace(tiny_spec):
    """A short canonical trace of the tiny program."""
    return generate_trace(tiny_spec, seed=42, n_events=1200)


@pytest.fixture(scope="session")
def camino() -> Camino:
    """A default toolchain."""
    return Camino()


@pytest.fixture(scope="session")
def machine() -> XeonE5440:
    """A default reference machine."""
    return XeonE5440(seed=7)


@pytest.fixture(scope="session")
def lab() -> Laboratory:
    """A shared laboratory at test scale (cached campaigns)."""
    return Laboratory(scale=TEST_SCALE, machine_seed=7)


@pytest.fixture(scope="session")
def ci_lab() -> Laboratory:
    """The laboratory ``--scale ci`` runs: the ci tier at the default seed."""
    return Laboratory(scale=SCALES["ci"])


@pytest.fixture(scope="session")
def perlbench():
    """The perlbench benchmark object."""
    return get_benchmark("400.perlbench")
