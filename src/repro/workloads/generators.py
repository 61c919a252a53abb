"""Generate a :class:`ProgramSpec` from a benchmark personality.

Generation is deterministic: the same personality always produces the
same program (the paper compiles each benchmark *once*; only layouts
vary).  All randomness comes from a stream keyed by the benchmark name.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

from repro.program.behavior import (
    BiasedBehavior,
    BranchBehavior,
    GlobalCorrelatedBehavior,
    LoopBehavior,
    PatternBehavior,
)
from repro.program.structure import (
    BYTES_PER_INSTRUCTION,
    BranchSite,
    DataRefSpec,
    HeapObjectSpec,
    ProcedureSpec,
    ProgramSpec,
    SourceFile,
)
from repro.errors import WorkloadError
from repro.rng import RandomStream, derive_seed
from repro.workloads.params import BenchmarkPersonality

#: Root seed of the whole synthetic suite.  Changing it creates a
#: different (but equally valid) "SPEC 2006 build".
MASTER_SEED = 0x5EED2006

# Mostly sub-block strides: consecutive executions of a site revisit the
# same cache line several times (spatial locality), as real array walks do.
_STRIDES = (8, 8, 16, 16, 32, 64)

# Large power-of-two strides for matrix-column walks (big-stride refs).
_BIG_STRIDES = (1024, 2048)


def _make_behavior(kind: str, stream: RandomStream) -> BranchBehavior:
    u = stream.uniform()
    if kind == "very_easy":
        p = 0.97 + 0.025 * u
        return BiasedBehavior(p if stream.uniform() < 0.7 else 1.0 - p)
    if kind == "easy":
        p = 0.95 + 0.04 * u
        return BiasedBehavior(p if stream.uniform() < 0.65 else 1.0 - p)
    if kind == "biased":
        p = 0.88 + 0.07 * u
        return BiasedBehavior(p if stream.uniform() < 0.6 else 1.0 - p)
    if kind == "hard":
        return BiasedBehavior(0.45 + 0.20 * u)
    if kind == "loop_short":
        return LoopBehavior(trip_count=stream.randint(5, 12), jitter=0.08)
    if kind == "loop_long":
        return LoopBehavior(trip_count=stream.randint(16, 64), jitter=0.05)
    if kind == "pattern":
        length = stream.randint(3, 6)
        pattern = [stream.randint(0, 1) for _ in range(length)]
        if all(bit == pattern[0] for bit in pattern):
            pattern[-1] ^= 1  # avoid degenerate constant patterns
        return PatternBehavior(pattern)
    if kind == "correlated":
        n_bits = stream.randint(1, 2)
        bits = stream.sample_without_replacement(range(6), n_bits)
        return GlobalCorrelatedBehavior(
            history_bits=sorted(bits),
            noise=0.02 + 0.08 * u,
            invert=stream.uniform() < 0.5,
        )
    raise WorkloadError(f"unknown behaviour kind {kind!r}")


def _zipf_weights(n: int, skew: float, stream: RandomStream) -> list[float]:
    ranks = stream.permutation(n)
    return [1.0 / (rank + 1.0) ** skew for rank in ranks]


def build_spec(personality: BenchmarkPersonality) -> ProgramSpec:
    """Deterministically generate the program for *personality*."""
    p = personality
    stream = RandomStream(derive_seed(MASTER_SEED, p.name), f"workload/{p.name}")

    # ---- heap objects -------------------------------------------------
    obj_stream = stream.fork("objects")
    lo, hi = p.heap_object_bytes
    heap_objects = []
    for i in range(p.n_heap_objects):
        size = obj_stream.randint(lo, hi)
        size = (size + 63) & ~63  # whole cache blocks
        heap_objects.append(HeapObjectSpec(name=f"obj{i:03d}", size_bytes=size))
    object_weights = _zipf_weights(p.n_heap_objects, 1.0, obj_stream)
    object_total = sum(object_weights)
    # Running sums in list order: a draw picks the first object whose
    # sum exceeds it, or object 0 when rounding leaves none.
    object_edges = list(accumulate(object_weights))

    # ---- behaviour-kind sampling --------------------------------------
    kinds = list(p.mix.keys())
    kind_weights = [p.mix[k] for k in kinds]
    total_weight = sum(kind_weights)
    cumulative = []
    acc = 0.0
    for w in kind_weights:
        acc += w / total_weight
        cumulative.append(acc)

    def sample_kind(u: float) -> str:
        for kind, edge in zip(kinds, cumulative):
            if u < edge:
                return kind
        return kinds[-1]

    # ---- procedures ----------------------------------------------------
    proc_stream = stream.fork("procedures")
    weights = _zipf_weights(p.n_procedures, p.proc_weight_skew, stream.fork("weights"))
    procedures = []
    site_counter = 0
    for proc_idx in range(p.n_procedures):
        n_sites = proc_stream.randint(*p.sites_per_proc)
        offset = 16
        sites = []
        for _ in range(n_sites):
            gap = proc_stream.randint(*p.instr_gap)
            offset += gap * BYTES_PER_INSTRUCTION + proc_stream.randint(4, 24)
            kind = sample_kind(proc_stream.uniform())
            behavior = _make_behavior(kind, proc_stream)
            exec_prob = 1.0 if kind.startswith("loop") else 0.6 + 0.4 * proc_stream.uniform()
            data_refs = []
            expected = p.data_refs_per_site
            n_refs = int(expected) + (1 if proc_stream.uniform() < (expected % 1.0) else 0)
            for _ in range(n_refs):
                # Zipf-weighted object choice keeps a hot working set.
                pick = proc_stream.uniform() * object_total
                obj_idx = bisect_right(object_edges, pick)
                obj = heap_objects[obj_idx if obj_idx < len(object_edges) else 0]
                # Each site walks a bounded window of its object, so the
                # hot data working set has strong temporal reuse; the
                # window size is a personality knob (memory-bound
                # benchmarks walk far larger windows).
                lo_span, hi_span = p.dref_span_bytes
                span = proc_stream.randint(lo_span, hi_span) & ~63
                span = min(max(span, 64), obj.size_bytes)
                if proc_stream.uniform() < p.dref_random_fraction:
                    data_refs.append(
                        DataRefSpec(object_name=obj.name, mode="random", span=span)
                    )
                elif proc_stream.uniform() < p.dref_big_stride_fraction:
                    # Matrix-column walk: a large power-of-two stride
                    # concentrates the walk on one or two cache sets, so
                    # the object's placement decides which sets conflict.
                    big = proc_stream.choice(_BIG_STRIDES)
                    big_span = min(obj.size_bytes, big * proc_stream.randint(10, 24))
                    data_refs.append(
                        DataRefSpec(
                            object_name=obj.name,
                            mode="stride",
                            stride=big,
                            span=big_span,
                        )
                    )
                else:
                    data_refs.append(
                        DataRefSpec(
                            object_name=obj.name,
                            mode="stride",
                            stride=proc_stream.choice(_STRIDES),
                            span=span,
                        )
                    )
            sites.append(
                BranchSite(
                    name=f"b{site_counter:05d}",
                    offset=offset,
                    behavior=behavior,
                    exec_prob=exec_prob,
                    instr_gap=gap,
                    data_refs=tuple(data_refs),
                )
            )
            site_counter += 1
        procedures.append(
            ProcedureSpec(
                name=f"proc{proc_idx:03d}",
                sites=tuple(sites),
                weight=weights[proc_idx],
                tail_bytes=proc_stream.randint(16, 96),
            )
        )

    # ---- compilation units ---------------------------------------------
    # Contiguous groups of procedures, mildly uneven sizes.
    file_stream = stream.fork("files")
    cuts = sorted(
        file_stream.sample_without_replacement(range(1, p.n_procedures), p.n_files - 1)
    )
    bounds = [0] + cuts + [p.n_procedures]
    files = []
    for file_idx in range(p.n_files):
        members = tuple(
            procedures[j].name for j in range(bounds[file_idx], bounds[file_idx + 1])
        )
        files.append(SourceFile(name=f"unit{file_idx:02d}.o", procedure_names=members))

    return ProgramSpec(
        name=p.name,
        procedures=tuple(procedures),
        files=tuple(files),
        heap_objects=tuple(heap_objects),
        intrinsic_cpi=p.intrinsic_cpi,
        mispredict_exposure=p.mispredict_exposure,
    )
