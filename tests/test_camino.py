"""Tests for the Camino toolchain: reordering, run-limit, building."""

from __future__ import annotations

import pytest

from repro.program.tracegen import generate_trace
from repro.toolchain.camino import Camino, RunLimitPass

from tests.conftest import make_tiny_spec


@pytest.fixture(scope="module")
def spec():
    return make_tiny_spec()


class TestReordering:
    def test_seeded_reorder_deterministic(self, spec, camino):
        a = camino.reorder(spec, seed=5)
        b = camino.reorder(spec, seed=5)
        assert [(o.name, o.procedure_names) for o in a] == [
            (o.name, o.procedure_names) for o in b
        ]

    def test_different_seeds_differ(self, spec, camino):
        orderings = set()
        for seed in range(20):
            objs = camino.reorder(spec, seed=seed)
            orderings.add(tuple((o.name, o.procedure_names) for o in objs))
        assert len(orderings) > 10

    def test_reorder_permutes_within_files(self, spec, camino):
        base = {f.name: set(f.procedure_names) for f in spec.files}
        for obj in camino.reorder(spec, seed=3):
            assert set(obj.procedure_names) == base[obj.name]

    def test_reorder_preserves_file_set(self, spec, camino):
        objs = camino.reorder(spec, seed=3)
        assert {o.name for o in objs} == {f.name for f in spec.files}

    def test_base_objects_match_declaration(self, spec, camino):
        objs = camino.base_object_files(spec)
        assert [o.procedure_names for o in objs] == [f.procedure_names for f in spec.files]

    def test_layouts_differ_across_seeds(self, spec, camino):
        a = camino.link_layout(spec, seed=1)
        b = camino.link_layout(spec, seed=2)
        assert list(a.proc_base) != list(b.proc_base)

    def test_baseline_layout(self, spec, camino):
        layout = camino.link_layout(spec, seed=None)
        assert layout.link_order == tuple(
            name for f in spec.files for name in f.procedure_names
        )


class TestRunLimit:
    def test_limit_within_trace(self, tiny_trace):
        limit = RunLimitPass().choose_limit(tiny_trace)
        assert 0 < limit <= tiny_trace.n_events

    def test_limit_in_tail(self, tiny_trace):
        limit = RunLimitPass(tail_fraction=0.9).choose_limit(tiny_trace)
        # Either no candidate was found (full length) or the cutoff is
        # in the final 10% of the run.
        assert limit == tiny_trace.n_events or limit >= int(0.9 * tiny_trace.n_events)

    def test_limit_deterministic(self, tiny_trace):
        assert (
            RunLimitPass().choose_limit(tiny_trace)
            == RunLimitPass().choose_limit(tiny_trace)
        )

    def test_bad_tail_fraction(self, tiny_trace):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            RunLimitPass(tail_fraction=1.5).choose_limit(tiny_trace)


class TestBuild:
    def test_build_produces_executable(self, spec, tiny_trace, camino):
        exe = camino.build(spec, tiny_trace, layout_seed=1)
        assert exe.spec is spec
        assert exe.layout_seed == 1
        assert exe.heap_seed is None

    def test_run_limit_identical_across_layouts(self, spec, tiny_trace, camino):
        lengths = {
            camino.build(spec, tiny_trace, layout_seed=seed).trace.n_events
            for seed in range(5)
        }
        assert len(lengths) == 1  # the §5.7 invariant

    def test_instructions_identical_across_layouts(self, spec, tiny_trace, camino):
        instrs = {
            camino.build(spec, tiny_trace, layout_seed=seed).n_instructions
            for seed in range(5)
        }
        assert len(instrs) == 1

    def test_heap_randomization_changes_data_layout(self, spec, tiny_trace, camino):
        a = camino.build(spec, tiny_trace, layout_seed=1, heap_seed=10)
        b = camino.build(spec, tiny_trace, layout_seed=1, heap_seed=11)
        assert list(a.data_layout.object_base) != list(b.data_layout.object_base)

    def test_default_heap_deterministic(self, spec, tiny_trace, camino):
        a = camino.build(spec, tiny_trace, layout_seed=1)
        b = camino.build(spec, tiny_trace, layout_seed=2)
        assert list(a.data_layout.object_base) == list(b.data_layout.object_base)

    def test_baseline_build(self, spec, tiny_trace, camino):
        exe = camino.build(spec, tiny_trace, layout_seed=None)
        assert exe.layout_seed == -1

    def test_disable_run_limit(self, spec, tiny_trace, camino):
        exe = camino.build(spec, tiny_trace, layout_seed=1, apply_run_limit=False)
        assert exe.trace.n_events == tiny_trace.n_events

    def test_layouts_share_one_bound_trace(self, spec, tiny_trace, monkeypatch):
        """The run limit is chosen once per canonical trace, not per layout."""
        calls = []
        choose = RunLimitPass.choose_limit

        def counting(self, trace):
            calls.append(trace)
            return choose(self, trace)

        monkeypatch.setattr(RunLimitPass, "choose_limit", counting)
        camino = Camino()
        built = [camino.build(spec, tiny_trace, layout_seed=s).trace for s in range(4)]
        built.append(
            camino.build_custom(spec, tiny_trace, camino.base_object_files(spec)).trace
        )
        assert calls == [tiny_trace]
        assert all(trace is built[0] for trace in built)
        assert built[0].n_events == min(choose(RunLimitPass(), tiny_trace), tiny_trace.n_events)

    def test_same_key_other_program_gets_its_own_bound(self, tiny_spec, tiny_trace):
        """Two programs named alike, same seed and length, bind their own traces."""
        other = make_tiny_spec(n_procs=9, sites_per_proc=4)
        twin = generate_trace(other, tiny_trace.seed, tiny_trace.n_events)
        assert (twin.program, twin.seed) == (tiny_trace.program, tiny_trace.seed)
        camino = Camino()
        camino.build(tiny_spec, tiny_trace, layout_seed=1)
        bound = camino.build(other, twin, layout_seed=1).trace
        assert bound.n_events == RunLimitPass().choose_limit(twin)
        assert bound.site_ids.tolist() == twin.site_ids[: bound.n_events].tolist()
