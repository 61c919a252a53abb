"""The dtype lint pack: the dtypeflow lattice and VEC001/VEC002.

Hypothesis property tests pin the lattice algebra (promotion is
commutative, associative, monotone in width; UNKNOWN absorbs and never
flags), unit tests pin the abstract interpreter's inference on the
constructor/cast/interval vocabulary ``uarch/vector.py`` actually
uses, fixture tests demonstrate each rule's true positives and true
negatives, and the mutation check the issue demands proves that
re-introducing a gshare-style ``0x7FFFFFFF`` pc mask produces VEC001
at the exact mutated line.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from repro.lint.cli import main as lint_main
from repro.lint.dtypeflow import (
    INT_BOUNDS,
    INT_DTYPES,
    UNKNOWN_INFO,
    WIDTH,
    ArrayInfo,
    DType,
    clip_to_dtype,
    narrowing_hazard,
    promote,
)

DTYPE_RULES = "VEC001,VEC002"

REPO_ROOT = Path(__file__).resolve().parents[1]

dtypes = st.sampled_from(list(DType))
known_dtypes = st.sampled_from([d for d in DType if d is not DType.UNKNOWN])


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


def lint_tree(tmp_path: Path, files: dict[str, str], rules: str = DTYPE_RULES):
    root = write_tree(tmp_path, files)
    return run_cli("--rules", rules, str(root))


def findings_json(tmp_path: Path, files: dict[str, str], rules: str = DTYPE_RULES):
    root = write_tree(tmp_path, files)
    _, out, _ = run_cli("--rules", rules, "--json", str(root))
    return json.loads(out)


def infer(source: str, expr: str) -> ArrayInfo:
    """Run DtypeScope over ``source`` and evaluate ``expr``'s info."""
    from repro.lint.callgraph import Program
    from repro.lint.dtypeflow import DtypeScope
    from repro.lint.rules.base import annotate_parents

    rel = "src/repro/uarch/kernel.py"
    tree = ast.parse(source)
    annotate_parents(tree)
    program = Program.build([(rel, tree, source.splitlines())])
    fn = program.modules[rel].functions.get("kernel")
    record = program.scope_of(fn) if fn is not None else program.scopes()[0]
    scope = DtypeScope(record, {})
    return scope.info_of(ast.parse(expr, mode="eval").body)


# ----------------------------------------------------------------------
# Lattice algebra.
# ----------------------------------------------------------------------


class TestPromotionLattice:
    @given(dtypes, dtypes)
    def test_promote_commutes(self, a, b):
        assert promote(a, b) == promote(b, a)

    @given(dtypes, dtypes, dtypes)
    def test_promote_associates(self, a, b, c):
        assert promote(promote(a, b), c) == promote(a, promote(b, c))

    @given(dtypes)
    def test_promote_idempotent(self, a):
        assert promote(a, a) == a

    @given(dtypes)
    def test_unknown_absorbs(self, a):
        assert promote(a, DType.UNKNOWN) == DType.UNKNOWN

    @given(known_dtypes, known_dtypes)
    def test_promote_monotone_in_width(self, a, b):
        joined = promote(a, b)
        assert WIDTH[joined] >= WIDTH[a]
        assert WIDTH[joined] >= WIDTH[b]

    @given(known_dtypes, known_dtypes)
    def test_float_dominates(self, a, b):
        if DType.FLOAT64 in (a, b):
            assert promote(a, b) == DType.FLOAT64


class TestNarrowingHazard:
    @given(dtypes)
    def test_unknown_range_never_flags(self, target):
        assert narrowing_hazard(UNKNOWN_INFO, target) is None
        assert narrowing_hazard(ArrayInfo(DType.INT64), target) is None

    @given(st.sampled_from(sorted(INT_DTYPES, key=WIDTH.get)))
    def test_in_range_value_never_flags(self, target):
        lo, hi = INT_BOUNDS[target]
        info = ArrayInfo(DType.INT64, lo=lo, hi=hi)
        assert narrowing_hazard(info, target) is None

    @given(st.sampled_from(sorted(INT_DTYPES, key=WIDTH.get)))
    def test_exceeding_value_flags(self, target):
        _, hi = INT_BOUNDS[target]
        info = ArrayInfo(DType.INT64, lo=0, hi=hi + 1)
        assert narrowing_hazard(info, target) is not None

    def test_large_int_to_float64_flags(self):
        info = ArrayInfo(DType.INT64, lo=0, hi=2**60)
        assert narrowing_hazard(info, DType.FLOAT64) is not None
        exact = ArrayInfo(DType.INT64, lo=0, hi=2**53)
        assert narrowing_hazard(exact, DType.FLOAT64) is None


class TestClipToDtype:
    @given(known_dtypes)
    def test_unknown_range_stays_unknown(self, target):
        clipped = clip_to_dtype(ArrayInfo(DType.INT64), target)
        assert clipped.dtype == target
        assert clipped.lo is None and clipped.hi is None

    def test_fitting_range_is_kept(self):
        info = ArrayInfo(DType.INT64, lo=0, hi=100)
        clipped = clip_to_dtype(info, DType.INT8)
        assert (clipped.lo, clipped.hi) == (0, 100)

    def test_exceeding_range_degrades_to_dtype_bounds(self):
        info = ArrayInfo(DType.INT64, lo=0, hi=10**6)
        clipped = clip_to_dtype(info, DType.INT8)
        assert (clipped.lo, clipped.hi) == INT_BOUNDS[DType.INT8]


# ----------------------------------------------------------------------
# Abstract-interpreter inference.
# ----------------------------------------------------------------------


class TestDtypeScopeInference:
    def test_zeros_with_dtype_keyword(self):
        info = infer(
            "import numpy as np\n"
            "def kernel(n):\n"
            "    acc = np.zeros(n, dtype=np.int32)\n",
            "acc",
        )
        assert info.dtype == DType.INT32
        assert (info.lo, info.hi) == (0, 0)

    def test_arange_with_constant_stop(self):
        info = infer(
            "import numpy as np\n"
            "def kernel():\n"
            "    idx = np.arange(16)\n",
            "idx",
        )
        assert info.dtype == DType.INT64
        assert (info.lo, info.hi) == (0, 15)

    def test_wide_lexicon_parameter(self):
        info = infer("def kernel(pcs):\n    pass\n", "pcs")
        assert info.dtype == DType.INT64
        assert info.lo == 0 and info.hi == 2**63 - 1

    def test_cumsum_of_positive_ints_is_unbounded(self):
        info = infer(
            "import numpy as np\n"
            "def kernel():\n"
            "    ones = np.ones(64, dtype=np.int8)\n"
            "    acc = np.cumsum(ones)\n",
            "acc",
        )
        assert info.dtype == DType.INT64
        assert info.hi == math.inf

    def test_mask_bounds_the_result(self):
        info = infer(
            "def kernel(pcs):\n"
            "    idx = pcs & 1023\n",
            "idx",
        )
        assert (info.lo, info.hi) == (0, 1023)

    def test_astype_of_fitting_mask_keeps_range(self):
        info = infer(
            "import numpy as np\n"
            "def kernel(pcs):\n"
            "    small = (pcs & 63).astype(np.int8)\n",
            "small",
        )
        assert info.dtype == DType.INT8
        assert (info.lo, info.hi) == (0, 63)


# ----------------------------------------------------------------------
# VEC001 — narrowing casts.
# ----------------------------------------------------------------------


class TestNarrowingCastRule:
    def test_wide_value_into_int32_flags(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def index(pcs):\n"
            "    return pcs.astype(np.int32)\n"
        )
        payload = findings_json(tmp_path, {"src/repro/uarch/kern.py": source})
        assert payload["summary"]["by_rule"].get("VEC001") == 1
        (finding,) = payload["findings"]
        assert finding["line"] == 3

    def test_in_range_value_into_int32_is_clean(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def index(entries):\n"
            "    idx = np.arange(1024)\n"
            "    return idx.astype(np.int32)\n"
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/uarch/kern.py": source})
        assert code == 0

    def test_literal_mask_on_wide_value_flags(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def index(pcs, entries):\n"
            "    return (pcs & 0xFFFF).astype(np.int64)\n"
        )
        payload = findings_json(tmp_path, {"src/repro/uarch/kern.py": source})
        assert payload["summary"]["by_rule"].get("VEC001") == 1
        (finding,) = payload["findings"]
        assert "mask" in finding["message"]

    def test_unknown_range_astype_is_clean(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def pack(outcomes):\n"
            "    return (2 * outcomes - 1).astype(np.int8)\n"
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/uarch/kern.py": source})
        assert code == 0

    def test_call_form_cast_flags(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def index(addresses):\n"
            "    return np.int16(addresses)\n"
        )
        payload = findings_json(tmp_path, {"src/repro/uarch/kern.py": source})
        assert payload["summary"]["by_rule"].get("VEC001") == 1

    def test_computed_mask_never_flags(self, tmp_path):
        source = (
            "def index(pcs, bits):\n"
            "    mask = (1 << bits) - 1\n"
            "    return pcs & mask\n"
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/uarch/kern.py": source})
        assert code == 0

    def test_outside_uarch_is_out_of_scope(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def index(pcs):\n"
            "    return pcs.astype(np.int32)\n"
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/core/kern.py": source})
        assert code == 0


_GSHARE_FIXTURE = (
    "import numpy as np\n"
    "class GsharePredictor:\n"
    "    def __init__(self, entries):\n"
    "        self.entries = entries\n"
    "    def indices(self, pcs, outcomes):\n"
    "        hist = np.zeros(pcs.size, dtype=np.int64)\n"
    "        index = (pcs >> 2) ^ hist\n"
    "        index &= self.entries - 1\n"
    "        return index\n"
)


class TestGshareMaskMutation:
    """The issue's mutation check: the ``0x7FFFFFFF`` pc mask.

    The paper's reference gshare folds the pc with a literal 31-bit
    mask; on int64 pc arrays that silently truncates addresses above
    2 GiB and diverges from the scalar oracle.  The clean fixture must
    lint silent; re-introducing the mask must flag the exact line.
    """

    def test_clean_gshare_fixture_is_silent(self, tmp_path):
        code, _, _ = lint_tree(
            tmp_path, {"src/repro/uarch/gshare_fix.py": _GSHARE_FIXTURE}
        )
        assert code == 0

    def test_reintroduced_mask_flags_the_exact_line(self, tmp_path):
        original = "        index = (pcs >> 2) ^ hist\n"
        mutated_line = "        index = ((pcs & 0x7FFFFFFF) >> 2) ^ hist\n"
        mutated = _GSHARE_FIXTURE.replace(original, mutated_line)
        expected_line = (
            mutated.splitlines().index(mutated_line.rstrip("\n")) + 1
        )
        payload = findings_json(
            tmp_path,
            {"src/repro/uarch/gshare_fix.py": mutated},
            rules="VEC001",
        )
        assert payload["summary"]["by_rule"].get("VEC001") == 1
        (finding,) = payload["findings"]
        assert finding["line"] == expected_line
        assert "0x7fffffff" in finding["message"].lower().replace(" ", "")


# ----------------------------------------------------------------------
# VEC002 — promotion divergence.
# ----------------------------------------------------------------------


class TestPromotionDivergenceRule:
    def test_narrow_product_that_can_wrap_flags(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def square():\n"
            "    a = np.full(64, 300, dtype=np.int16)\n"
            "    return a * a\n"
        )
        counts = findings_json(
            tmp_path, {"src/repro/uarch/kern.py": source}
        )["summary"]["by_rule"]
        assert counts.get("VEC002") == 1

    def test_in_range_arithmetic_is_clean(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def bump():\n"
            "    a = np.zeros(64, dtype=np.int8)\n"
            "    return a + 1\n"
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/uarch/kern.py": source})
        assert code == 0

    def test_huge_int_meeting_float_flags_precision(self, tmp_path):
        source = (
            "def scale(pcs):\n"
            "    return pcs * 0.5\n"
        )
        counts = findings_json(
            tmp_path, {"src/repro/uarch/kern.py": source}
        )["summary"]["by_rule"]
        assert counts.get("VEC002") == 1

    def test_scalar_scalar_arithmetic_is_oracle_semantics(self, tmp_path):
        source = (
            "def fold(bits):\n"
            "    mask = (1 << bits) - 1\n"
            "    return mask * mask\n"
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/uarch/kern.py": source})
        assert code == 0

    def test_unknown_operand_never_flags(self, tmp_path):
        source = (
            "def mix(table, deltas):\n"
            "    return table * deltas\n"
        )
        code, _, _ = lint_tree(tmp_path, {"src/repro/uarch/kern.py": source})
        assert code == 0


# ----------------------------------------------------------------------
# The shipped kernels stay clean, and the CLI catalogue.
# ----------------------------------------------------------------------


class TestShippedTreeAndCli:
    def test_real_vector_module_is_clean(self, tmp_path):
        rel = "src/repro/uarch/vector.py"
        source = (REPO_ROOT / rel).read_text()
        code, _, _ = lint_tree(tmp_path, {rel: source})
        assert code == 0

    def test_unknown_rule_exits_2_with_catalogue(self):
        code, _, err = run_cli("--rules", "NOPE999", "src")
        assert code == 2
        assert "unknown rule" in err
        # The catalogue rides along so the caller can self-correct.
        assert "VEC001" in err
        assert "(concurrency)" in err

    def test_list_rules_shows_tiers(self):
        code, out, _ = run_cli("--list-rules")
        assert code == 0
        assert "(per-file)" in out
        assert "(interprocedural)" in out
        assert "(units)" in out
        assert "(concurrency)" in out
        assert "(dtype)" in out
        for rule_id in ("CONC002", "CONC003", "CONC004", "CONC005",
                       "VEC001", "VEC002"):
            assert rule_id in out
