"""Determinism rules: one module per rule.

Per-file rules carry ``DET00x`` ids; whole-program rules carry named
ids and run over the project call graph instead of one file: the
interprocedural pack (``SEED001``, ``PURE001``, ``EXC001``,
``CONC001``), the quantity-algebra pack (``UNIT001``–``UNIT003`` /
``STAT001``), the concurrency pack (``CONC002``–``CONC005``) and the
event-loop contract pack (``ASYNC001``–``ASYNC004``) riding the one
context model in :mod:`repro.lint.contextflow`, the dtype pack riding
:mod:`repro.lint.dtypeflow` (``VEC001``/``VEC002``), and the hot-path
performance pack riding :mod:`repro.lint.perfflow`
(``PERF001``–``PERF004``).  Importing
this package registers every rule; the engine then iterates
:func:`~repro.lint.rules.base.all_rules`.
"""

from repro.lint.rules import (  # noqa: F401 - imported for registration
    async001_blocking,
    async002_orphan,
    async003_shared_state,
    async004_backpressure,
    conc001_boundary,
    conc002_shared_state,
    conc003_signal_safety,
    conc004_lock_discipline,
    conc005_thread_lifecycle,
    det001_randomness,
    det002_wallclock,
    det003_iteration,
    det004_mutable_state,
    det005_env,
    det006_json_ordering,
    exc001_contract,
    perf001_hot_loop,
    perf002_loop_alloc,
    perf003_dtype_churn,
    perf004_engine_contract,
    pure001_purity,
    seed001_provenance,
    stat001_contract,
    unit001_mixed,
    unit002_ratio,
    unit003_call,
    vec001_narrowing,
    vec002_promotion,
)
from repro.lint.rules.base import (
    Finding,
    ProgramContext,
    ProgramRule,
    Rule,
    RuleContext,
    all_rules,
    get_rules,
)

__all__ = [
    "Finding",
    "ProgramContext",
    "ProgramRule",
    "Rule",
    "RuleContext",
    "all_rules",
    "get_rules",
]
