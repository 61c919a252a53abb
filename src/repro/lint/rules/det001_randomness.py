"""DET001 — unseeded randomness outside the sanctioned RNG module.

Every stochastic choice must flow through :mod:`repro.rng`'s keyed,
forkable streams; global RNG state (``random.*`` module functions,
``np.random`` legacy API, ``os.urandom``, ``uuid.uuid4``) is seeded —
if at all — per process, so results depend on import order, process
boundaries, and interpreter startup rather than on the campaign key.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import (
    Finding,
    Rule,
    RuleContext,
    has_segment,
    register,
)

#: ``random`` module-level functions that read or write hidden global state.
_RANDOM_GLOBAL_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "getstate", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

#: Legacy ``numpy.random`` functions backed by the global RandomState.
_NUMPY_GLOBAL_FNS = frozenset(
    {
        "choice", "get_state", "normal", "permutation", "rand", "randint",
        "randn", "random", "random_sample", "ranf", "sample", "seed",
        "set_state", "shuffle", "standard_normal", "uniform",
    }
)

#: Constructors that are fine when given an explicit seed, hazards bare.
_SEEDABLE_CONSTRUCTORS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}
)

#: Always-nondeterministic entropy sources.
_ENTROPY_SOURCES = frozenset({"os.urandom", "os.getrandom", "uuid.uuid4", "uuid.uuid1"})


@register
class UnseededRandomnessRule(Rule):
    """Flag global-RNG and entropy-source calls."""

    id = "DET001"
    title = "unseeded randomness"
    severity = "error"
    rationale = (
        "global RNG state ties results to import order and process "
        "identity instead of the campaign key, so reruns, retries, and "
        "parallel workers stop being bit-identical"
    )
    hint = (
        "derive a stream from repro.rng.RandomStream(seed).fork(name) "
        "(or seed the generator explicitly from the campaign key)"
    )

    def applies(self, rel: str) -> bool:
        # repro/rng.py is the sanctioned module wrapping randomness.
        return not rel.endswith("repro/rng.py") and not has_segment(rel, "repro/rng.py")

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = imports.resolve(node.func)
            if name is None:
                continue
            if name in _ENTROPY_SOURCES:
                yield self.finding(
                    ctx, node, f"entropy source {name}() is never reproducible"
                )
            elif name in _SEEDABLE_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx,
                        node,
                        f"{name}() without an explicit seed draws OS entropy",
                    )
            elif (
                name.startswith("random.")
                and name.split(".", 1)[1] in _RANDOM_GLOBAL_FNS
            ):
                yield self.finding(
                    ctx, node, f"{name}() uses the process-global random state"
                )
            elif (
                name.startswith("numpy.random.")
                and name.split(".", 2)[2] in _NUMPY_GLOBAL_FNS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() uses numpy's process-global RandomState",
                )
