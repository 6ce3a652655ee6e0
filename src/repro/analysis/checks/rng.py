"""Determinism rules: R001 legacy global-state RNG, R002 unseeded Generator.

The engine's seeded retry replay (:mod:`repro.engine.fault`) and the
Monte-Carlo fallback are only reproducible when every random draw flows
from an explicit seed through :func:`repro.utils.rng.ensure_rng`.  A single
``np.random.rand()`` call — which mutates interpreter-global state — breaks
bit-for-bit replay silently, so it is banned from library code outright.
Test code is exempt: arbitrary inputs in tests may use whatever entropy
they like without affecting library determinism.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register

__all__ = ["LegacyGlobalRngRule", "UnseededDefaultRngRule"]

#: numpy.random functions backed by the hidden global RandomState
_LEGACY_NP = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "gamma",
        "beta",
        "binomial",
        "poisson",
        "choice",
        "shuffle",
        "permutation",
        "get_state",
        "set_state",
    }
)


@register
class LegacyGlobalRngRule(Rule):
    """R001 — legacy global-state RNG use in library code."""

    code = "R001"
    name = "legacy-global-rng"
    description = (
        "np.random.seed/rand/... and the stdlib random module mutate global "
        "RNG state and silently break seeded retry replay; use "
        "repro.utils.rng.ensure_rng(seed) instead"
    )
    severity = Severity.ERROR
    applies_to_tests = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random" and not node.level:
                    yield self.finding(
                        ctx,
                        node,
                        "import from the stdlib 'random' module (global-state "
                        "RNG); thread a numpy Generator via ensure_rng(seed)",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            if resolved.startswith("numpy.random."):
                tail = resolved.rsplit(".", 1)[1]
                if tail in _LEGACY_NP:
                    yield self.finding(
                        ctx,
                        node,
                        f"legacy global-state RNG call {resolved}(); use "
                        "ensure_rng(seed) and Generator methods so seeded "
                        "replay stays bit-for-bit",
                    )
            elif resolved.startswith("random."):
                yield self.finding(
                    ctx,
                    node,
                    f"stdlib global-state RNG call {resolved}(); use "
                    "ensure_rng(seed) and Generator methods instead",
                )


@register
class UnseededDefaultRngRule(Rule):
    """R002 — ``np.random.default_rng()`` without a seed in library code."""

    code = "R002"
    name = "unseeded-default-rng"
    description = (
        "np.random.default_rng() with no argument draws OS entropy; library "
        "code must accept a seed and pass it through (seed=None is then the "
        "caller's explicit choice)"
    )
    severity = Severity.ERROR
    applies_to_tests = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.resolve(node.func) != "numpy.random.default_rng":
                continue
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node,
                    "unseeded default_rng(); accept a seed argument and "
                    "forward it (ensure_rng normalizes None/int/Generator)",
                )
