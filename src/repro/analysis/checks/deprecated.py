"""Deprecation-hygiene rule: R009 internal use of deprecated entry points.

The PR-1 configuration redesign left compatibility shims behind —
``solver_options=`` (now raising after its deprecation cycle) and plain
dicts passed to ``config=`` (still warning, one release behind).  The shims
exist for *external* callers; internal code routing through them re-arms
exactly the migration the deprecation cycle is trying to finish.  R009
flags those internal uses so the tree stays swept between releases.

Tests are exempt: exercising a shim's warning/raising behavior is their
job.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register

__all__ = ["DeprecatedEntryPointRule"]


@register
class DeprecatedEntryPointRule(Rule):
    """R009 — internal code routed through a deprecated compatibility shim."""

    code = "R009"
    name = "deprecated-entry-point"
    description = (
        "internal use of a deprecated entry point (solver_options= or dict "
        "config=); migrate to SolverConfig — shims are for external callers"
    )
    severity = Severity.WARNING
    applies_to_tests = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg == "solver_options" and not self._is_none(kw.value):
                    yield self.finding(
                        ctx,
                        kw.value,
                        "solver_options= raises after its deprecation "
                        "cycle; pass config=SolverConfig(...)",
                    )
                elif kw.arg == "config" and isinstance(kw.value, ast.Dict):
                    yield self.finding(
                        ctx,
                        kw.value,
                        "dict literal passed to config= rides a deprecated "
                        "shim; pass config=SolverConfig(...)",
                    )

    @staticmethod
    def _is_none(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and node.value is None
