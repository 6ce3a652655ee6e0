"""Pickle-safety rule R004: unpicklable pool payloads.

The engine fans numeric solves out over :class:`~concurrent.futures.
ProcessPoolExecutor` under the ``spawn`` start method, so every submitted
callable must pickle.  Lambdas and closures never do.  (That every
``ReproError`` crossing back pickles is checked at runtime by
``tests/test_exceptions.py``, which round-trips each subclass.)
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.context import FileContext, dotted_name
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register

__all__ = ["UnpicklableSubmitRule"]

#: engine fan-out entry points whose task payloads cross the pool boundary
_FANOUT_FUNCS = frozenset({"solve_radius_tasks_isolated"})


def _collect_unpicklable_names(tree: ast.Module) -> set[str]:
    """Names bound to lambdas (anywhere) or to defs nested inside functions."""
    names: set[str] = set()

    class _Scope(ast.NodeVisitor):
        def __init__(self) -> None:
            self.depth = 0

        def _visit_func(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
            if self.depth > 0:
                names.add(node.name)
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1

        visit_FunctionDef = _visit_func
        visit_AsyncFunctionDef = _visit_func

        def visit_Assign(self, node: ast.Assign) -> None:
            if isinstance(node.value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            self.generic_visit(node)

    _Scope().visit(tree)
    return names


#: receiver spellings that identify ``.map`` as an executor fan-out (a bare
#: ``.map`` is too common an idiom to flag unconditionally)
_EXECUTOR_RECEIVERS = ("pool", "executor", "backend")


@register
class UnpicklableSubmitRule(Rule):
    """R004 — lambda/closure passed to ``submit``/``map`` or engine fan-out."""

    code = "R004"
    name = "unpicklable-pool-payload"
    description = (
        "lambdas and nested functions passed to ExecutionBackend.submit, "
        "ProcessPoolExecutor submit or map, or the engine fan-out cannot "
        "pickle under spawn; define the callable at module level"
    )
    severity = Severity.ERROR

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        tainted = _collect_unpicklable_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_pool_entry(node):
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            for value in values:
                if isinstance(value, ast.Lambda):
                    yield self.finding(
                        ctx,
                        value,
                        "lambda passed across the process-pool boundary; "
                        "lambdas never pickle — use a module-level function",
                    )
                elif isinstance(value, ast.Name) and value.id in tainted:
                    yield self.finding(
                        ctx,
                        value,
                        f"'{value.id}' is a nested function or lambda; it "
                        "cannot pickle under the spawn start method — move "
                        "it to module level",
                    )

    @staticmethod
    def _is_pool_entry(node: ast.Call) -> bool:
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "submit":
                return True
            if node.func.attr == "map":
                receiver = dotted_name(node.func.value)
                tail = (receiver or "").rsplit(".", 1)[-1]
                if tail in _EXECUTOR_RECEIVERS or tail.endswith(
                    tuple("_" + r for r in _EXECUTOR_RECEIVERS)
                ):
                    return True
        name = dotted_name(node.func)
        if name is None:
            return False
        return name.rsplit(".", 1)[-1] in _FANOUT_FUNCS
