"""Rule base class and registry.

Every checker subclasses :class:`Rule`, declares a unique ``code`` /
``name`` / ``severity`` / ``description``, and registers itself with the
:func:`register` decorator.  The runner instantiates one rule object per
file and calls :meth:`Rule.check` with the file's :class:`~repro.analysis.
context.FileContext`; the rule yields :class:`~repro.analysis.findings.
Finding` objects.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.dataflow.project import ProjectContext

__all__ = ["Rule", "ProjectRule", "register", "all_rules", "get_rules", "rule_catalog"]


class Rule(ABC):
    """One static-analysis rule.

    Subclasses set the class attributes and implement :meth:`check`.  The
    :meth:`finding` helper stamps the rule's code/name/severity onto a
    message + AST node, so checker bodies stay terse.
    """

    #: unique rule code (``R\d{3}``); used by ``--select`` and ``noqa``
    code: str = ""
    #: short kebab-case rule name
    name: str = ""
    #: one-line description shown by ``repro lint --list-rules``
    description: str = ""
    severity: Severity = Severity.ERROR
    #: whether the rule applies to test code (determinism rules do not)
    applies_to_tests: bool = True

    @abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
    ) -> Finding:
        return Finding(
            code=self.code,
            name=self.name,
            message=message,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            severity=self.severity,
        )


class ProjectRule(Rule):
    """A rule that needs the whole project, not one file.

    Project rules run after the per-file summary phase, against the
    :class:`~repro.analysis.dataflow.project.ProjectContext` built from
    every analysed module.  Their findings still carry per-file locations,
    so suppression markers and ``applies_to_tests`` filtering work exactly
    as for local rules.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Project rules contribute nothing in the per-file phase."""
        return iter(())

    @abstractmethod
    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        """Yield findings across the whole project."""

    def finding_at(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
    ) -> Finding:
        """Construct a finding at an explicit location (no AST node)."""
        return Finding(
            code=self.code,
            name=self.name,
            message=message,
            path=path,
            line=line,
            col=col,
            severity=self.severity,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry.

    Codes must be unique — a collision is a programming error in the
    analysis package itself, so it raises immediately at import time.
    """
    if not cls.code or not cls.name:
        raise ValueError(f"rule {cls.__name__} must define code and name")
    if cls.code in _REGISTRY:
        raise ValueError(
            f"duplicate rule code {cls.code}: {cls.__name__} vs "
            f"{_REGISTRY[cls.code].__name__}"
        )
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> dict[str, type[Rule]]:
    """Code -> rule class for every registered rule (import side effect of
    :mod:`repro.analysis.checks`)."""
    import repro.analysis.checks  # noqa: F401  - registers the built-in rules

    return dict(sorted(_REGISTRY.items()))


def get_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate the selected rules (all of them when *select* is None).

    Raises :class:`KeyError` naming the first unknown code, so the CLI can
    turn it into a usage error (exit status 2).
    """
    registry = all_rules()
    if select is None:
        return [cls() for cls in registry.values()]
    rules = []
    for code in select:
        code = code.strip().upper()
        if not code:
            continue
        if code not in registry:
            raise KeyError(code)
        rules.append(registry[code]())
    return rules


def rule_catalog() -> list[tuple[str, str, str, str]]:
    """(code, name, severity, description) rows for ``--list-rules`` and docs."""
    return [
        (cls.code, cls.name, cls.severity.value, cls.description)
        for cls in all_rules().values()
    ]
