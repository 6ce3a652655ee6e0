"""W000: stale suppression markers.

A ``# repro: noqa[CODE]`` marker earns its keep by suppressing a real
finding.  When the code it names no longer fires on that line (the
violation was fixed, the rule changed, or the code never existed), the
marker is dead weight that silently disables future findings — so the
runner flags it.

The detection itself lives in :mod:`repro.analysis.runner`, because it
needs the *raw* (pre-suppression) findings of every other rule: a marker
is stale only with respect to the rules that actually ran on its file.
This class exists so W000 appears in the rule catalog, participates in
``--select``, and can itself be suppressed — selecting W000 forces the
full rule set to run internally so staleness is always judged against
every rule.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register

__all__ = ["StaleSuppressionRule"]


@register
class StaleSuppressionRule(Rule):
    """W000: a ``# repro: noqa[CODE]`` marker that suppresses nothing."""

    code = "W000"
    name = "stale-suppression"
    description = "noqa[CODE] marker whose code no longer fires on its line"
    severity = Severity.WARNING
    applies_to_tests = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Findings are produced by the runner's suppression pass."""
        return iter(())

    def stale_finding(
        self, path: str, line: int, code: str, known: bool
    ) -> Finding:
        """One stale-marker finding (called by the runner)."""
        why = (
            f"suppression for {code} but no {code} finding on this line"
            if known
            else f"suppression names unknown rule code {code}"
        )
        return Finding(
            code=self.code,
            name=self.name,
            message=f"stale marker: {why} — remove or update the noqa",
            path=path,
            line=line,
            col=0,
            severity=self.severity,
        )
