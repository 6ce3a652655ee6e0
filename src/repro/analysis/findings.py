"""Finding and severity types of the static-analysis layer.

A :class:`Finding` is one rule violation at one source location.  Findings
are plain frozen dataclasses so reporters (:mod:`repro.analysis.reporters`)
and the CLI can serialize them without knowing anything about the rule that
produced them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

__all__ = ["Severity", "Finding"]


class Severity(enum.Enum):
    """How hard a rule's violations break the library's contracts.

    ``ERROR`` rules guard invariants whose violation corrupts results
    (replayability, pickle transport, failure records); ``WARNING`` flags lint
    hygiene (a stale suppression marker).  Both fail the lint gate; the
    level is informational.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    #: rule code, e.g. ``"R001"``
    code: str
    #: short rule name, e.g. ``"legacy-global-rng"``
    name: str
    #: human-readable explanation of this specific violation
    message: str
    #: path of the offending file (as given to the runner)
    path: str
    #: 1-based line number
    line: int
    #: 0-based column offset
    col: int
    #: severity level of the rule that fired
    severity: Severity = Severity.ERROR

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (used by the ``--format json`` reporter)."""
        return {
            "code": self.code,
            "name": self.name,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Finding":
        """Inverse of :meth:`to_dict` (used by the incremental cache)."""
        return cls(
            code=d["code"],
            name=d["name"],
            message=d["message"],
            path=d["path"],
            line=d["line"],
            col=d["col"],
            severity=Severity(d["severity"]),
        )

    def location(self) -> str:
        """``path:line:col`` prefix used by the text reporter."""
        return f"{self.path}:{self.line}:{self.col}"
