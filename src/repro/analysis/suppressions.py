"""Inline suppression comments: ``# repro: noqa[CODE]``.

A finding on line *n* is suppressed when line *n* carries a marker naming
its code (``# repro: noqa[R001]``, multiple codes comma-separated:
``# repro: noqa[R001,R101]``) or a blanket marker (``# repro: noqa``).
Matching is case-insensitive in the codes and tolerant of spaces.

The project convention (enforced socially, not mechanically) is that every
in-tree suppression carries a trailing justification, e.g.::

    np.random.seed(0)  # repro: noqa[R001] - reproduces a legacy script

Standard ``# noqa`` comments are *not* honoured — the marker is namespaced
on purpose so this layer never fights with flake8/ruff semantics.
"""

from __future__ import annotations

import io
import re
import tokenize

__all__ = [
    "suppressed_codes",
    "collect_markers",
    "collect_comment_markers",
]

_NOQA = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9 ,]+)\])?", re.IGNORECASE
)

#: sentinel meaning "every code is suppressed on this line"
_ALL = frozenset({"*"})


def suppressed_codes(line: str) -> frozenset[str]:
    """Codes suppressed by *line*'s comment, ``{"*"}`` for a blanket marker,
    empty when the line carries no marker."""
    m = _NOQA.search(line)
    if m is None:
        return frozenset()
    codes = m.group("codes")
    if codes is None:
        return _ALL
    return frozenset(c.strip().upper() for c in codes.split(",") if c.strip())


def collect_markers(lines: list[str]) -> dict[int, frozenset[str]]:
    """1-based line -> suppressed codes for every line carrying a marker
    (``{"*"}`` for blanket markers), by plain line scanning."""
    markers: dict[int, frozenset[str]] = {}
    for i, line in enumerate(lines, start=1):
        codes = suppressed_codes(line)
        if codes:
            markers[i] = codes
    return markers


def collect_comment_markers(source: str) -> dict[int, frozenset[str]]:
    """Like :func:`collect_markers`, but only honours markers in *actual
    comment tokens* — a ``# repro: noqa[...]`` quoted inside a docstring is
    documentation, not a suppression.  Falls back to line scanning when the
    source does not tokenize (the caller has already parsed it, so this is
    a near-impossible edge).  Used by the runner, including the W000
    stale-marker pass."""
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return collect_markers(source.splitlines())
    markers: dict[int, frozenset[str]] = {}
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        codes = suppressed_codes(tok.string)
        if codes:
            line = tok.start[0]
            markers[line] = markers.get(line, frozenset()) | codes
    return markers
