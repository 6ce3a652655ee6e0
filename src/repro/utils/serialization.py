"""JSON-safe encoding of floats and arrays shared by all ``to_dict`` codecs.

Robustness radii are legitimately ``inf`` (empty machines, unreachable
boundaries) and occasionally ``-inf`` (constant features beyond their
limit); strict JSON has no literal for either.  These helpers encode
non-finite floats as the strings ``"inf"`` / ``"-inf"`` / ``"nan"`` and
decode them back, so every result payload stays valid, portable JSON.

:func:`load_document` / :func:`save_document` are the file codec shared by
the on-disk caches (the engine's radius cache and the lint summary store):
one ``{"fingerprint", "entries"}`` JSON document per file.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "encode_float",
    "decode_float",
    "encode_array",
    "decode_array",
    "load_document",
    "save_document",
]


def encode_float(value: float) -> float | str:
    """A JSON-safe representation of one float (strings for non-finite)."""
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def decode_float(value) -> float:
    """Invert :func:`encode_float`."""
    if isinstance(value, str):
        if value in ("inf", "-inf", "nan"):
            return float(value)
        raise ValidationError(f"bad encoded float {value!r}")
    return float(value)


def encode_array(arr) -> list | None:
    """Encode a numeric array (any shape, ``None`` passes through)."""
    if arr is None:
        return None
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 0:
        raise ValidationError("encode_array expects at least a 1-D array")
    if arr.ndim == 1:
        return [encode_float(v) for v in arr.tolist()]
    return [encode_array(row) for row in arr]


def decode_array(data) -> np.ndarray | None:
    """Invert :func:`encode_array` (``None`` passes through)."""
    if data is None:
        return None

    def _decode(node):
        if isinstance(node, list):
            return [_decode(item) for item in node]
        return decode_float(node)

    return np.asarray(_decode(data), dtype=float)


def load_document(path: Path, fingerprint: str) -> tuple[dict[str, Any], bool]:
    """Read the entries of a fingerprinted JSON document.

    Returns ``(entries, discarded)``.  A missing, unreadable or corrupt file
    reads as empty, never as an error.  A file of another fingerprint or
    shape also reads as empty, with ``discarded`` True so the caller's next
    save overwrites it instead of re-parsing the stale file on every start.
    """
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}, False
    if (
        not isinstance(doc, dict)
        or doc.get("fingerprint") != fingerprint
        or not isinstance(doc.get("entries"), dict)
    ):
        return {}, True
    return doc["entries"], False


def save_document(path: Path, fingerprint: str, entries: dict[str, Any]) -> bool:
    """Atomically replace ``path`` (tmp + rename); False when the write failed."""
    doc = {"fingerprint": fingerprint, "entries": entries}
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(doc), encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        return False
    return True
