"""Content-addressed incremental analysis cache.

A :class:`SummaryStore` persists, per analysed file, everything the runner
needs to skip re-parsing it on the next run:

- the :class:`~repro.analysis.dataflow.summaries.ModuleSummary`,
- the raw (pre-suppression) local findings,
- the suppression-marker map and test-ness flag,
- the codes of the rules that actually ran on the file.

Entries are keyed by resolved path and validated against a sha256 of the
source bytes, so editing a file invalidates exactly that file.  The whole
store is additionally stamped with a *fingerprint* (cache format version +
the registered rule codes): adding, removing or renaming a rule discards
the store wholesale rather than serving findings from a stale rule set.

The store is a single JSON document written atomically (tmp + rename); a
corrupt or unreadable store degrades to an empty cache, never to an error.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any

from repro.analysis.dataflow.summaries import ModuleSummary
from repro.analysis.findings import Finding
from repro.utils.serialization import load_document, save_document

__all__ = ["SummaryStore", "CACHE_VERSION", "DEFAULT_CACHE_PATH", "content_hash"]

#: bump when the summary or entry schema changes incompatibly
#: (v3: concurrency facts — async/await boundaries, lock regions, task
#: spawns, blocking calls, obs-context flags — for R110–R114;
#: v4: performance facts — ndarray-typed locals, loop regions, element
#: loops, loop-invariant calls, accumulation sites — for R120–R124, plus
#: fix payloads on cached raw findings; v5: R009 lost its legacy-pool
#: checks and R004 its ``solve_radius_tasks`` fan-out name, so cached raw
#: findings from v4 may be stale; v6: the performance facts, R003, R007,
#: R009, R112 and the fix payloads are gone, so v5 summaries and raw
#: findings carry fields and codes this version no longer reads; v7: the
#: parameter-mutation facts, the pi-argument call positions, R005, R006
#: and R103 are gone)
CACHE_VERSION = 7

#: default store location used by ``repro lint`` (cwd-relative)
DEFAULT_CACHE_PATH = Path(".repro-lint-cache.json")


def content_hash(data: bytes) -> str:
    """sha256 hex digest of a file's raw bytes."""
    return hashlib.sha256(data).hexdigest()


class SummaryStore:
    """JSON-backed per-file cache of summaries + raw findings."""

    def __init__(self, path: Path | str = DEFAULT_CACHE_PATH) -> None:
        self.path = Path(path)
        self._entries: dict[str, dict[str, Any]] = {}
        self._fingerprint = ""
        self._dirty = False
        self._loaded = False

    # -- lifecycle ---------------------------------------------------------

    def load(self, fingerprint: str) -> None:
        """Read the store from disk, discarding it on any mismatch."""
        self._loaded = True
        self._fingerprint = fingerprint
        self._entries, discarded = load_document(self.path, fingerprint)
        self._dirty = self._dirty or discarded

    def save(self) -> None:
        """Atomically persist the store (no-op when nothing changed)."""
        if self._dirty and save_document(self.path, self._fingerprint, self._entries):
            self._dirty = False

    def __len__(self) -> int:
        return len(self._entries)

    # -- entries -----------------------------------------------------------

    def get(self, file_key: str, digest: str) -> dict[str, Any] | None:
        """Cached entry for *file_key* when its content hash still matches."""
        entry = self._entries.get(file_key)
        if entry is None or entry.get("hash") != digest:
            return None
        return entry

    def put(
        self,
        file_key: str,
        digest: str,
        *,
        raw_findings: list[Finding],
        markers: dict[int, frozenset[str]],
        is_test: bool,
        ran_codes: list[str],
        summary: ModuleSummary,
    ) -> None:
        """Record one freshly-analysed file."""
        self._entries[file_key] = {
            "hash": digest,
            "raw": [f.to_dict() for f in raw_findings],
            "markers": {str(line): sorted(codes) for line, codes in markers.items()},
            "is_test": is_test,
            "ran_codes": sorted(ran_codes),
            "summary": summary.to_dict(),
        }
        self._dirty = True

    @staticmethod
    def entry_findings(entry: dict[str, Any]) -> list[Finding]:
        """Deserialize the raw findings of a cache entry."""
        return [Finding.from_dict(d) for d in entry["raw"]]

    @staticmethod
    def entry_markers(entry: dict[str, Any]) -> dict[int, frozenset[str]]:
        """Deserialize the suppression-marker map of a cache entry."""
        return {
            int(line): frozenset(codes)
            for line, codes in entry["markers"].items()
        }

    @staticmethod
    def entry_summary(entry: dict[str, Any]) -> ModuleSummary:
        """Deserialize the module summary of a cache entry."""
        return ModuleSummary.from_dict(entry["summary"])
