"""Radius cache: an in-memory LRU tier plus an optional on-disk tier.

Numeric boundary minimizations (SLSQP multistart) dominate the cost of
non-affine FePIA analyses.  Populations of mappings frequently share
features — identical impact, bounds and origin — so the engine memoizes
solves on a value-based key:

- :class:`~repro.core.impact.AffineImpact` keys by coefficient bytes and
  intercept (value identity);
- arbitrary callables key by object identity; the cache entry keeps a strong
  reference to the impact so its ``id`` stays valid while the entry lives;
- the key also covers the feature bounds, the origin vector, the norm and
  the numeric solver settings, so a config change can never alias a stale
  result.

Cached values are :class:`~repro.core.radius.RadiusResult` objects stripped
of nothing — the engine re-labels ``feature``/``parameter`` names on a hit
(:func:`dataclasses.replace`), so one solve serves identically-shaped
features under different names.

The memory tier dies with its engine, so population studies would re-pay
every SLSQP multistart on each process start.  Given a ``path``, the cache
also keeps a disk tier: one JSON document, atomically replaced (tmp +
rename), with a version fingerprint that discards the whole file on schema
change; a corrupt or unreadable file degrades to an empty tier, never to an
error.  Disk entries are addressed by a sha256 digest of the value-based
key.  Keys with an identity-based component never reach disk: an ``id()``
means nothing in another process.  Values are converged
:class:`~repro.core.radius.RadiusResult` payloads
(:meth:`~repro.core.radius.RadiusResult.to_dict` round-trips them exactly).
"""

from __future__ import annotations

import hashlib
import os
import struct
from collections import OrderedDict
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import SolverConfig
from repro.core.features import PerformanceFeature
from repro.core.impact import AffineImpact
from repro.core.norms import L1Norm, L2Norm, LInfNorm, Norm, WeightedL2Norm
from repro.core.perturbation import PerturbationParameter
from repro.core.radius import RadiusResult
from repro.exceptions import ValidationError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.serialization import load_document, save_document

__all__ = ["RadiusCache", "norm_cache_key"]

#: disk-tier schema stamp; bump the version when the key encoding or the
#: entry schema changes incompatibly (a mismatch discards the whole file)
_FINGERPRINT = "repro-radius-store-v1"


def _count_cache_event(event: str) -> None:
    """Increment the cache hit/miss counter (only when obs is enabled)."""
    if obs_trace.enabled():
        obs_metrics.get_registry().counter(
            "repro_cache_events_total",
            help="radius-cache lookups by outcome",
            event=event,
        ).inc()


def norm_cache_key(norm: Norm) -> tuple:
    """A value-based key for the built-in norms, identity-based otherwise."""
    if isinstance(norm, WeightedL2Norm):
        return ("wl2", norm.weights.tobytes(), norm.weights.shape)
    if isinstance(norm, L2Norm):
        return ("l2",)
    if isinstance(norm, L1Norm):
        return ("l1",)
    if isinstance(norm, LInfNorm):
        return ("linf",)
    return ("norm-id", id(norm))


def _value_based(key: tuple) -> bool:
    """Whether a :meth:`RadiusCache.key_for` key holds no process-local ``id()``.

    Only the impact (slot 0) and the norm (slot 3) can be identity-keyed.
    """
    return key[0][0] != "impact-id" and key[3][0] != "norm-id"


def _encode(key: Any, out: bytearray) -> None:
    """Canonical, collision-resistant byte encoding of one key component."""
    if isinstance(key, tuple):
        out += b"t%d:" % len(key)
        for item in key:
            _encode(item, out)
    elif isinstance(key, bytes):
        out += b"b%d:" % len(key)
        out += key
    elif isinstance(key, str):
        raw = key.encode("utf-8")
        out += b"s%d:" % len(raw)
        out += raw
    elif isinstance(key, bool):
        out += b"B1" if key else b"B0"
    elif isinstance(key, int):
        raw = str(key).encode("ascii")
        out += b"i%d:" % len(raw)
        out += raw
    elif isinstance(key, float):
        out += b"f"
        out += struct.pack("<d", key)
    elif key is None:
        out += b"n"
    else:
        raise ValidationError(
            f"cache key component of type {type(key).__name__} is not encodable"
        )


def _key_digest(key: tuple) -> str:
    """sha256 hex digest of a value-based cache key (the disk-tier address)."""
    out = bytearray()
    _encode(key, out)
    return hashlib.sha256(bytes(out)).hexdigest()


class RadiusCache:
    """Bounded LRU cache of numeric radius solves, optionally backed by disk.

    ``maxsize`` bounds the memory tier only; ``maxsize == 0`` disables it
    (which keeps the engine correct for impacts whose ``__call__`` is
    stateful) while a disk tier, if any, still persists and serves
    value-keyed solves.  Only *converged* solves belong in the cache — the
    engine enforces that.
    """

    def __init__(self, maxsize: int = 256, path: "str | os.PathLike | None" = None) -> None:
        self.maxsize = int(maxsize)
        #: key -> (value, pin); the pin holds objects whose ``id`` the key uses
        self._data: OrderedDict[tuple, tuple[RadiusResult, tuple]] = OrderedDict()
        self.path = None if path is None else Path(path)
        #: disk-tier entries (digest -> payload), read on first use
        self._entries: dict[str, Any] | None = None
        self._dirty = False
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def key_for(
        self,
        feature: PerformanceFeature,
        parameter: PerturbationParameter,
        norm: Norm,
        config: SolverConfig,
    ) -> tuple:
        """Build the cache key of one (feature, parameter, norm, config) solve."""
        impact = feature.impact
        if isinstance(impact, AffineImpact):
            ikey: tuple = (
                "affine",
                impact.coefficients.tobytes(),
                impact.coefficients.shape,
                float(impact.intercept),
            )
        else:
            ikey = ("impact-id", id(impact))
        origin = np.asarray(parameter.origin, dtype=float)
        return (
            ikey,
            (float(feature.bounds.lower), float(feature.bounds.upper)),
            (origin.tobytes(), origin.shape),
            norm_cache_key(norm),
            tuple(sorted(config.numeric_kwargs().items())),
        )

    def get(self, key: tuple) -> RadiusResult | None:
        """Look up a solve in memory, then on disk; counts one hit or miss."""
        entry = self._data.get(key)
        if entry is not None:
            self._data.move_to_end(key)
            value: RadiusResult | None = entry[0]
        else:
            value = self._from_disk(key)
        if value is None:
            self.misses += 1
            _count_cache_event("miss")
        else:
            self.hits += 1
            _count_cache_event("hit")
        return value

    def put(self, key: tuple, value: RadiusResult, *, pin: tuple = ()) -> None:
        """Store a solve in memory and, when value-keyed, on disk."""
        self._remember(key, value, pin)
        if self.path is not None and _value_based(key):
            self._disk()[_key_digest(key)] = value.to_dict()
            self._dirty = True

    def save(self) -> None:
        """Atomically persist the disk tier (no-op without a path or changes)."""
        if self._dirty and save_document(self.path, _FINGERPRINT, self._entries):
            self._dirty = False

    def clear(self) -> None:
        """Drop the memory entries and reset the counters; the file stays."""
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        """Hit/miss/size counters (for logging and tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }

    # -- tiers ---------------------------------------------------------------

    def _remember(self, key: tuple, value: RadiusResult, pin: tuple) -> None:
        """Insert into the memory tier, evicting least-recently-used entries."""
        if self.maxsize == 0:
            return
        self._data[key] = (value, pin)
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def _disk(self) -> dict[str, Any]:
        """The disk-tier entries, read (or discarded) on first use."""
        if self._entries is None:
            self._entries, self._dirty = load_document(self.path, _FINGERPRINT)
        return self._entries

    def _from_disk(self, key: tuple) -> RadiusResult | None:
        """A disk hit promoted into memory, or None."""
        if self.path is None or not _value_based(key):
            return None
        entries = self._disk()
        digest = _key_digest(key)
        if digest not in entries:
            return None
        try:
            value = RadiusResult.from_dict(entries[digest])
        except (ValueError, KeyError, TypeError, AttributeError):
            # one malformed entry must not poison the file: drop it and let
            # the next save write the cleaned document
            del entries[digest]
            self._dirty = True
            return None
        self._remember(key, value, ())
        return value
