"""Counters, gauges and fixed-bucket histograms for the robustness pipeline.

A deliberately small, zero-dependency metrics core modeled on the Prometheus
data model: a :class:`MetricsRegistry` owns named metric families, each
family owns one child per label set, and the whole registry exports as JSON
(:meth:`MetricsRegistry.to_json`) or Prometheus text exposition format
(:meth:`MetricsRegistry.render_prometheus`).

The instrumented metric names (see ``docs/OBSERVABILITY.md`` for the full
taxonomy):

- ``repro_radius_solve_seconds`` — histogram of terminal per-task solve
  latency in the fault-isolated scheduler (labels: ``path=serial|pool``);
- ``repro_engine_evaluations_total`` — engine entry points
  (``kind=allocation|hiperd|population``);
- ``repro_cache_events_total`` — radius-cache ``event=hit|miss``;
- ``repro_retries_total`` / ``repro_timeouts_total`` /
  ``repro_crashes_total`` — fault-ladder events;
- ``repro_failure_records_total`` — terminal failure records by ``stage``;
- ``repro_pool_submits_total`` — futures submitted to the process pool;
- ``repro_sanitizer_events_total`` — batch-audit ``kind=violation``.

The HTTP service (:mod:`repro.serve`) adds its own family, recorded
**unconditionally** (a server always wants its request metrics, and
``GET /metrics`` scrapes this registry):

- ``repro_serve_requests_total`` — responses by ``route`` and ``code``;
- ``repro_serve_request_seconds`` — request latency histogram by ``route``;
- ``repro_serve_batches_total`` — micro-batch flushes by
  ``reason=full|idle|drain``;
- ``repro_serve_queue_wait_seconds`` — per-request wait histogram, enqueue
  to batch dispatch;
- ``repro_serve_queue_depth`` — requests waiting in the batch queue;
- ``repro_serve_rejections_total`` — shed requests by
  ``reason=quota|queue_full|draining``.

Engine-side metrics stay gated on :func:`repro.obs.trace.enabled` at every
call site — a disabled run never touches the registry from the solve path.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Any, Iterable

from repro.exceptions import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_metrics",
    "DEFAULT_LATENCY_BUCKETS",
]

#: fixed bucket upper bounds (seconds) of the solve-latency histograms;
#: spans 0.1 ms to 10 s, the observed range of SLSQP radius solves
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValidationError("counters only go up; use a Gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (pool size, cache fill, ...)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Set the current value."""
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-boundary histogram (cumulative buckets, Prometheus-style)."""

    __slots__ = ("buckets", "counts", "sum", "count", "_lock")

    def __init__(self, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValidationError("histogram buckets must be a sorted non-empty sequence")
        self.buckets = bounds
        #: per-bucket (non-cumulative) observation counts; the final slot is
        #: the implicit ``+Inf`` bucket
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        idx = bisect_left(self.buckets, float(value))
        with self._lock:
            self.counts[idx] += 1
            self.sum += float(value)
            self.count += 1

    def cumulative(self) -> list[int]:
        """Cumulative counts per bucket boundary (ending with ``+Inf``)."""
        out: list[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Bucket-boundary estimate of the ``q``-quantile (0 < q <= 1)."""
        if not 0.0 < q <= 1.0:
            raise ValidationError(f"q must be in (0, 1], got {q!r}")
        if self.count == 0:
            return float("nan")
        target = q * self.count
        for bound, cum in zip(self.buckets + (float("inf"),), self.cumulative()):
            if cum >= target:
                return bound
        return float("inf")  # pragma: no cover - cumulative always reaches count


class MetricsRegistry:
    """Named metric families, each keyed by label set."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, dict[str, Any]] = {}

    def _family(self, name: str, kind: str, help: str, **extra: Any) -> dict[str, Any]:
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = {"kind": kind, "help": help, "children": {}, **extra}
                self._families[name] = fam
            elif fam["kind"] != kind:
                raise ValidationError(
                    f"metric {name!r} already registered as {fam['kind']}, not {kind}"
                )
            return fam

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """The counter child of ``name`` for this label set (created lazily)."""
        fam = self._family(name, "counter", help)
        key = _label_key(labels)
        with self._lock:
            child = fam["children"].get(key)
            if child is None:
                child = fam["children"][key] = Counter()
        return child

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """The gauge child of ``name`` for this label set."""
        fam = self._family(name, "gauge", help)
        key = _label_key(labels)
        with self._lock:
            child = fam["children"].get(key)
            if child is None:
                child = fam["children"][key] = Gauge()
        return child

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        """The histogram child of ``name`` for this label set."""
        fam = self._family(name, "histogram", help, buckets=tuple(buckets))
        key = _label_key(labels)
        with self._lock:
            child = fam["children"].get(key)
            if child is None:
                child = fam["children"][key] = Histogram(fam["buckets"])
        return child

    # -- export --------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        """JSON-ready dump of every family and child."""
        out: dict[str, Any] = {}
        with self._lock:
            families = {name: fam for name, fam in self._families.items()}
        for name, fam in sorted(families.items()):
            children = []
            for key, child in sorted(fam["children"].items()):
                entry: dict[str, Any] = {"labels": dict(key)}
                if fam["kind"] == "histogram":
                    entry.update(
                        buckets=list(child.buckets),
                        counts=list(child.counts),
                        sum=child.sum,
                        count=child.count,
                    )
                else:
                    entry["value"] = child.value
                children.append(entry)
            out[name] = {"kind": fam["kind"], "help": fam["help"], "children": children}
        return out

    def render_json(self) -> str:
        """:meth:`to_json` serialized with stable key order."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            families = {name: fam for name, fam in self._families.items()}
        for name, fam in sorted(families.items()):
            if fam["help"]:
                lines.append(f"# HELP {name} {fam['help']}")
            lines.append(f"# TYPE {name} {fam['kind']}")
            for key, child in sorted(fam["children"].items()):
                if fam["kind"] == "histogram":
                    cum = child.cumulative()
                    bounds = [repr(float(b)) for b in child.buckets] + ["+Inf"]
                    for bound, count in zip(bounds, cum):
                        labels = _render_labels(key, (("le", bound),))
                        lines.append(f"{name}_bucket{labels} {count}")
                    lines.append(f"{name}_sum{_render_labels(key)} {child.sum}")
                    lines.append(f"{name}_count{_render_labels(key)} {child.count}")
                else:
                    lines.append(f"{name}{_render_labels(key)} {child.value}")
        return "\n".join(lines) + "\n"

    def clear(self) -> None:
        """Drop every family (used by tests and :func:`reset_metrics`)."""
        with self._lock:
            self._families.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def reset_metrics() -> None:
    """Clear the default registry (test isolation)."""
    _REGISTRY.clear()
