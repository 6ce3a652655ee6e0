"""Zero-dependency structured tracing for the robustness pipeline.

A :class:`Span` is one timed operation (an engine evaluation, a pooled
radius solve, a retry attempt); a :class:`Tracer` collects finished spans
into a bounded in-memory buffer.  The ambient *current span* is tracked
with :mod:`contextvars`, so nested instrumented calls parent correctly even
across threads, and :class:`SpanContext` — the ``(trace_id, span_id)`` pair
— is a plain picklable dataclass, so a parent span's identity can ride a
process-pool submission and the worker's spans re-attach to the right trace
when they are shipped back (:meth:`Tracer.ingest`).

Observability is **off by default**: every instrumentation point in the
engine/fault/pool/cache/sanitize layers guards on :func:`enabled` (one
module-global attribute read), and :func:`maybe_span` returns a shared
no-op context manager while disabled, so a disabled run executes the exact
same numeric code as an uninstrumented one — results are bit-for-bit
identical and the measured overhead is bounded by
``benchmarks/test_bench_obs.py``.

Typical use::

    from repro import obs

    with obs.observed() as tracer:
        engine.evaluate_population(problems, on_error="record")
    spans = tracer.export()          # list of dicts, JSON-ready
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.exceptions import ValidationError

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "TracedResult",
    "enabled",
    "enable",
    "disable",
    "observed",
    "get_tracer",
    "maybe_span",
    "current_context",
]

#: span buffer capacity of a default-constructed tracer; the oldest spans
#: are dropped first when a pathological run overflows it
DEFAULT_CAPACITY = 100_000

_ids = itertools.count(1)
_trace_ids = itertools.count(1)
_id_lock = threading.Lock()


def _next_span_id() -> str:
    with _id_lock:
        return f"s{next(_ids):08x}"


def _next_trace_id() -> str:
    with _id_lock:
        return f"t{next(_trace_ids):08x}-{os.getpid()}"


@dataclass(frozen=True)
class SpanContext:
    """Picklable identity of a span — crosses the process-pool boundary.

    Workers receive the submitting span's context inside the task payload,
    parent their own spans to ``span_id``, and return the finished spans to
    the parent process, where :meth:`Tracer.ingest` files them under the
    same ``trace_id``.
    """

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One timed, named, attributed operation."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    #: monotonic start, ns (:func:`time.perf_counter_ns` of this process)
    start_ns: int
    #: monotonic end, ns; 0 while the span is open
    end_ns: int = 0
    #: ``"ok"`` or ``"error"``
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)
    #: os pid the span was recorded in (chrome trace lane)
    pid: int = field(default_factory=os.getpid)

    @property
    def duration_s(self) -> float:
        """Span duration in seconds (0.0 while still open)."""
        if self.end_ns == 0:
            return 0.0
        return (self.end_ns - self.start_ns) / 1e9

    def set_attr(self, key: str, value: Any) -> None:
        """Attach one attribute (JSON-encodable values only by convention)."""
        self.attrs[key] = value

    def context(self) -> SpanContext:
        """The picklable identity of this span."""
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready encoding (also the cross-process wire format)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": int(self.start_ns),
            "end_ns": int(self.end_ns),
            "status": self.status,
            "attrs": dict(self.attrs),
            "pid": int(self.pid),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Decode a payload written by :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=data.get("parent_id"),
            start_ns=int(data["start_ns"]),
            end_ns=int(data.get("end_ns", 0)),
            status=str(data.get("status", "ok")),
            attrs=dict(data.get("attrs", {})),
            pid=int(data.get("pid", 0)),
        )


@dataclass(frozen=True)
class TracedResult:
    """A worker's return value plus the spans it recorded (picklable).

    Pool workers only produce this when the submission carried a
    :class:`SpanContext`; the fault scheduler unwraps it immediately and
    ingests the spans, so nothing downstream of the fault layer ever sees it.
    """

    result: Any
    spans: tuple[dict[str, Any], ...]


#: the ambient span context of the current logical thread of execution
_current: ContextVar[SpanContext | None] = ContextVar("repro_obs_current", default=None)


class Tracer:
    """Collector of finished spans (bounded, thread-safe appends).

    One tracer is active at a time (:func:`enable` installs it); spans from
    pool workers arrive as dicts via :meth:`ingest`.
    """

    def __init__(self, *, capacity: int = DEFAULT_CAPACITY) -> None:
        if int(capacity) <= 0:
            raise ValidationError("capacity must be >= 1")
        self._spans: deque[Span] = deque(maxlen=int(capacity))
        self._lock = threading.Lock()
        #: spans dropped because the buffer was full
        self.dropped = 0
        self.trace_id = _next_trace_id()

    def __len__(self) -> int:
        return len(self._spans)

    # -- span lifecycle ------------------------------------------------------
    def start_span(
        self,
        name: str,
        *,
        parent: SpanContext | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; the parent defaults to the ambient current span."""
        if parent is None:
            parent = _current.get()
        return Span(
            name=name,
            trace_id=parent.trace_id if parent is not None else self.trace_id,
            span_id=_next_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            start_ns=time.perf_counter_ns(),
            attrs=dict(attrs),
        )

    def finish(self, span: Span, *, status: str = "ok") -> None:
        """Close a span and append it to the buffer."""
        if span.end_ns == 0:
            span.end_ns = time.perf_counter_ns()
        span.status = status
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Context manager: open, make current, finish (status from outcome)."""
        sp = self.start_span(name, **attrs)
        token = _current.set(sp.context())
        try:
            yield sp
        except BaseException:
            _current.reset(token)
            self.finish(sp, status="error")
            raise
        _current.reset(token)
        self.finish(sp)

    def event(self, name: str, **attrs: Any) -> Span:
        """A zero-duration instant span (retry markers, submissions)."""
        sp = self.start_span(name, **attrs)
        sp.end_ns = sp.start_ns
        self.finish(sp)
        return sp

    # -- cross-process -------------------------------------------------------
    def ingest(self, spans: Iterable[dict[str, Any]]) -> int:
        """File spans shipped back from a worker process; returns the count."""
        n = 0
        for payload in spans:
            with self._lock:
                if len(self._spans) == self._spans.maxlen:
                    self.dropped += 1
                self._spans.append(Span.from_dict(payload))
            n += 1
        return n

    # -- output --------------------------------------------------------------
    def spans(self) -> list[Span]:
        """A snapshot of the finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def export(self) -> list[dict[str, Any]]:
        """JSON-ready snapshot of the finished spans."""
        return [s.to_dict() for s in self.spans()]

    def clear(self) -> None:
        """Drop every buffered span."""
        with self._lock:
            self._spans.clear()
            self.dropped = 0


class _NullSpan:
    """The do-nothing span yielded while observability is disabled."""

    __slots__ = ()

    def set_attr(self, key: str, value: Any) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _State:
    """Module-global on/off switch plus the installed tracer."""

    __slots__ = ("on", "tracer")

    def __init__(self) -> None:
        self.on = False
        self.tracer: Tracer | None = None


_STATE = _State()


def enabled() -> bool:
    """Whether observability is currently on (one attribute read)."""
    return _STATE.on


def get_tracer() -> Tracer | None:
    """The installed tracer (None while disabled)."""
    return _STATE.tracer


def enable(tracer: Tracer | None = None) -> Tracer:
    """Turn observability on, installing ``tracer`` (or a fresh one)."""
    if tracer is None:
        tracer = _STATE.tracer if _STATE.tracer is not None else Tracer()
    _STATE.tracer = tracer
    _STATE.on = True
    return tracer


def disable() -> None:
    """Turn observability off (the tracer and its spans are kept)."""
    _STATE.on = False


@contextmanager
def observed(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Enable observability for a block; restores the previous state after.

    ::

        with observed() as tracer:
            engine.evaluate_allocation(mappings, etc, tau)
        breakdown = stage_breakdown(tracer.spans())
    """
    prev_on, prev_tracer = _STATE.on, _STATE.tracer
    active = enable(tracer if tracer is not None else Tracer())
    try:
        yield active
    finally:
        _STATE.on = prev_on
        _STATE.tracer = prev_tracer


def maybe_span(name: str, **attrs: Any) -> Any:
    """A real span when observability is on, the shared no-op otherwise.

    The instrumentation idiom of the hot paths::

        with obs.maybe_span("engine.evaluate_allocation", n=len(pop)) as sp:
            ...
            sp.set_attr("cache_hits", hits)   # no-op while disabled
    """
    if not _STATE.on or _STATE.tracer is None:
        return _NULL_SPAN
    return _STATE.tracer.span(name, **attrs)


def current_context() -> SpanContext | None:
    """The picklable context of the ambient span (None when disabled/idle).

    This is what rides a process-pool submission: the worker passes it as
    ``parent=`` so its spans join the submitting trace.
    """
    if not _STATE.on:
        return None
    return _current.get()


def activate(ctx: SpanContext | None) -> Any:
    """Set the ambient span context (worker-side); returns the reset token."""
    return _current.set(ctx)


def deactivate(token: Any) -> None:
    """Undo :func:`activate`."""
    _current.reset(token)
