"""Per-layer spans recorded from the benchmark's side of each layer boundary.

:func:`install` wraps the public functions through which one layer calls
the next (the table :data:`HOOKS`) with timing wrappers; nothing under
``src/`` changes.  Every wrapped call becomes a :class:`Span` with a name
(its layer), start, end, parent span and thread, and the request ids it
served where the arguments name them.  Spans stay in memory and are
written out when the run ends.

A layer's self time is its spans' duration minus the part of that interval
its child spans cover.  Solves that an execution backend runs on its own
threads have no parent on their thread; they are adopted by the open
``engine.fault`` span, the call that dispatched them.

The same wrappers implement ``--inject-slowdown LAYER=F``: every call of
that layer is stretched to F times its duration by spinning at its end,
with or without span recording.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

from common import PER_LAYER_UNITS, SHARE_LAYERS


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: int  # perf_counter_ns; CLOCK_MONOTONIC, comparable across processes
    end: int
    tid: int
    pid: int = 0
    attrs: dict | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self, pid: int = 0) -> None:
        self.spans: list[Span] = []
        self.recording = True
        self.pid = pid
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._adopter: int | None = None
        #: the request id most recently parsed on each thread; decoding the
        #: problem follows parsing with no await in between
        self.last_request = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, *, adopter: bool = False, orphan: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1].span_id if stack else (self._adopter if orphan else None)
        span = Span(
            next(self._ids), parent, name, time.perf_counter_ns(), 0,
            threading.get_ident(), self.pid,
        )
        stack.append(span)
        if adopter:
            self._adopter = span.span_id
        return span

    def close(self, span: Span, attrs: dict | None = None, *, adopter: bool = False) -> None:
        span.end = time.perf_counter_ns()
        span.attrs = attrs
        self._stack().pop()
        if adopter:
            self._adopter = None
        self.spans.append(span)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([dataclasses.asdict(s) for s in self.spans], fh)


def load_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**doc) for doc in json.load(fh)]


# -- what is wrapped ---------------------------------------------------------------


def _request_id(doc: Any) -> str | None:
    return doc.get("id") if isinstance(doc, dict) else None


@dataclass(frozen=True)
class Hook:
    """One wrapped function: its layer, where it lives, what it records."""

    layer: str
    module: str
    qualname: str
    #: ``(tracer, args, result, before) -> attrs``
    attrs: Callable[..., dict | None] | None = None
    #: ``args -> before``, evaluated before the call
    before: Callable[..., Any] | None = None
    adopter: bool = False
    orphan: bool = False


def _parse_attrs(tracer, args, result, before):
    rid = _request_id(result)
    tracer.last_request.rid = rid
    return {"rid": rid}


def _decode_attrs(tracer, args, result, before):
    return {"rid": getattr(tracer.last_request, "rid", None)}


def _serialize_attrs(tracer, args, result, before):
    return {"rid": _request_id(args[0])}


def _batch_attrs(tracer, args, result, before):
    batch = args[1]
    return {
        "rids": [item.request_id for item in batch.items],
        "waits": [batch.flushed_at - item.enqueued_at for item in batch.items],
        "reason": batch.reason,
    }


def _cache_before(args):
    cache = args[0].cache
    return cache.hits, cache.misses


def _cache_attrs(tracer, args, result, before):
    cache = args[0].cache
    return {"hits": cache.hits - before[0], "misses": cache.misses - before[1]}


def _fault_attrs(tracer, args, result, before):
    return {"failures": len(result[1])}


def _numeric_attrs(tracer, args, result, before):
    return {"converged": bool(result.converged)}


HOOKS = (
    Hook("serve.protocol.parse", "repro.serve.server", "parse_json_body", _parse_attrs),
    Hook("serve.protocol.parse", "repro.serve.server", "decode_problem", _decode_attrs),
    Hook("serve.protocol.serialize", "repro.serve.server", "dump_json", _serialize_attrs),
    Hook("serve.batch", "repro.serve.server", "RobustnessServer._run_batch", _batch_attrs),
    Hook("experiments.fig3", "repro.experiments", "run_experiment_one"),
    Hook("experiments.fig4", "repro.experiments", "run_experiment_two"),
    Hook("experiments.table2", "repro.cli", "_cmd_table2"),
    Hook("experiments.report", "repro.experiments", "report_figure3"),
    Hook("experiments.report", "repro.experiments", "report_figure4"),
    Hook("experiments.report", "repro.experiments", "report_table2"),
    Hook("engine.evaluate_allocation", "repro.engine.engine", "RobustnessEngine.evaluate_allocation"),
    Hook(
        "engine.evaluate_population", "repro.engine.engine",
        "RobustnessEngine.evaluate_population", _cache_attrs, _cache_before,
    ),
    Hook("engine.evaluate_hiperd", "repro.engine.engine", "RobustnessEngine.evaluate_hiperd"),
    Hook("hiperd.build_constraints", "repro.engine.engine", "build_constraints"),
    Hook(
        "engine.fault", "repro.engine.engine", "solve_radius_tasks_isolated",
        _fault_attrs, adopter=True,
    ),
    Hook("core.radius", "repro.engine.fault", "robustness_radius", orphan=True),
    Hook("core.solvers.numeric", "repro.core.radius", "boundary_min_norm", _numeric_attrs),
    Hook("core.solvers.numeric.minimize", "scipy.optimize", "minimize"),
)

LAYERS = tuple(dict.fromkeys(h.layer for h in HOOKS))


def _busy(seconds: float) -> None:
    """Spin in Python for ``seconds``: a slower layer holds the interpreter
    lock and a core the way the layer itself does, where a sleep would let
    the other threads run."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _wrap(fn: Callable, hook: Hook, tracer: Tracer | None, extra: float | None) -> Callable:
    """Time ``fn`` into ``tracer``; spin ``extra`` times each call's duration
    after it when the layer is slowed down."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer is None or not tracer.recording:
            if extra is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                _busy(extra * (time.perf_counter() - start))
        before = hook.before(args) if hook.before else None
        span = tracer.open(hook.layer, adopter=hook.adopter, orphan=hook.orphan)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            if extra is not None:
                _busy(extra * (time.perf_counter_ns() - span.start) / 1e9)
            attrs = hook.attrs(tracer, args, result, before) if hook.attrs and result is not None else None
            tracer.close(span, attrs, adopter=hook.adopter)

    return wrapper


def parse_slowdown(spec: str | None) -> tuple[str, float] | None:
    """``"LAYER=F"`` -> ``(LAYER, F - 1)``: the layer and the extra time per
    unit of call time.  Rejects unknown layers and factors below 1."""
    if spec is None:
        return None
    layer, _, factor = spec.partition("=")
    try:
        extra = float(factor) - 1.0
    except ValueError:
        extra = -1.0
    if layer not in LAYERS or extra < 0:
        raise SystemExit(f"--inject-slowdown: expected LAYER=F, F >= 1, LAYER one of {LAYERS}")
    return layer, extra


def install(tracer: Tracer | None, slowdown: str | None = None) -> None:
    """Wrap every hooked function (recording into ``tracer`` when given)."""
    slowed = parse_slowdown(slowdown)
    for hook in HOOKS:
        extra = slowed[1] if slowed and slowed[0] == hook.layer else None
        if tracer is None and extra is None:
            continue
        owner = importlib.import_module(hook.module)
        *path, name = hook.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, name, _wrap(getattr(owner, name), hook, tracer, extra))


# -- analysis ------------------------------------------------------------------------


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def self_times(spans: list[Span], children: dict[int, list[Span]]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    out = {}
    for span in spans:
        covered, reach = 0, span.start
        for kid in sorted(children[span.span_id], key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.span_id] = span.duration - covered
    return out


def descendants(children: dict[int, list[Span]], root: int) -> list[Span]:
    out, todo = [], [root]
    while todo:
        for kid in children[todo.pop()]:
            out.append(kid)
            todo.append(kid.span_id)
    return out


def layer_table(spans: list[Span], selfs: dict[int, int]) -> dict[str, dict]:
    """Per span name: calls, total and self milliseconds, microseconds per call."""
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += span.duration / 1e6
        row["self_ms"] += selfs[span.span_id] / 1e6
    for row in table.values():
        row["self_us_per_call"] = row["self_ms"] * 1e3 / row["calls"]
    return table


def solver_counters(spans: list[Span]) -> dict[str, float]:
    """The engine and solver ratios and counts of a set of spans."""
    hits = sum(s.attrs["hits"] for s in spans if s.name == "engine.evaluate_population" and s.attrs)
    misses = sum(s.attrs["misses"] for s in spans if s.name == "engine.evaluate_population" and s.attrs)
    radius = sum(s.name == "core.radius" for s in spans)
    numeric = [s for s in spans if s.name == "core.solvers.numeric"]
    minimize = sum(s.name == "core.solvers.numeric.minimize" for s in spans)
    return {
        "engine.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.solves_per_radius": radius / (hits + misses) if hits + misses else 0.0,
        "engine.fault.failure_records": float(
            sum(s.attrs["failures"] for s in spans if s.name == "engine.fault" and s.attrs)
        ),
        "core.solvers.numeric.minimize_calls_per_solve": minimize / len(numeric) if numeric else 0.0,
        "core.solvers.numeric.converged_frac": (
            sum(bool(s.attrs and s.attrs["converged"]) for s in numeric) / len(numeric)
            if numeric else 0.0
        ),
    }


def per_layer_metrics(shares_ns: dict[str, float], e2e_ns: float, counters: dict) -> dict:
    """Every per-layer metric; layers and counters a workload lacks read 0."""
    values = {f"{layer}.self_pct": 100.0 * shares_ns.get(layer, 0.0) / e2e_ns for layer in SHARE_LAYERS}
    values.update({name: float(counters.get(name, 0.0)) for name in PER_LAYER_UNITS if name not in values})
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def closed_loop_layers(spans: list[Span]) -> tuple[dict, dict, float]:
    """Per-layer metrics of a closed-loop workload whose operations are
    ``bench.op`` root spans; returns (metrics, layer table, traced ms)."""
    selfs = self_times(spans, _children(spans))
    ops = [s for s in spans if s.name == "bench.op"]
    e2e_ns = sum(s.duration for s in ops)
    shares: dict[str, float] = defaultdict(float)
    for span in spans:
        layer = "bench.harness" if span.name == "bench.op" else span.name
        shares[layer] += selfs[span.span_id]
    return (
        per_layer_metrics(shares, e2e_ns, solver_counters(spans)),
        layer_table(spans, selfs),
        e2e_ns / 1e6,
    )


def served_layers(spans: list[Span], record) -> tuple[dict, dict, float]:
    """Per-layer metrics of one traced latency step.

    Each request's latency (due to reply) is split into the generator's
    backlog, parse, queue wait, the batch it rode in, serialize and the
    remainder (socket, event loop, executor hop).  Every request of a
    batch waited for the whole batch, so each is charged the batch's wall
    time, split over the layers inside it in proportion to their self
    time (solves on parallel threads can overlap).
    """
    children = _children(spans)
    selfs = self_times(spans, children)
    by_rid: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    batch_of: dict[str, Span] = {}
    waits: dict[str, float] = {}
    for span in spans:
        attrs = span.attrs or {}
        if span.name in ("serve.protocol.parse", "serve.protocol.serialize") and attrs.get("rid"):
            by_rid[attrs["rid"]][span.name] += span.duration
        elif span.name == "serve.batch" and attrs:
            for rid, wait in zip(attrs["rids"], attrs["waits"]):
                batch_of[rid] = span
                waits[rid] = wait * 1e9
    measured = {batch_of[r].span_id: batch_of[r] for r in record.ids if r in batch_of}
    batch_shares: dict[int, dict[str, float]] = {}
    for bid, batch in measured.items():
        raw: dict[str, float] = defaultdict(float)
        for span in [batch, *descendants(children, bid)]:
            raw[span.name] += selfs[span.span_id]
        scale = batch.duration / sum(raw.values())
        batch_shares[bid] = {name: ns * scale for name, ns in raw.items()}
    shares: dict[str, float] = defaultdict(float)
    e2e_ns = 0.0
    for rid, due, sent, done in zip(record.ids, record.due, record.sent, record.done):
        latency = (done - due) * 1e9
        e2e_ns += latency
        parts = {
            "gen.backlog": (sent - due) * 1e9,
            "serve.protocol.parse": by_rid[rid]["serve.protocol.parse"],
            "serve.protocol.serialize": by_rid[rid]["serve.protocol.serialize"],
            "serve.batcher.queue_wait": waits.get(rid, 0.0),
        }
        accounted = sum(parts.values())
        batch = batch_of.get(rid)
        if batch is not None:
            parts.update(batch_shares[batch.span_id])
            accounted += batch.duration
        for name, ns in parts.items():
            shares[name] += ns
        shares["serve.server.other"] += latency - accounted
    batches = list(measured.values())
    counters = {
        "serve.batcher.batch_size": (
            sum(len(b.attrs["rids"]) for b in batches) / len(batches) if batches else 0.0
        ),
        "serve.batching_ratio": len(batches) / len(record.ids),
        **{
            f"serve.batcher.flushes_{reason}": float(sum(b.attrs["reason"] == reason for b in batches))
            for reason in ("full", "deadline", "drain")
        },
    }
    inner_spans = [s for b in batches for s in descendants(children, b.span_id)]
    counters.update(solver_counters(inner_spans))
    return (
        per_layer_metrics(shares, e2e_ns, counters),
        layer_table(spans, selfs),
        e2e_ns / 1e6,
    )


def chrome_events(spans: list[Span]) -> list[dict]:
    """Chrome ``trace_event`` complete events, one per span."""
    tids: dict[tuple[int, int], int] = {}
    origin = min((s.start for s in spans), default=0)
    events = []
    for span in spans:
        tid = tids.setdefault((span.pid, span.tid), len(tids))
        args = {"span_id": span.span_id, "parent_id": span.parent}
        for key, value in (span.attrs or {}).items():
            if key != "waits":
                args[key] = value
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) / 1e3,
                "dur": span.duration / 1e3,
                "pid": span.pid,
                "tid": tid,
                "args": args,
            }
        )
    return events


def write_chrome_trace(spans: list[Span], path) -> list[str]:
    """Write the trace and return the problems ``repro.obs`` finds in it."""
    from repro.obs import validate_chrome_trace

    doc = {"traceEvents": chrome_events(spans), "displayTimeUnit": "ms"}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return validate_chrome_trace(doc)
