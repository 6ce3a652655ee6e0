"""The asyncio robustness server: HTTP front-end over a shared engine.

:class:`RobustnessServer` binds a stdlib ``asyncio.start_server`` listener
and speaks just enough HTTP/1.1 (request line, headers, ``Content-Length``
framing, keep-alive) to serve the JSON protocol of
:mod:`repro.serve.protocol` with **zero dependencies beyond the standard
library**:

========================  =====================================================
``GET  /healthz``         liveness + protocol/backend/queue introspection
``GET  /metrics``         Prometheus text (the shared :mod:`repro.obs` registry)
``POST /evaluate``        one problem → one outcome
``POST /evaluate_population``  many problems → aligned outcomes
``POST /robustness_curve``     tau sweep → :class:`~repro.api.RobustnessCurve`
========================  =====================================================

Requests do **not** each get an engine call.  Data-plane requests enter the
:class:`~repro.serve.batcher.BatchQueue` and leave as coalesced batches —
at once when no batch is in flight (checked once per loop tick, so a
population request rides together), else when the batches in flight
complete, when full, or at drain — so concurrent clients share stacked
:meth:`~repro.engine.RobustnessEngine.evaluate_allocation` /
:meth:`~repro.engine.RobustnessEngine.evaluate_population` passes.  Batches
execute on a single-thread executor: the engine sees one call at a time
(on the default ``serial`` backend numeric solves run inline on that
thread; a ``process`` backend fans them out to worker processes), and the
event loop never blocks.  Each request completes through a future parked
in its queue payload, so a fault mid-batch degrades exactly the requests
it belongs to (``on_error="record"`` failure records ride the JSON
response) and the co-batched neighbors still get their bit-for-bit
answers.

Load shedding is explicit: per-client token buckets
(:class:`~repro.serve.quotas.ClientQuotas`, keyed by ``X-Client-Id`` or
peer address) and the bounded queue both answer **429 with a
``Retry-After`` hint**; a draining server answers **503**.
:meth:`RobustnessServer.stop` is a graceful drain — stop accepting, flush
every pending batch, wait for in-flight work, then close.

Observability rides the existing substrate: ``repro_serve_*`` metrics are
recorded unconditionally on the shared registry (scraped by ``/metrics``),
and when tracing is enabled the span context active at dispatch time is
re-activated inside the executor thread, so ``serve.batch`` spans parent
the engine's ``fault.task`` spans across the pool boundary.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro.exceptions import ReproError, ValidationError
from repro.serve.batcher import Batch, BatchQueue, QueueFullError
from repro.serve.protocol import (
    DEFAULT_MAX_BODY_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_problem,
    dump_json,
    error_outcome,
    outcome,
    parse_json_body,
    response_envelope,
)
from repro.serve.quotas import ClientQuotas
from repro.utils.clock import get_clock

if TYPE_CHECKING:
    from repro.engine import RobustnessEngine

__all__ = ["ServeConfig", "RobustnessServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: histogram buckets for request latency (seconds)
_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)
#: histogram buckets for the wait from enqueue to batch dispatch (seconds)
_QUEUE_WAIT_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1, 1.0)

_MAX_HEADERS = 100


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`RobustnessServer`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`RobustnessServer.port` after start — the test-harness idiom).
    ``rate <= 0`` disables quotas.  ``allow_fault_injection`` unlocks the
    wire protocol's ``fault`` feature field and exists **for chaos-testing
    harnesses only**.
    """

    host: str = "127.0.0.1"
    port: int = 8471
    #: flush a coalescing group at this many requests
    max_batch: int = 16
    #: total waiting requests before 429 backpressure
    max_pending: int = 1024
    #: per-client token refill per second (<= 0 disables quotas)
    rate: float = 0.0
    #: per-client bucket capacity
    burst: float = 8.0
    #: engine execution backend name (None = engine default resolution:
    #: ``REPRO_BACKEND``, then ``pool_size``, which gives ``"serial"``)
    backend: str | None = None
    #: cap on request body size (413 beyond it)
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    #: honor ``fault`` specs in wire features (chaos harnesses only)
    allow_fault_injection: bool = False


@dataclass
class _PendingWork:
    """The payload parked in the batch queue for one data-plane request."""

    problem: Any
    #: asyncio future completed with this request's outcome dict
    completion: asyncio.Future = field(repr=False, default=None)  # type: ignore[assignment]


class RobustnessServer:
    """Serve robustness evaluations over HTTP (see module docstring).

    Parameters
    ----------
    config:
        Tunables; None uses :class:`ServeConfig` defaults.
    engine:
        A pre-built :class:`~repro.engine.RobustnessEngine` to share.  None
        constructs one on ``config.backend`` — the normal path; injecting an
        engine is the hook chaos tests use to pin an isolating backend.
    retry_policy:
        Optional :class:`~repro.engine.fault.RetryPolicy` threaded into
        population evaluations.  Chaos tests pass ``escalate=False`` so a
        healthy task requeued after a co-batched worker crash re-solves with
        attempt-0 parameters and stays bit-for-bit equal to a fault-free run.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        engine: "RobustnessEngine | None" = None,
        retry_policy=None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        if self.config.max_batch < 1:
            raise ValidationError("max_batch must be >= 1")
        if engine is None:
            from repro.engine import RobustnessEngine

            engine = RobustnessEngine(backend=self.config.backend)
        self.engine = engine
        self.retry_policy = retry_policy
        self._queue = BatchQueue(
            max_batch=self.config.max_batch, max_pending=self.config.max_pending
        )
        self._quotas = ClientQuotas(self.config.rate, self.config.burst)
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-dispatch"
        )
        self._kick_scheduled = False
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._connections: set[asyncio.StreamWriter] = set()
        self._draining = False
        self.port: int | None = None
        #: engine calls dispatched (denominator of the batching ratio lives
        #: in ``repro_serve_requests_total``)
        self.n_engine_calls = 0
        self.n_requests = 0

    # -- time / metrics --------------------------------------------------------
    @staticmethod
    def _now() -> float:
        return get_clock().monotonic()

    @staticmethod
    def _registry():
        return obs.get_registry()

    def _count_request(self, route: str, code: int) -> None:
        self._registry().counter(
            "repro_serve_requests_total",
            "HTTP requests served, by route and status code",
            route=route,
            code=str(code),
        ).inc()

    def _observe_latency(self, route: str, seconds: float) -> None:
        self._registry().histogram(
            "repro_serve_request_seconds",
            "request wall time, enqueue to response",
            buckets=_LATENCY_BUCKETS,
            route=route,
        ).observe(seconds)

    def _set_queue_depth(self) -> None:
        self._registry().gauge(
            "repro_serve_queue_depth", "requests waiting in the micro-batch queue"
        ).set(self._queue.n_pending)

    def _count_rejection(self, reason: str) -> None:
        self._registry().counter(
            "repro_serve_rejections_total",
            "requests shed before evaluation, by reason",
            reason=reason,
        ).inc()

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: refuse new work, finish everything accepted."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # flush whatever is still coalescing, then let dispatch finish
        self._dispatch_all(self._queue.flush_all())
        while self._dispatch_tasks:
            await asyncio.gather(*list(self._dispatch_tasks), return_exceptions=True)
        for writer in list(self._connections):
            writer.close()
        self._executor.shutdown(wait=True)

    @property
    def draining(self) -> bool:
        """Whether the server has begun its graceful shutdown."""
        return self._draining

    # -- batch dispatch --------------------------------------------------------
    def _dispatch_all(self, batches: list[Batch]) -> None:
        for batch in batches:
            self._dispatch(batch)
        self._set_queue_depth()

    def _dispatch(self, batch: Batch) -> None:
        """Hand a flushed batch to the engine executor (never blocks)."""
        assert self._loop is not None
        registry = self._registry()
        registry.counter(
            "repro_serve_batches_total",
            "batches flushed to the engine, by flush reason",
            reason=batch.reason,
        ).inc()
        wait = registry.histogram(
            "repro_serve_queue_wait_seconds",
            "per-request wait from enqueue to batch dispatch",
            buckets=_QUEUE_WAIT_BUCKETS,
        )
        for req in batch.items:
            wait.observe(batch.flushed_at - req.enqueued_at)
        self.n_engine_calls += 1
        ctx = obs.current_context()
        task = self._loop.create_task(self._complete_batch(batch, ctx))
        self._dispatch_tasks.add(task)
        task.add_done_callback(self._dispatch_tasks.discard)

    async def _complete_batch(self, batch: Batch, ctx) -> None:
        assert self._loop is not None
        try:
            outcomes = await self._loop.run_in_executor(
                self._executor, partial(self._run_batch, batch, ctx)
            )
        except Exception as err:  # noqa: BLE001 - answered, not swallowed
            outcomes = [error_outcome(f"{type(err).__name__}: {err}")] * len(batch)
        # requests that coalesced behind this batch go to the engine first
        self._dispatch_all(self._queue.retire(batch))
        for req, out in zip(batch.items, outcomes):
            completion = req.payload.completion
            if not completion.done():
                completion.set_result(out)

    def _run_batch(self, batch: Batch, ctx) -> list[dict]:
        """Evaluate one batch on the engine (executor thread)."""
        token = obs.activate(ctx) if ctx is not None else None
        try:
            with obs.maybe_span(
                "serve.batch", kind=str(batch.key[0]), n=len(batch), reason=batch.reason
            ):
                if batch.key[0] == "allocation":
                    return self._run_allocation_batch(batch)
                return self._run_fepia_batch(batch)
        finally:
            if token is not None:
                obs.deactivate(token)

    def _run_allocation_batch(self, batch: Batch) -> list[dict]:
        problems = [req.payload.problem for req in batch.items]
        first = problems[0]
        mappings = np.stack([p.mapping for p in problems])
        try:
            res = self.engine.evaluate_allocation(mappings, first.etc, first.tau)
        except ReproError as err:
            return [error_outcome(f"{type(err).__name__}: {err}") for _ in problems]
        return [outcome(res.result_for(i).to_dict()) for i in range(len(problems))]

    def _run_fepia_batch(self, batch: Batch) -> list[dict]:
        problems = [req.payload.problem for req in batch.items]
        try:
            res = self.engine.evaluate_population(
                [(p.features, p.parameter) for p in problems],
                on_error="record",
                retry_policy=self.retry_policy,
            )
        except ReproError as err:
            return [error_outcome(f"{type(err).__name__}: {err}") for _ in problems]
        return [
            outcome(
                res[i].to_dict(),
                [f.to_dict() for f in res.failures_for(i)],
            )
            for i in range(len(problems))
        ]

    # -- request intake --------------------------------------------------------
    async def _submit(self, problem, request_id: str | None) -> dict:
        """Enqueue one decoded problem; resolves with its outcome dict."""
        assert self._loop is not None
        work = _PendingWork(problem=problem, completion=self._loop.create_future())
        _, full_batches = self._queue.add(problem.key, work, request_id=request_id)
        self._dispatch_all(full_batches)
        # one idle check per loop tick, after every arrival of this tick has
        # been enqueued; with a batch in flight its completion dispatches
        if not self._kick_scheduled and not self._queue.n_in_flight:
            self._kick_scheduled = True
            self._loop.call_soon(self._kick)
        return await work.completion

    def _kick(self) -> None:
        self._kick_scheduled = False
        self._dispatch_all(self._queue.ready())

    # -- HTTP plumbing ---------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                keep_alive = await self._route(request, reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away; nothing to answer
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str]] | None:
        try:
            line = await reader.readline()
        except ValueError:
            return None  # request line over the stream limit
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            return None  # header section absurdly long
        return method, target, headers

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: dict[str, str]
    ) -> bytes | None:
        """The request body, or None when it must be rejected (413)."""
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return None
        if length < 0 or length > self.config.max_body_bytes:
            return None
        if length == 0:
            return b""
        return await reader.readexactly(length)

    @staticmethod
    def _client_id(headers: dict[str, str], writer: asyncio.StreamWriter) -> str:
        explicit = headers.get("x-client-id")
        if explicit:
            return explicit
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if peer else "unknown"

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        *,
        content_type: str = "application/json",
        extra_headers: tuple[tuple[str, str], ...] = (),
        keep_alive: bool = True,
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        )
        for name, value in extra_headers:
            head += f"{name}: {value}\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()

    async def _reject(
        self,
        writer: asyncio.StreamWriter,
        route: str,
        status: int,
        message: str,
        *,
        retry_after: float | None = None,
        request_id: str | None = None,
    ) -> bool:
        extra: tuple[tuple[str, str], ...] = ()
        if retry_after is not None:
            extra = (("Retry-After", str(max(1, int(np.ceil(retry_after))))),)
        body = dump_json(
            response_envelope(
                request_id, {"ok": False, "result": None, "failures": [], "error": message}
            )
        )
        self._count_request(route, status)
        await self._respond(writer, status, body, extra_headers=extra)
        return True

    # -- routing ---------------------------------------------------------------
    async def _route(
        self,
        request: tuple[str, str, dict[str, str]],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        method, target, headers = request
        route = target.split("?", 1)[0]
        started = self._now()
        if route == "/healthz" or route == "/metrics":
            if method != "GET":
                return await self._reject(writer, route, 405, f"{route} is GET-only")
            if route == "/healthz":
                return await self._get_healthz(writer)
            return await self._get_metrics(writer)
        if route not in ("/evaluate", "/evaluate_population", "/robustness_curve"):
            return await self._reject(writer, route, 404, f"unknown route {route!r}")
        if method != "POST":
            return await self._reject(writer, route, 405, f"{route} is POST-only")

        body = await self._read_body(reader, headers)
        if body is None:
            return await self._reject(
                writer, route, 413, "request body missing, malformed or over the size cap"
            )
        if self._draining:
            self._count_rejection("draining")
            return await self._reject(writer, route, 503, "server is draining")
        wait = self._quotas.try_acquire(self._client_id(headers, writer))
        if wait > 0:
            self._count_rejection("quota")
            return await self._reject(
                writer, route, 429, "client quota exhausted", retry_after=wait
            )

        try:
            doc = parse_json_body(body)
            request_id = doc.get("id")
            if request_id is not None and not isinstance(request_id, str):
                raise ProtocolError("id must be a string when present")
            if route == "/evaluate":
                payload = await self._post_evaluate(doc)
            elif route == "/evaluate_population":
                payload = await self._post_population(doc)
            else:
                payload = await self._post_curve(doc)
        except ProtocolError as err:
            return await self._reject(writer, route, 400, str(err))
        except QueueFullError as err:
            self._count_rejection("queue_full")
            return await self._reject(writer, route, 429, str(err), retry_after=1.0)
        self.n_requests += 1
        self._count_request(route, 200)
        self._observe_latency(route, self._now() - started)
        await self._respond(writer, 200, dump_json(payload))
        return True

    @property
    def backend_name(self) -> str:
        """Name of the execution backend the engine resolves to."""
        from repro.engine.backends import resolve_backend

        return resolve_backend(self.engine.backend, self.engine.config.pool_size).name

    async def _get_healthz(self, writer: asyncio.StreamWriter) -> bool:
        payload = {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "backend": self.backend_name,
            "queue_depth": self._queue.n_pending,
            "n_requests": self.n_requests,
            "n_engine_calls": self.n_engine_calls,
        }
        self._count_request("/healthz", 200)
        await self._respond(writer, 200, dump_json(payload))
        return True

    async def _get_metrics(self, writer: asyncio.StreamWriter) -> bool:
        self._set_queue_depth()
        self._count_request("/metrics", 200)
        text = self._registry().render_prometheus()
        await self._respond(
            writer,
            200,
            text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )
        return True

    async def _post_evaluate(self, doc: dict) -> dict:
        if "problem" not in doc:
            raise ProtocolError("/evaluate body must carry a 'problem' object")
        problem = decode_problem(
            doc["problem"], allow_faults=self.config.allow_fault_injection
        )
        request_id = doc.get("id")
        result = await self._submit(problem, request_id)
        return response_envelope(request_id, result)

    async def _post_population(self, doc: dict) -> dict:
        problems_spec = doc.get("problems")
        if not isinstance(problems_spec, list) or not problems_spec:
            raise ProtocolError(
                "/evaluate_population body must carry a non-empty 'problems' array"
            )
        problems = [
            decode_problem(spec, allow_faults=self.config.allow_fault_injection)
            for spec in problems_spec
        ]
        request_id = doc.get("id")
        outcomes = await asyncio.gather(
            *(self._submit(p, request_id) for p in problems)
        )
        return response_envelope(
            request_id,
            {
                "ok": all(o["ok"] for o in outcomes),
                "outcomes": list(outcomes),
            },
        )

    async def _post_curve(self, doc: dict) -> dict:
        assert self._loop is not None
        from repro.api import robustness_curve
        from repro.serve.protocol import _decode_matrix  # shared validation

        etc = _decode_matrix(doc.get("etc"), "body.etc")
        mappings_spec = doc.get("mappings")
        if not isinstance(mappings_spec, list) or not mappings_spec:
            raise ProtocolError("body.mappings must be a non-empty array")
        mappings = np.asarray(mappings_spec)
        if mappings.ndim != 2 or not np.issubdtype(mappings.dtype, np.integer):
            raise ProtocolError("body.mappings must be a 2-D integer array")
        taus_spec = doc.get("taus")
        if not isinstance(taus_spec, list) or not taus_spec:
            raise ProtocolError("body.taus must be a non-empty array")
        request_id = doc.get("id")
        ctx = obs.current_context()

        def run() -> dict:
            token = obs.activate(ctx) if ctx is not None else None
            try:
                curve = robustness_curve(mappings, etc, [float(t) for t in taus_spec])
            except ReproError as err:
                return error_outcome(f"{type(err).__name__}: {err}")
            finally:
                if token is not None:
                    obs.deactivate(token)
            return outcome(curve.to_dict())

        self.n_engine_calls += 1
        result = await self._loop.run_in_executor(self._executor, run)
        if result["error"] is not None:
            raise ProtocolError(result["error"])
        return response_envelope(request_id, result)
