"""In-process client + server-thread harness for the robustness service.

:class:`ServeClient` is a thin synchronous HTTP client over stdlib
:mod:`http.client` — enough to exercise every endpoint from tests,
benchmarks and scripts without adding a dependency.  :class:`ServerThread`
runs a :class:`~repro.serve.server.RobustnessServer` on a dedicated event
loop in a daemon thread, so synchronous test code can start a real network
server, talk to it over a real socket, and drain it — all in-process::

    with ServerThread(ServeConfig(port=0)) as harness:
        client = ServeClient("127.0.0.1", harness.port)
        reply = client.evaluate({"kind": "allocation", ...})
        assert reply.json["ok"]
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.exceptions import ReproError
from repro.serve.protocol import dump_json
from repro.serve.server import RobustnessServer, ServeConfig

if TYPE_CHECKING:
    from repro.engine import RobustnessEngine

__all__ = ["ServeClient", "ServeResponse", "ServerThread"]


@dataclass(frozen=True)
class ServeResponse:
    """One HTTP reply: status, headers, body, parsed-on-demand JSON."""

    status: int
    headers: dict[str, str]
    body: bytes

    @property
    def json(self) -> Any:
        """The body decoded as JSON."""
        return json.loads(self.body.decode("utf-8"))

    @property
    def text(self) -> str:
        """The body decoded as UTF-8 text."""
        return self.body.decode("utf-8")

    @property
    def retry_after(self) -> float | None:
        """The ``Retry-After`` hint in seconds, when present."""
        value = self.headers.get("retry-after")
        return None if value is None else float(value)


class ServeClient:
    """Synchronous keep-alive client of one robustness server.

    Not thread-safe — give each concurrent client its own instance (each
    holds one persistent connection, which is exactly what the load
    benchmark wants to model per simulated client).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str | None = None,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.client_id = client_id
        self.timeout = float(timeout)
        self._conn: http.client.HTTPConnection | None = None

    # -- plumbing --------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        """Drop the persistent connection (reopened lazily on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> ServeResponse:
        """One round trip; reconnects once if the kept-alive socket died."""
        headers = {}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        for attempt in (1, 2):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                raw = conn.getresponse()
                payload = raw.read()
            except (http.client.HTTPException, OSError):
                self.close()
                if attempt == 2:
                    raise
                continue
            return ServeResponse(
                status=raw.status,
                headers={k.lower(): v for k, v in raw.getheaders()},
                body=payload,
            )
        raise AssertionError("unreachable")  # pragma: no cover

    def post_json(self, path: str, doc: dict) -> ServeResponse:
        """POST a JSON document."""
        return self.request("POST", path, body=dump_json(doc))

    # -- endpoints -------------------------------------------------------------
    def healthz(self) -> ServeResponse:
        """``GET /healthz``."""
        return self.request("GET", "/healthz")

    def metrics(self) -> str:
        """``GET /metrics`` — the Prometheus text exposition."""
        return self.request("GET", "/metrics").text

    def evaluate(
        self, problem: dict, *, request_id: str | None = None
    ) -> ServeResponse:
        """``POST /evaluate`` one problem object."""
        doc: dict = {"problem": problem}
        if request_id is not None:
            doc["id"] = request_id
        return self.post_json("/evaluate", doc)

    def evaluate_population(
        self, problems: list[dict], *, request_id: str | None = None
    ) -> ServeResponse:
        """``POST /evaluate_population`` a list of problem objects."""
        doc: dict = {"problems": problems}
        if request_id is not None:
            doc["id"] = request_id
        return self.post_json("/evaluate_population", doc)

    def robustness_curve(
        self,
        mappings: list[list[int]],
        etc: list[list[float]],
        taus: list[float],
        *,
        request_id: str | None = None,
    ) -> ServeResponse:
        """``POST /robustness_curve`` a tau sweep."""
        doc: dict = {"mappings": mappings, "etc": etc, "taus": taus}
        if request_id is not None:
            doc["id"] = request_id
        return self.post_json("/robustness_curve", doc)


class ServerThread:
    """Run a :class:`RobustnessServer` on its own event-loop thread.

    Start/stop are synchronous and safe to call from test code; the server's
    bound port (ephemeral when ``config.port == 0``) is :attr:`port` after
    :meth:`start`.  Usable as a context manager.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        engine: "RobustnessEngine | None" = None,
        retry_policy=None,
    ) -> None:
        self.server = RobustnessServer(config, engine=engine, retry_policy=retry_policy)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-loop", daemon=True
        )
        self._started = False

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self.server.port is None:
            raise ReproError("server not started")
        return self.server.port

    def client(self, *, client_id: str | None = None, timeout: float = 60.0) -> ServeClient:
        """A fresh client pointed at this server."""
        return ServeClient(
            self.server.config.host, self.port, client_id=client_id, timeout=timeout
        )

    def start(self, timeout: float = 30.0) -> "ServerThread":
        """Start the loop thread and bind the server (blocks until bound)."""
        if self._started:
            return self
        self._thread.start()
        started = asyncio.run_coroutine_threadsafe(self.server.start(), self._loop)
        started.result(timeout=timeout)
        self._started = True
        return self

    def stop(self, timeout: float = 60.0) -> None:
        """Drain the server and tear the loop thread down."""
        if self._started:
            drained = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
            drained.result(timeout=timeout)
            self._started = False
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)
        if not self._loop.is_closed():
            self._loop.close()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
