"""Robustness-as-a-service: asyncio HTTP/JSON front-end over the engine.

The service turns the library's population-scale evaluators into network
endpoints without adding a single dependency — stdlib asyncio, stdlib JSON,
a hand-rolled sliver of HTTP/1.1.  Four pieces:

- :mod:`repro.serve.protocol` — the JSON wire format and its codecs;
- :mod:`repro.serve.batcher` — the micro-batching queue that coalesces
  requests into engine-sized batches (full / idle / drain flushes);
- :mod:`repro.serve.quotas` — per-client token buckets behind the 429s;
- :mod:`repro.serve.server` — the :class:`RobustnessServer` tying them to
  a shared :class:`~repro.engine.RobustnessEngine`;
- :mod:`repro.serve.client` — a synchronous :class:`ServeClient` and the
  :class:`ServerThread` harness tests and benchmarks drive.

Start one from the command line with ``repro serve --port 8471`` or
in-process::

    from repro.serve import ServeConfig, ServerThread

    with ServerThread(ServeConfig(port=0)) as harness:
        reply = harness.client().evaluate(
            {"kind": "allocation", "mapping": [0, 1], "etc": [[4, 8], [6, 3]],
             "tau": 1.3}
        )

See ``docs/SERVE.md`` for the endpoint reference and semantics.
"""

from repro.serve.batcher import (
    FLUSH_REASONS,
    Batch,
    BatchQueue,
    PendingRequest,
    QueueFullError,
)
from repro.serve.client import ServeClient, ServeResponse, ServerThread
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    DecodedProblem,
    ProtocolError,
    QuadraticImpact,
    batch_key,
    decode_problem,
)
from repro.serve.quotas import ClientQuotas, TokenBucket
from repro.serve.server import RobustnessServer, ServeConfig

__all__ = [
    "Batch",
    "BatchQueue",
    "ClientQuotas",
    "DecodedProblem",
    "FLUSH_REASONS",
    "PROTOCOL_VERSION",
    "PendingRequest",
    "ProtocolError",
    "QuadraticImpact",
    "QueueFullError",
    "RobustnessServer",
    "ServeClient",
    "ServeConfig",
    "ServeResponse",
    "ServerThread",
    "TokenBucket",
    "batch_key",
    "decode_problem",
]
