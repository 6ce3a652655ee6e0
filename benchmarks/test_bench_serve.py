"""Load benchmark for the robustness service: throughput, latency, coalescing.

Drives the pinned allocation problem through a real :class:`ServerThread`
from 1, 8 and 64 concurrent keep-alive clients and records, per level,

- requests per second over the whole burst;
- p50 / p99 request latency (milliseconds);
- the batching-efficiency ratio (engine calls / requests) — the number the
  micro-batcher exists to push down.  One request per engine call gives
  1.0 (what a lone client sees: an idle server dispatches at once); the
  acceptance bar for the 64-client burst is **< 0.5**.

Every response must come back 200 — a dropped or shed response under this
load is a failure, not a data point.  Results land in
``benchmarks/out/BENCH_serve.json`` for the regression gate in
``test_bench_regression.py``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from repro.serve import ServeConfig, ServerThread

OUT_DIR = Path(__file__).parent / "out"

CONCURRENCY_LEVELS = (1, 8, 64)
REQUESTS_PER_CLIENT = 12
WARMUP_REQUESTS = 4

ALLOCATION = {
    "kind": "allocation",
    "mapping": [0, 1, 0],
    "etc": [[4.0, 8.0], [6.0, 3.0], [2.0, 5.0]],
    "tau": 1.3,
}


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def _drive(harness: ServerThread, n_clients: int) -> dict:
    """One burst: ``n_clients`` threads, each a keep-alive client."""
    latencies: list[list[float]] = [[] for _ in range(n_clients)]
    statuses: list[list[int]] = [[] for _ in range(n_clients)]
    barrier = threading.Barrier(n_clients + 1)

    def worker(slot: int) -> None:
        client = harness.client(client_id=f"bench-{slot}")
        try:
            barrier.wait()
            for _ in range(REQUESTS_PER_CLIENT):
                t0 = time.perf_counter()
                reply = client.evaluate(ALLOCATION)
                latencies[slot].append(time.perf_counter() - t0)
                statuses[slot].append(reply.status)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
    for t in threads:
        t.start()
    requests_before = harness.server.n_requests
    calls_before = harness.server.n_engine_calls
    barrier.wait()
    t_start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t_start

    flat = sorted(lat for per_client in latencies for lat in per_client)
    codes = [code for per_client in statuses for code in per_client]
    n_requests = n_clients * REQUESTS_PER_CLIENT
    assert len(codes) == n_requests, "a client thread dropped requests"
    assert all(code == 200 for code in codes), f"non-200 under load: {set(codes)}"

    served = harness.server.n_requests - requests_before
    engine_calls = harness.server.n_engine_calls - calls_before
    assert served == n_requests
    return {
        "clients": n_clients,
        "requests": n_requests,
        "rps": round(n_requests / elapsed, 1),
        "p50_ms": round(_percentile(flat, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(flat, 0.99) * 1e3, 3),
        "engine_calls": engine_calls,
        "batching_efficiency_ratio": round(engine_calls / served, 4),
    }


def test_serve_load_throughput_and_coalescing():
    config = ServeConfig(port=0, max_batch=32, max_pending=4096)
    with ServerThread(config) as harness:
        warm = harness.client(client_id="bench-warmup")
        for _ in range(WARMUP_REQUESTS):
            assert warm.evaluate(ALLOCATION).status == 200
        warm.close()

        levels = [_drive(harness, n) for n in CONCURRENCY_LEVELS]

    by_clients = {level["clients"]: level for level in levels}
    burst64 = by_clients[64]
    # the acceptance bar: at 64 clients the batcher must coalesce >2 requests
    # per engine call on average, with zero dropped responses (asserted above)
    assert burst64["batching_efficiency_ratio"] < 0.5

    OUT_DIR.mkdir(exist_ok=True)
    payload = {
        "requests_per_client": REQUESTS_PER_CLIENT,
        "max_batch": config.max_batch,
        "levels": levels,
        "rps_64": burst64["rps"],
        "p50_ms_64": burst64["p50_ms"],
        "p99_ms_64": burst64["p99_ms"],
        "batching_efficiency_ratio": burst64["batching_efficiency_ratio"],
        "dropped": 0,
    }
    out = OUT_DIR / "BENCH_serve.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    summary = " | ".join(
        f"{level['clients']}c: {level['rps']:,.0f} rps "
        f"p50 {level['p50_ms']:.1f}ms p99 {level['p99_ms']:.1f}ms "
        f"ratio {level['batching_efficiency_ratio']:.2f}"
        for level in levels
    )
    print(f"\nserve load: {summary}\n[report saved to {out}]")
    # sanity floor, far below any real machine: the gate proper compares
    # against the committed baseline with tolerance
    assert burst64["rps"] > 20.0
