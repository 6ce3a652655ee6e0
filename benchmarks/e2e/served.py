"""The served workloads: ``repro serve`` as shipped, driven over HTTP.

A run starts the server several times.  Each start is one sample of
``setup_s`` (spawn until the ``listening`` line and a first ``/healthz``
200), and each started server then serves an equal slice of the run's
measured load, so the reported numbers pool several server processes
instead of resting on one.  Per server:

1. a short closed-loop warm-up on requests of their own;
2. the latency step: open loop, Poisson arrivals at the workload's rate,
   each request timed from when it was due;
3. the capacity step: both connections busy back to back; its radii per
   second is the highest rate two connections put through the server;
4. ``/healthz`` and ``/metrics`` scrapes and the server's ``VmHWM``;
5. a graceful stop (SIGINT drains the server).

Correctness is checked after all servers have stopped, outside every timed
region: a 5% sample of the latency steps' replies is compared with the
engine evaluated in this process on the same inputs.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import inputs
import loadgen
import tracing
from common import HERE, OUT, ROOT, child_env, metric, peak_rss_mb, percentile

RATES = {"serve_alloc": 100.0, "serve_numeric": 25.0}
RADII_PER_REQUEST = {
    "serve_alloc": inputs.ALLOC_MACHINES,
    "serve_numeric": inputs.FEPIA_FEATURES,
}
#: share of the measured seconds spent in the latency step; the rest is
#: the capacity step
LATENCY_SHARE = 0.7
WARMUP_S = 0.3
CHECK_SHARE = 0.05
#: generator timer lateness above which a step is marked invalid
MAX_LAG_MS = 1.0
READY_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class Server:
    """One ``repro serve --port 0`` process, started and made ready."""

    def __init__(self, cmd: list[str], log) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
        watchdog = threading.Timer(READY_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
            match = _LISTENING.search(line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(match.group(1))
            while loadgen.get(self.port, "/healthz")[0] != 200:
                time.sleep(0.001)
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - start

    def stop(self) -> None:
        """Drain and stop the server; kill it if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def server_command(trace_out=None, slowdown: str | None = None) -> list[str]:
    """The program as shipped, or the benchmark's launcher around it."""
    if trace_out is None and slowdown is None:
        return [sys.executable, "-m", "repro", "serve", "--port", "0"]
    cmd = [sys.executable, str(HERE / "traced_serve.py")]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if slowdown is not None:
        cmd += ["--inject-slowdown", slowdown]
    return cmd


def problems(workload: str, seed: int, n: int, **stream: str) -> list[dict]:
    make = inputs.alloc_problems if workload == "serve_alloc" else inputs.served_fepia_problems
    return make(seed, n, **stream)


@dataclass
class Slice:
    """The requests one server instance receives."""

    ids: list[str]
    problems: list[dict]
    raws: list[bytes]
    offsets: np.ndarray


def latency_slices(workload: str, seed: int, seconds: float, n_slices: int) -> list[Slice]:
    """Split the run's latency step evenly over ``n_slices`` servers."""
    rate = RATES[workload]
    n = max(n_slices, int(round(rate * seconds * LATENCY_SHARE)))
    probs = problems(workload, seed, n)
    offsets = inputs.arrival_offsets(seed, rate, n)
    slices = []
    for k, idx in enumerate(np.array_split(np.arange(n), n_slices)):
        ids = [f"L{k}-{i}" for i in idx]
        raws = [
            loadgen.post("/evaluate", inputs.request_body(rid, probs[i]))
            for rid, i in zip(ids, idx)
        ]
        # each slice starts when its server is ready; keep the gap before
        # its first arrival so every slice is its own Poisson sample
        rebased = offsets[idx] - (offsets[idx[0] - 1] if idx[0] > 0 else 0.0)
        slices.append(Slice(ids, [probs[i] for i in idx], raws, rebased))
    return slices


def warmup_raws(workload: str, seed: int) -> list[bytes]:
    return [
        loadgen.post("/evaluate", inputs.request_body(f"W-{i}", p))
        for i, p in enumerate(problems(workload, seed, 16, stream="warmup"))
    ]


def scrape(port: int) -> dict:
    """Server-side counters: requests, engine calls, flushes, rejections."""
    status, body = loadgen.get(port, "/healthz")
    health = json.loads(body) if status == 200 else {}
    _, text = loadgen.get(port, "/metrics")
    counters = {
        "n_requests": health.get("n_requests", 0),
        "n_engine_calls": health.get("n_engine_calls", 0),
        "backend": health.get("backend"),
    }
    for line in text.decode("utf-8").splitlines():
        match = re.match(r'repro_serve_(batches|rejections)_total\{reason="(\w+)"\} (\S+)', line)
        if match:
            kind = "flushes" if match.group(1) == "batches" else "rejected"
            counters[f"{kind}_{match.group(2)}"] = float(match.group(3))
    return counters


def drive_instance(
    server: Server, workload: str, seed: int, piece: Slice, capacity_s: float
) -> dict:
    """Warm-up, latency step and capacity step against one server."""
    asyncio.run(loadgen.closed_loop(server.port, warmup_raws(workload, seed), WARMUP_S))
    with loadgen.elevated() as sched:
        record = asyncio.run(loadgen.open_loop(server.port, piece.ids, piece.raws, piece.offsets))
        capacity = None
        if capacity_s > 0:
            capacity = asyncio.run(loadgen.closed_loop(server.port, piece.raws, capacity_s))
    return {"record": record, "capacity": capacity, "sched": sched}


def step_summary(record: loadgen.StepRecord) -> dict:
    """Request count, median latency and the generator's timer lateness at
    p99, or at the highest percentile with ten samples beyond it when the
    step is shorter than 1000 requests; above 1 ms the step is invalid."""
    n = len(record.ids)
    q = min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / n)))
    lag = percentile(record.lateness, q) * 1e3
    return {
        "requests": n,
        "gen_lag_pct": q,
        "gen_lag_ms": lag,
        "valid": lag <= MAX_LAG_MS,
        "latency_p50_ms": percentile(record.latencies_ms(), 50),
    }


def reply_ok(status: int, body: bytes) -> bool:
    return status == 200 and json.loads(body).get("ok") is True


def run(workload: str, seed: int, seconds: float, instances: int, slowdown: str | None) -> dict:
    """Untraced measurement of one served workload (see module docstring)."""
    OUT.mkdir(exist_ok=True)
    capacity_s = seconds * (1 - LATENCY_SHARE) / instances
    slices = latency_slices(workload, seed, seconds, instances)
    setups, rss, steps, records, counters = [], [], [], [], []
    delivered = busy = 0.0
    attempted = failed = 0
    with open(OUT / f"server-{workload}.log", "w") as log:
        for piece in slices:
            server = Server(server_command(slowdown=slowdown), log)
            try:
                out = drive_instance(server, workload, seed, piece, capacity_s)
                counters.append(scrape(server.port))
                rss.append(peak_rss_mb(server.proc.pid))
            finally:
                server.stop()
            setups.append(server.setup_s)
            record, (succeeded, elapsed) = out["record"], out["capacity"]
            records.append(record)
            steps.append({**step_summary(record), "sched": out["sched"]})
            delivered += sum(succeeded) * RADII_PER_REQUEST[workload]
            busy += elapsed
            attempted += len(record.ids) + len(succeeded)
            failed += sum(not ok for ok in succeeded)
            failed += sum(not reply_ok(s, b) for s, b in zip(record.status, record.body))
    latencies = [x for r in records for x in r.latencies_ms()]
    mismatches, checked = check_replies(workload, seed, slices, records)
    return {
        "metrics": {
            "setup_s": metric(float(np.median(setups)), "s"),
            "peak_rss_mb": metric(float(np.median(rss)), "MB"),
            "latency_p50_ms": metric(percentile(latencies, 50), "ms"),
            "radii_per_s": metric(delivered / busy, "radii/s"),
        },
        "attempted": attempted + checked,
        "failed": failed + mismatches,
        "checks": {"sampled": checked, "mismatches": mismatches},
        "samples": {
            "setup_s": setups,
            "latency_requests": len(latencies),
            "latency_p90_ms": percentile(latencies, 90),
            "latency_p99_ms": percentile(latencies, 99),
        },
        "steps": steps,
        "counters": counters,
    }


def run_traced(workload: str, seed: int, seconds: float, slowdown: str | None) -> dict:
    """One latency step on the untraced server, then the same step on the
    traced launcher; per-layer metrics come from the traced one."""
    OUT.mkdir(exist_ok=True)
    piece = latency_slices(workload, seed, seconds, 2)[0]
    spans_path = OUT / f"spans-{workload}-{os.getpid()}.json"
    records, steps = [], []
    with open(OUT / f"server-{workload}.log", "w") as log:
        for trace_out in (None, spans_path):
            server = Server(server_command(trace_out, slowdown), log)
            try:
                out = drive_instance(server, workload, seed, piece, 0.0)
                counters = scrape(server.port)  # the traced server's, kept
            finally:
                server.stop()
            records.append(out["record"])
            steps.append({**step_summary(out["record"]), "sched": out["sched"]})
    plain, traced_record = records
    spans = tracing.load_spans(spans_path)
    spans_path.unlink()
    metrics, table, traced_ms = tracing.served_layers(spans, traced_record)
    metrics["serve.server.rejected"]["value"] = float(
        sum(v for k, v in counters.items() if k.startswith("rejected_"))
    )
    client = [
        tracing.Span(-(i + 1), None, "client.request", int(due * 1e9), int(done * 1e9), 0,
                     os.getpid(), {"rid": rid})
        for i, (rid, due, done) in enumerate(zip(traced_record.ids, traced_record.due, traced_record.done))
    ]
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    problems = tracing.write_chrome_trace(client + spans, trace_file)
    mismatches, checked = check_replies(workload, seed, [piece, piece], records)
    failed = sum(
        not reply_ok(s, b) for r in records for s, b in zip(r.status, r.body)
    )
    return {
        "metrics": metrics,
        "attempted": 2 * len(piece.ids) + checked,
        "failed": failed + mismatches,
        "checks": {"sampled": checked, "mismatches": mismatches},
        "steps": steps,
        "layers": table,
        "traced_ms": traced_ms,
        "trace_overhead_pct": 100.0 * (
            statistics.fmean(traced_record.latencies_ms())
            / statistics.fmean(plain.latencies_ms()) - 1.0
        ),
        "trace_file": str(trace_file.relative_to(ROOT)),
        "trace_problems": problems,
    }


def check_replies(workload: str, seed: int, slices: list[Slice], records) -> tuple[int, int]:
    """Compare a seeded 5% sample of served replies with in-process results.

    Returns ``(mismatches, sampled)``.
    """
    from repro.engine import RobustnessEngine
    from repro.serve.protocol import decode_problem

    pairs = [
        (problem, body)
        for piece, record in zip(slices, records)
        for problem, body in zip(piece.problems, record.body)
    ]
    n = max(1, int(round(CHECK_SHARE * len(pairs))))
    chosen = inputs.rng(seed, "sample").choice(len(pairs), n, replace=False)
    sample = [pairs[i] for i in sorted(chosen)]
    served = [json.loads(body).get("result") for _, body in sample]
    decoded = [decode_problem(problem) for problem, _ in sample]
    engine = RobustnessEngine()
    if workload == "serve_alloc":
        expected = [
            engine.evaluate_allocation(p.mapping[None, :], p.etc, p.tau).result_for(0).to_dict()
            for p in decoded
        ]
    else:
        batch = engine.evaluate_population(
            [(p.features, p.parameter) for p in decoded], on_error="record"
        )
        expected = [batch[i].to_dict() for i in range(len(decoded))]
    # the wire carries JSON: compare after the same encoding
    expected = [json.loads(json.dumps(e)) for e in expected]
    return sum(e != s for e, s in zip(expected, served)), n
