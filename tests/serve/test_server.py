"""End-to-end tests of the HTTP service: real sockets, real server thread."""

import json
import re
import threading
import time

import numpy as np
import pytest

from repro.engine import RobustnessEngine
from repro.serve import ServeConfig, ServerThread
from repro.serve.protocol import dump_json

pytestmark = pytest.mark.serve

ETC = [[4.0, 8.0], [6.0, 3.0], [2.0, 5.0]]
TAU = 1.3

ALLOCATION = {"kind": "allocation", "mapping": [0, 1, 0], "etc": ETC, "tau": TAU}

FEPIA = {
    "kind": "fepia",
    "parameter": {"origin": [0.5, 0.5]},
    "features": [
        {
            "name": "phi",
            "impact": {"kind": "affine", "coefficients": [1.0, 2.0]},
            "bounds": {"upper": 10.0},
        }
    ],
}


def json_roundtrip(obj: dict) -> dict:
    """Engine dict → exactly what the wire would carry."""
    return json.loads(dump_json(obj))


@pytest.fixture(scope="module")
def harness():
    with ServerThread(ServeConfig(port=0, max_batch=8)) as h:
        yield h


@pytest.fixture()
def client(harness):
    c = harness.client(client_id="test-server")
    yield c
    c.close()


class TestHealthz:
    def test_reports_status_and_introspection(self, client):
        reply = client.healthz()
        assert reply.status == 200
        doc = reply.json
        assert doc["status"] == "ok"
        assert doc["protocol"] == 1
        assert doc["backend"]
        assert doc["queue_depth"] == 0

    def test_cli_server_defaults_to_the_serial_backend(self):
        """``repro serve`` has no backend default of its own: with neither
        ``--backend`` nor ``REPRO_BACKEND`` it resolves like any engine."""
        import os
        import subprocess
        import sys

        from repro.serve import ServeClient

        env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            assert "backend=serial" in line, line
            match = re.search(r"listening on http://([^:]+):(\d+)", line)
            assert match, line
            client = ServeClient(match.group(1), int(match.group(2)))
            try:
                assert client.healthz().json["backend"] == "serial"
            finally:
                client.close()
        finally:
            watchdog.cancel()
            proc.terminate()
            proc.wait(timeout=30)
            proc.stdout.close()


class TestEvaluate:
    def test_allocation_result_matches_direct_engine_call(self, client):
        reply = client.evaluate(ALLOCATION, request_id="r-alloc")
        assert reply.status == 200
        doc = reply.json
        assert doc["id"] == "r-alloc"
        assert doc["ok"] is True
        assert doc["failures"] == []
        direct = (
            RobustnessEngine()
            .evaluate_allocation([ALLOCATION["mapping"]], np.array(ETC), TAU)
            .result_for(0)
            .to_dict()
        )
        assert doc["result"] == json_roundtrip(direct)

    def test_fepia_analytic_problem(self, client):
        reply = client.evaluate(FEPIA)
        assert reply.status == 200
        doc = reply.json
        assert doc["ok"] is True
        assert doc["result"]["type"] == "MetricResult"
        # rho = distance from (0.5, 0.5) to the plane pi1 + 2 pi2 = 10
        assert doc["result"]["value"] == pytest.approx(8.5 / np.sqrt(5.0))

    def test_fepia_numeric_problem_runs_on_the_backend(self, client):
        doc = {
            **FEPIA,
            "features": [
                {
                    "name": "psi",
                    "impact": {"kind": "quadratic", "weights": [1.0, 1.0]},
                    "bounds": {"upper": 4.0},
                }
            ],
        }
        reply = client.evaluate(doc)
        assert reply.status == 200
        body = reply.json
        assert body["ok"] is True
        # radius from (0.5, 0.5) to the circle pi1^2 + pi2^2 = 4
        expected = 2.0 - np.sqrt(0.5)
        assert body["result"]["value"] == pytest.approx(expected, rel=1e-6)

    def test_missing_problem_field_is_400(self, client):
        reply = client.post_json("/evaluate", {"id": "r-x"})
        assert reply.status == 400
        assert "problem" in reply.json["error"]

    def test_fault_specs_rejected_without_opt_in(self, client):
        doc = {
            **FEPIA,
            "features": [
                {**FEPIA["features"][0], "fault": {"mode": "nan"}}
            ],
        }
        reply = client.evaluate(doc)
        assert reply.status == 400
        assert "fault injection is disabled" in reply.json["error"]


class TestEvaluatePopulation:
    def test_outcomes_align_with_problems(self, client):
        problems = [ALLOCATION, {**ALLOCATION, "mapping": [1, 0, 1]}, FEPIA]
        reply = client.evaluate_population(problems, request_id="r-pop")
        assert reply.status == 200
        doc = reply.json
        assert doc["id"] == "r-pop"
        assert doc["ok"] is True
        assert len(doc["outcomes"]) == 3
        assert doc["outcomes"][0]["result"]["type"] == "AllocationRobustness"
        assert doc["outcomes"][2]["result"]["type"] == "MetricResult"
        # outcome 0 must equal a lone /evaluate of the same problem
        lone = client.evaluate(ALLOCATION).json
        assert doc["outcomes"][0]["result"] == lone["result"]

    def test_empty_population_is_400(self, client):
        reply = client.post_json("/evaluate_population", {"problems": []})
        assert reply.status == 400


class TestRobustnessCurve:
    def test_matches_api_curve(self, client):
        from repro.api import robustness_curve

        mappings = [[0, 1, 0], [1, 0, 1]]
        taus = [1.1, 1.2, 1.3]
        reply = client.robustness_curve(mappings, ETC, taus, request_id="r-curve")
        assert reply.status == 200
        doc = reply.json
        assert doc["ok"] is True
        direct = robustness_curve(np.array(mappings), np.array(ETC), taus).to_dict()
        assert doc["result"] == json_roundtrip(direct)

    def test_bad_taus_is_400(self, client):
        reply = client.robustness_curve([[0, 1, 0]], ETC, [])
        assert reply.status == 400


class TestHttpSurface:
    def test_unknown_route_is_404(self, client):
        assert client.request("GET", "/nope").status == 404

    def test_wrong_method_is_405(self, client):
        assert client.request("GET", "/evaluate").status == 405
        assert client.request("POST", "/healthz").status == 405
        assert client.request("POST", "/metrics").status == 405

    def test_malformed_json_is_400(self, client):
        assert client.request("POST", "/evaluate", body=b"{oops").status == 400

    def test_request_ids_must_be_strings(self, client):
        reply = client.post_json("/evaluate", {"id": 7, "problem": ALLOCATION})
        assert reply.status == 400

    def test_oversized_body_is_413(self, harness):
        small = ServeConfig(port=0, max_body_bytes=64)
        with ServerThread(small) as h:
            reply = h.client().post_json("/evaluate", {"problem": ALLOCATION})
            assert reply.status == 413

    def test_keep_alive_reuses_one_connection(self, client):
        first = client.healthz()
        conn_before = client._conn
        second = client.healthz()
        assert first.status == second.status == 200
        assert client._conn is conn_before


class GatedEngine(RobustnessEngine):
    """An engine whose allocation batches block until :attr:`release` is set.

    Holding a batch in flight on purpose is how these tests make requests
    coalesce (or park) behind it deterministically.
    """

    def __init__(self):
        super().__init__(backend="serial")
        self.entered = threading.Event()
        self.release = threading.Event()

    def evaluate_allocation(self, *args, **kwargs):
        self.entered.set()
        assert self.release.wait(timeout=30), "gated batch never released"
        return super().evaluate_allocation(*args, **kwargs)


def wait_for_queue_depth(harness, depth):
    probe = harness.client()
    try:
        for _ in range(250):
            if probe.healthz().json["queue_depth"] == depth:
                return
            time.sleep(0.02)
    finally:
        probe.close()
    pytest.fail(f"queue never reached depth {depth}")


def evaluate_in_thread(harness, results, slot):
    def run():
        c = harness.client(client_id=f"c{slot}")
        try:
            results[slot] = c.evaluate(ALLOCATION, request_id=f"r{slot}")
        finally:
            c.close()

    t = threading.Thread(target=run)
    t.start()
    return t


def batches_total(scrape, reason):
    match = re.search(rf'repro_serve_batches_total\{{reason="{reason}"\}} (\S+)', scrape)
    return float(match.group(1)) if match else 0.0


class TestBatching:
    def test_concurrent_requests_coalesce_into_fewer_engine_calls(self):
        # the first request holds the engine; the other seven coalesce
        # behind it and leave together when it completes
        engine = GatedEngine()
        n_clients = 8
        with ServerThread(ServeConfig(port=0, max_batch=8), engine=engine) as h:
            results = [None] * n_clients
            threads = [evaluate_in_thread(h, results, 0)]
            assert engine.entered.wait(timeout=30)
            threads += [evaluate_in_thread(h, results, i) for i in range(1, n_clients)]
            wait_for_queue_depth(h, n_clients - 1)
            engine.release.set()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert all(r is not None and r.status == 200 for r in results)
            # every response identical (same problem) and individually addressed
            bodies = [r.json for r in results]
            assert {b["id"] for b in bodies} == {f"r{i}" for i in range(n_clients)}
            assert len({json.dumps(b["result"], sort_keys=True) for b in bodies}) == 1
            # coalescing must actually have happened
            assert h.server.n_requests == n_clients
            assert h.server.n_engine_calls == 2

    def test_different_tau_requests_do_not_share_a_batch(self):
        config = ServeConfig(port=0, max_batch=8)
        with ServerThread(config) as h:
            c = h.client()
            a = c.evaluate(ALLOCATION).json
            b = c.evaluate({**ALLOCATION, "tau": 2.0}).json
            assert a["result"]["tau"] == TAU
            assert b["result"]["tau"] == 2.0
            c.close()

    def test_idle_server_dispatches_each_request_at_once(self):
        # work-conserving: a lone client never waits for co-batching
        # partners, and one population request still rides one batch
        n = 5
        with ServerThread(ServeConfig(port=0)) as h:
            c = h.client()
            before = c.metrics()
            for i in range(n):
                assert c.evaluate({**ALLOCATION, "mapping": [i % 2, 1, 0]}).status == 200
            after = c.metrics()
            assert batches_total(after, "idle") - batches_total(before, "idle") == n
            assert h.server.n_engine_calls == n
            population = [{**ALLOCATION, "mapping": [i % 2, (i // 2) % 2, 0]} for i in range(8)]
            reply = c.evaluate_population(population)
            assert reply.status == 200 and reply.json["ok"] is True
            assert h.server.n_engine_calls == n + 1
            c.close()


class TestBackpressure:
    def test_queue_full_answers_429_with_retry_after(self):
        # a one-slot queue behind a batch held in flight: the second request
        # parks, the third must be shed
        engine = GatedEngine()
        config = ServeConfig(port=0, max_batch=100, max_pending=1)
        h = ServerThread(config, engine=engine).start()
        results = [None, None]
        threads = []
        try:
            threads.append(evaluate_in_thread(h, results, 0))
            assert engine.entered.wait(timeout=30)
            threads.append(evaluate_in_thread(h, results, 1))
            wait_for_queue_depth(h, 1)
            probe = h.client(client_id="probe")
            reply = probe.evaluate(ALLOCATION)
            assert reply.status == 429
            assert reply.retry_after is not None and reply.retry_after >= 1
            probe.close()
        finally:
            engine.release.set()
            # the drain answers the parked request rather than dropping it
            h.stop()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        for reply in results:
            assert reply.status == 200
            assert reply.json["ok"] is True

    def test_quota_exhaustion_answers_429(self):
        config = ServeConfig(port=0, rate=0.001, burst=1.0)
        with ServerThread(config) as h:
            c = h.client(client_id="greedy")
            assert c.evaluate(ALLOCATION).status == 200
            reply = c.evaluate(ALLOCATION)
            assert reply.status == 429
            assert reply.retry_after is not None and reply.retry_after >= 1
            # a different client is unaffected by the greedy one's bucket
            other = h.client(client_id="modest")
            assert other.evaluate(ALLOCATION).status == 200
            other.close()
            c.close()


class TestDrain:
    def test_stopped_server_refuses_new_connections(self):
        h = ServerThread(ServeConfig(port=0)).start()
        port = h.port
        c = h.client()
        assert c.healthz().status == 200
        c.close()
        h.stop()
        late = h.server  # server object survives; the socket must not
        assert late.draining is True
        with pytest.raises(OSError):
            h.client(timeout=2.0).healthz()
        assert port  # silence unused warnings
