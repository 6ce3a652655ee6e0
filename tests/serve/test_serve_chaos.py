"""Chaos suite for the HTTP service: faults mid-batch degrade only their request.

The service-level guarantee under test (the PR's acceptance criterion): when
co-batched requests share one ``evaluate_population`` engine call and one of
them carries a fault — a crashing worker, a hung solve, a NaN-poisoned
impact — the *affected* request answers 200 with ``ok: false`` and
structured :class:`~repro.engine.fault.FailureRecord` entries, while every
healthy co-batched request answers **bit-for-bit** what a fault-free run
answers.  A mid-batch fault must never become a whole-batch 500.

Fault injection rides the wire protocol's ``fault`` feature field, which the
server only honors when constructed with ``allow_fault_injection=True``
(exercised and gated in ``test_protocol.py`` / ``test_server.py``).  Crash
and hang containment need an isolating execution backend, so those tests pin
``backend="process"`` explicitly on the injected engine — explicit beats the
``REPRO_BACKEND`` environment of the CI matrix.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import SolverConfig
from repro.engine import RetryPolicy, RobustnessEngine
from repro.serve import ServeConfig, ServerThread

pytestmark = [pytest.mark.serve, pytest.mark.chaos]

CHAOS_POOL_SIZE = int(os.environ.get("REPRO_CHAOS_POOL_SIZE", "2"))

N_PROBLEMS = 6
FAULTY_INDEX = 2


def make_problem(i: int, fault: dict | None = None) -> dict:
    """One wire FePIA problem; distinct bound per index so answers differ."""
    feature: dict = {
        "name": f"psi_{i}",
        "impact": {"kind": "quadratic", "weights": [1.0, 1.0]},
        "bounds": {"upper": 4.0 + 0.01 * i},
    }
    if fault is not None:
        feature["fault"] = fault
    return {
        "kind": "fepia",
        "parameter": {"origin": [0.5, 0.5]},
        "features": [feature],
    }


def population(fault: dict | None) -> list[dict]:
    """N problems; the FAULTY_INDEX one carries ``fault`` when given."""
    return [
        make_problem(i, fault=fault if i == FAULTY_INDEX else None)
        for i in range(N_PROBLEMS)
    ]


def chaos_harness(*, backend: str | None, task_timeout: float | None = None):
    """A serve harness whose engine is pinned for fault containment.

    ``escalate=False`` keeps a retried healthy task identical to attempt 0,
    which is what makes bit-for-bit co-batch parity assertable.
    """
    cfg = SolverConfig(pool_size=CHAOS_POOL_SIZE, task_timeout=task_timeout, seed=0)
    engine = RobustnessEngine(config=cfg, backend=backend)
    return ServerThread(
        ServeConfig(
            port=0,
            max_batch=N_PROBLEMS,  # the population flushes as exactly one batch
            allow_fault_injection=True,
        ),
        engine=engine,
        retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.0, escalate=False),
    )


def run_population(harness, fault: dict | None) -> dict:
    with harness as h:
        client = h.client(client_id="chaos")
        try:
            reply = client.evaluate_population(population(fault), request_id="chaos-run")
        finally:
            client.close()
        # one mid-batch fault is never a whole-batch HTTP failure
        assert reply.status == 200
        assert h.server.n_engine_calls == 1  # genuinely co-batched
        return reply.json


def assert_degrades_only_affected(doc: dict, reference: dict, *, stage: str) -> None:
    """The affected request carries failure records; the rest match ``reference``."""
    outcomes = doc["outcomes"]
    assert len(outcomes) == N_PROBLEMS
    assert doc["ok"] is False

    hit = outcomes[FAULTY_INDEX]
    assert hit["ok"] is False
    assert hit["failures"], "affected request must carry structured failures"
    record = hit["failures"][0]
    assert record["type"] == "FailureRecord"
    assert record["stage"] == stage
    assert record["feature"] == f"psi_{FAULTY_INDEX}"
    # degraded, not dropped: the result object still arrives, its radius a
    # non-finite placeholder ("nan" from a failed isolated solve, "-inf"
    # when the failure surfaces as a metric-floor marker)
    assert hit["result"]["radii"][0]["radius"] in ("nan", "-inf")
    assert hit["result"]["radii"][0]["converged"] is False

    for i, (got, want) in enumerate(zip(outcomes, reference["outcomes"])):
        if i == FAULTY_INDEX:
            continue
        assert got["ok"] is True
        assert got["failures"] == []
        # bit-for-bit: the JSON payloads are equal, floats included
        assert got == want, f"healthy co-batched outcome {i} diverged"


@pytest.fixture(scope="module")
def process_reference() -> dict:
    """The fault-free answer of the process-backend chaos server."""
    doc = run_population(chaos_harness(backend="process"), fault=None)
    assert doc["ok"] is True
    return doc


class TestCrashMidBatch:
    def test_worker_crash_degrades_only_affected_request(self, process_reference):
        doc = run_population(
            chaos_harness(backend="process"),
            fault={"mode": "crash", "worker_only": True},
        )
        assert_degrades_only_affected(doc, process_reference, stage="crash")


class TestHangMidBatch:
    def test_hung_solve_times_out_and_degrades_only_affected(self, process_reference):
        doc = run_population(
            chaos_harness(backend="process", task_timeout=1.5),
            fault={"mode": "hang", "hang_seconds": 30.0, "worker_only": True},
        )
        assert_degrades_only_affected(doc, process_reference, stage="timeout")


class TestNanMidBatch:
    def test_nan_poisoned_impact_degrades_only_affected(self):
        # NaN containment needs no process isolation: run it on the ambient
        # backend so the REPRO_BACKEND CI matrix exercises every substrate.
        reference = run_population(chaos_harness(backend=None), fault=None)
        assert reference["ok"] is True
        # on_call=2: the origin feasibility check (call 1, outside the
        # fault-isolated solve ladder) stays clean; the solver gets the NaN
        doc = run_population(
            chaos_harness(backend=None),
            fault={"mode": "nan", "worker_only": False, "on_call": 2},
        )
        assert_degrades_only_affected(doc, reference, stage="solve")
        record = doc["outcomes"][FAULTY_INDEX]["failures"][0]
        assert record["reason"] == "nan-from-impact"


class TestHealedFault:
    def test_transient_fault_recovers_with_no_failure_record(self):
        # heal_after_attempt=1: attempt 0 raises, the retry answers cleanly —
        # the response is indistinguishable from a fault-free one except for
        # the retry having happened inside the engine.
        reference = run_population(chaos_harness(backend=None), fault=None)
        doc = run_population(
            chaos_harness(backend=None),
            fault={
                "mode": "raise",
                "worker_only": False,
                "on_call": 2,  # keep the origin feasibility check clean
                "heal_after_attempt": 1,
            },
        )
        assert doc["ok"] is True
        assert doc["outcomes"][FAULTY_INDEX]["failures"] == []
        for got, want in zip(doc["outcomes"], reference["outcomes"]):
            assert got == want
