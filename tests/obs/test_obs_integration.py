"""End-to-end observability acceptance.

The contract under test (ISSUE 5): with observability enabled, a population
evaluation under injected faults produces a trace whose ``fault.task``
terminal spans account for every task's terminal state (success, retry,
degrade, failure); with observability disabled (the default), results are
bit-for-bit identical to an uninstrumented run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core.config import SolverConfig
from repro.core.features import FeatureBounds, PerformanceFeature
from repro.core.impact import CallableImpact
from repro.core.perturbation import PerturbationParameter
from repro.engine import RetryPolicy, RobustnessEngine
from repro.faults import wrap_feature

PARAM = PerturbationParameter("pi", np.array([0.5, 0.5]))


def _quad(pi):
    return float(pi @ pi)


def _quad_grad(pi):
    return 2.0 * pi


def _feature(i: int) -> PerformanceFeature:
    return PerformanceFeature(
        f"q_{i}",
        CallableImpact(_quad, grad=_quad_grad, name="quad"),
        FeatureBounds.upper_only(4.0 + 0.01 * i),
    )


def _wavy(pi):
    return float(pi @ pi + 0.3 * np.sin(8 * pi[0]) * np.cos(8 * pi[1]))


def _wavy_feature(i: int) -> PerformanceFeature:
    return PerformanceFeature(
        f"w_{i}",
        CallableImpact(_wavy, name="wavy"),
        FeatureBounds.upper_only(3.0 + 0.05 * i),
    )


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset_metrics()
    yield
    obs.disable()
    obs.reset_metrics()


def _counter_value(name: str, **labels) -> float:
    doc = obs.get_registry().to_json()
    if name not in doc:
        return 0.0
    for child in doc[name]["children"]:
        if child["labels"] == {k: str(v) for k, v in labels.items()}:
            return child["value"]
    return 0.0


class TestTerminalAccounting:
    """Every task's terminal state must be visible in the trace."""

    def test_faulted_population_accounts_for_every_task(self):
        engine = RobustnessEngine(config=SolverConfig(pool_size=0, cache_size=0))
        problems = [
            ([_feature(0)], PARAM),  # healthy -> success
            ([wrap_feature(_feature(1), "nan")], PARAM),  # -> terminal failure
            (
                # on_call=2 lets the engine's preflight value_at(origin)
                # through; the fault then fires inside the solve and the
                # retry (CURRENT_ATTEMPT=1) heals it.
                [wrap_feature(_feature(2), "raise", on_call=2, heal_after_attempt=1)],
                PARAM,
            ),  # fails once, retry heals -> success
        ]
        with obs.observed() as tracer:
            batch = engine.evaluate_population(
                problems,
                on_error="record",
                retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
            )

        terminals = {
            s.attrs["task_index"]: s
            for s in tracer.spans()
            if s.name == "fault.task"
        }
        # one terminal span per submitted task, no more, no less
        assert sorted(terminals) == [0, 1, 2]
        states = {i: terminals[i].attrs["terminal"] for i in terminals}
        assert states == {0: "success", 1: "failure", 2: "success"}
        # the terminal span agrees with the batch's failure records
        failed = {rec.task_index for rec in batch.failures}
        assert failed == {i for i, s in states.items() if s != "success"}
        assert terminals[1].attrs["stage"] == "solve"
        assert terminals[1].status == "error"
        assert terminals[0].status == "ok"
        # the healed task's retry is visible as an instant span + counter
        retries = [s for s in tracer.spans() if s.name == "fault.retry"]
        assert {s.attrs["task_index"] for s in retries} >= {2}
        assert _counter_value("repro_retries_total") >= 1.0
        # failure records and solve latency reach the metrics registry
        assert _counter_value("repro_failure_records_total", stage="solve") == 1.0
        hist = obs.get_registry().to_json()["repro_radius_solve_seconds"]
        assert sum(c["count"] for c in hist["children"]) == 3
        # the batch span carries the problem/failure totals
        (pop,) = [s for s in tracer.spans() if s.name == "engine.evaluate_population"]
        assert pop.attrs["n_problems"] == 3
        assert pop.attrs["n_failures"] == 1
        assert _counter_value("repro_engine_evaluations_total", kind="population") == 1.0

    def test_degrade_terminals_marked(self):
        engine = RobustnessEngine(
            config=SolverConfig(pool_size=0, maxiter=1, cache_size=0)
        )
        problems = [([_wavy_feature(i)], PARAM) for i in range(2)]
        with obs.observed() as tracer:
            batch = engine.evaluate_population(
                problems,
                on_error="degrade",
                retry_policy=RetryPolicy(max_attempts=1, backoff_base=0.0),
            )
        assert all(rec.fallback_used for rec in batch.failures)
        terminals = [s for s in tracer.spans() if s.name == "fault.task"]
        assert len(terminals) == 2
        assert {s.attrs["terminal"] for s in terminals} == {"degrade"}

    def test_pooled_run_ships_worker_spans_back(self):
        cfg = SolverConfig(pool_size=2, cache_size=0)
        engine = RobustnessEngine(config=cfg, backend="process")
        problems = [([_feature(i)], PARAM) for i in range(3)]
        with obs.observed() as tracer:
            batch = engine.evaluate_population(problems, on_error="record")
        assert batch.ok
        spans = tracer.spans()
        worker = [s for s in spans if s.name == "pool.worker.solve"]
        terminals = [s for s in spans if s.name == "fault.task"]
        import os

        assert len(terminals) == 3
        assert len(worker) == 3
        assert all(s.pid != os.getpid() for s in worker)
        # worker spans joined the parent's trace
        assert len({s.trace_id for s in spans}) == 1
        assert _counter_value("repro_pool_submits_total") == 3.0


class TestDisabledIsInert:
    def test_results_bit_for_bit_identical(self):
        def run() -> list[float]:
            engine = RobustnessEngine(
                config=SolverConfig(pool_size=0, cache_size=0)
            )
            batch = engine.evaluate_population(
                [([_feature(i)], PARAM) for i in range(3)], on_error="record"
            )
            return [r.radius for m in batch for r in m.radii]

        baseline = run()
        with obs.observed():
            enabled = run()
        disabled = run()
        assert baseline == enabled == disabled  # exact float equality

    def test_disabled_run_records_nothing(self):
        engine = RobustnessEngine(
            config=SolverConfig(pool_size=0, cache_size=0)
        )
        engine.evaluate_population([([_feature(0)], PARAM)], on_error="record")
        assert obs.get_registry().to_json() == {}
        assert obs.get_tracer() is None


class TestMetricsWiring:
    def test_cache_hit_miss_counters(self):
        engine = RobustnessEngine(config=SolverConfig(pool_size=0))
        problems = [([_feature(0)], PARAM)]
        with obs.observed():
            engine.evaluate_population(problems, on_error="record")
            engine.evaluate_population(problems, on_error="record")
        assert _counter_value("repro_cache_events_total", event="miss") >= 1.0
        assert _counter_value("repro_cache_events_total", event="hit") >= 1.0

    def test_allocation_and_hiperd_counters_and_spans(self):
        engine = RobustnessEngine()
        etc = np.ones((4, 2))
        mappings = np.array([[0, 1, 0, 1], [1, 1, 0, 0]])
        with obs.observed() as tracer:
            engine.evaluate_allocation(mappings, etc, tau=1.2)
        (span,) = [
            s for s in tracer.spans() if s.name == "engine.evaluate_allocation"
        ]
        assert span.attrs["n_mappings"] == 2
        assert _counter_value("repro_engine_evaluations_total", kind="allocation") == 1.0

    def test_sanitizer_violations_counted(self, monkeypatch):
        import dataclasses

        import repro.engine.engine as engine_mod

        real = engine_mod.metric_from_radii

        def corrupted(radii, parameter, **kwargs):
            radii = tuple(dataclasses.replace(r, radius=float("nan")) for r in radii)
            return real(radii, parameter, **kwargs)

        monkeypatch.setattr(engine_mod, "metric_from_radii", corrupted)
        engine = RobustnessEngine(config=SolverConfig(pool_size=0))
        with obs.observed():
            batch = engine.evaluate_population([([_feature(0)], PARAM)], on_error="record")
        assert [f.stage for f in batch.failures] == ["sanitize"]
        assert _counter_value("repro_sanitizer_events_total", kind="violation") == 1.0
        assert _counter_value("repro_sanitizer_events_total", kind="fp-event") == 0.0


class TestCliTrace:
    def test_trace_run_profile_and_check(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        status = main(
            [
                "trace",
                "run",
                "--profile",
                "--trace-out",
                str(trace_file),
                "table2",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "stage" in out and "cli.table2" in out
        assert "hiperd.robustness" in out  # scalar solver spans show up
        doc = json.loads(trace_file.read_text(encoding="utf-8"))
        assert obs.validate_chrome_trace(doc) == []

        schema = "tests/obs/golden/trace_schema.json"
        assert main(["trace", "check", str(trace_file), "--schema", schema]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_trace_run_leaves_obs_disabled(self, tmp_path):
        assert main(["trace", "run", "table2"]) == 0
        assert not obs.enabled()

    def test_trace_check_rejects_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Q"}]}', encoding="utf-8")
        assert main(["trace", "check", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out
        assert main(["trace", "check", str(tmp_path / "missing.json")]) == 2

    def test_trace_run_argument_errors(self, capsys):
        assert main(["trace", "run"]) == 2
        assert main(["trace", "run", "trace", "run", "table2"]) == 2
        assert main(["trace", "run", "no-such-command"]) == 2
        err = capsys.readouterr().err
        assert "nesting" in err and "unknown subcommand" in err

    def test_trace_run_metrics_prometheus(self, tmp_path):
        # heuristics routes through RobustnessEngine, so the engine counter
        # must land in the exported exposition text
        metrics_file = tmp_path / "metrics.prom"
        status = main(
            [
                "trace",
                "run",
                "--metrics-out",
                str(metrics_file),
                "--metrics-format",
                "prometheus",
                "heuristics",
                "--seed",
                "3",
            ]
        )
        assert status == 0
        text = metrics_file.read_text(encoding="utf-8")
        assert "# TYPE repro_engine_evaluations_total counter" in text
        assert 'repro_engine_evaluations_total{kind="allocation"} 1.0' in text
