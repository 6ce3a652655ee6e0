"""Execution-backend protocol: capabilities, resolution, parity.

The acceptance matrix of the backend layer: the same seeded population
must come back bit-for-bit identical from both backends — results,
failure records under injected faults (modulo wall time) and per-task
observability accounting — and the batched (chunked) path must agree with
the per-task supervisor.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.core.config import SolverConfig
from repro.core.features import FeatureBounds, PerformanceFeature
from repro.core.impact import CallableImpact
from repro.core.perturbation import PerturbationParameter
from repro.engine import RetryPolicy, solve_radius_tasks_isolated
from repro.engine.backends import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    BackendSpec,
    ProcessPoolBackend,
    SerialBackend,
    get_backend_class,
    resolve_backend,
)
from repro.exceptions import ValidationError
from repro.faults import wrap_feature

PARAM = PerturbationParameter("pi", np.array([0.5, 0.5]))


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset_metrics()
    yield
    obs.disable()
    obs.reset_metrics()


def _quad(pi):
    return float(pi @ pi)


def _quad_grad(pi):
    return 2.0 * pi


def _wavy(pi):
    return float(pi @ pi + 0.3 * np.sin(8 * pi[0]) * np.cos(8 * pi[1]))


def _feature(i: int) -> PerformanceFeature:
    return PerformanceFeature(
        f"q_{i}",
        CallableImpact(_quad, grad=_quad_grad, name="quad"),
        FeatureBounds.upper_only(4.0 + 0.01 * i),
    )


def _tasks(n: int, config: SolverConfig, faulty=()) -> list[tuple]:
    from repro.core.norms import get_norm

    norm = get_norm(None)
    tasks = []
    for i in range(n):
        f = _feature(i)
        if i in faulty:
            f = wrap_feature(f, "nan", on_call=1)
        tasks.append((f, PARAM, norm, config))
    return tasks


def _square(x):
    return x * x


def _result_dicts(results):
    return [r.to_dict() for r in results]


def _records_no_wall(records):
    return [dataclasses.replace(r, wall_time=0.0) for r in records]


class TestCapabilities:
    def test_registry_names(self):
        assert BACKEND_NAMES == ("serial", "process")

    def test_unknown_name_raises(self):
        with pytest.raises(ValidationError, match="serial"):
            get_backend_class("quantum")

    @pytest.mark.parametrize("name, isolated", [("serial", False), ("process", True)])
    def test_capability_matrix(self, name, isolated):
        caps = get_backend_class(name).capabilities
        assert caps.name == name
        assert caps.isolated is isolated


class TestResolve:
    def test_legacy_heuristic(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None, 0).name == "serial"
        spec = resolve_backend(None, 3)
        assert spec.name == "process"
        assert spec.workers == 3

    def test_name_and_class_and_spec(self):
        assert resolve_backend("process", 2).name == "process"
        assert resolve_backend(ProcessPoolBackend, 2).name == "process"
        spec = BackendSpec("serial", 1, SerialBackend)
        assert resolve_backend(spec, 4) is spec

    def test_instance_is_handed_out_once(self):
        inst = SerialBackend()
        spec = resolve_backend(inst, 0)
        assert spec.create() is inst

    def test_env_var_overrides_heuristic(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        assert resolve_backend(None, 0).name == "process"
        # an explicit backend still beats the environment
        assert resolve_backend("serial", 0).name == "serial"

    def test_env_var_unknown_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "gpu")
        with pytest.raises(ValidationError, match="REPRO_BACKEND"):
            resolve_backend(None, 0)

    def test_bad_backend_type_raises(self):
        with pytest.raises(ValidationError):
            resolve_backend(42, 0)  # type: ignore[arg-type]

    def test_worker_count_validated(self):
        with pytest.raises(ValidationError):
            SerialBackend(max_workers=0)


class TestExecute:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_submit_round_trip(self, name):
        backend = get_backend_class(name)(max_workers=2)
        try:
            assert backend.submit(_square, 7).result(timeout=60) == 49
        finally:
            backend.shutdown()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_exceptions_surface_via_future(self, name):
        backend = get_backend_class(name)(max_workers=1)
        try:
            fut = backend.submit(_square, "no")
            with pytest.raises(TypeError):
                fut.result(timeout=60)
        finally:
            backend.shutdown()


class TestParityMatrix:
    """Same seeded population, bit-for-bit across both backends."""

    CONFIG = SolverConfig(pool_size=2, n_starts=2, seed=11)
    POLICY = RetryPolicy(max_attempts=2, backoff_base=0.0)

    def _run(self, name, faulty=(), on_error="record", config=None):
        cfg = config or self.CONFIG
        return solve_radius_tasks_isolated(
            _tasks(6, cfg, faulty=faulty),
            cfg,
            policy=self.POLICY,
            on_error=on_error,
            backend=name,
        )

    def test_clean_population_identical(self):
        reference, ref_failures = self._run("serial")
        assert ref_failures == []
        results, failures = self._run("process")
        assert _result_dicts(results) == _result_dicts(reference)
        assert failures == []

    def test_failure_records_identical_under_faults(self):
        faulty = (1, 4)
        reference, ref_failures = self._run("serial", faulty=faulty)
        assert {r.task_index for r in ref_failures} == set(faulty)
        results, failures = self._run("process", faulty=faulty)
        assert _result_dicts(results) == _result_dicts(reference)
        assert _records_no_wall(failures) == _records_no_wall(ref_failures)

    def test_degrade_mode_identical(self):
        # maxiter=1 makes the wavy landscape non-convergent, so every task
        # falls back to the (seeded, hence reproducible) Monte-Carlo bound
        cfg = SolverConfig(pool_size=2, maxiter=1, seed=11)
        policy = RetryPolicy(max_attempts=1, backoff_base=0.0)
        tasks = [
            (
                PerformanceFeature(
                    f"w_{i}",
                    CallableImpact(_wavy, name="wavy"),
                    FeatureBounds.upper_only(3.0 + 0.05 * i),
                ),
                PARAM,
                None,
                cfg,
            )
            for i in range(4)
        ]
        reference, ref_failures = solve_radius_tasks_isolated(
            tasks, cfg, policy=policy, on_error="degrade", backend="serial"
        )
        assert all(rec.fallback_used for rec in ref_failures)
        assert all(res.solver == "montecarlo" for res in reference)
        results, failures = solve_radius_tasks_isolated(
            tasks, cfg, policy=policy, on_error="degrade", backend="process"
        )
        assert _result_dicts(results) == _result_dicts(reference)
        assert _records_no_wall(failures) == _records_no_wall(ref_failures)

    def test_batched_agrees_with_per_task_supervisor(self):
        # a task deadline disables the chunked path, forcing the process
        # backend through the per-task supervisor; results must not depend
        # on the path taken
        batched, batched_failures = self._run("process", faulty=(0,))
        per_task_cfg = self.CONFIG.replace(task_timeout=60.0)
        per_task, per_task_failures = self._run(
            "process", faulty=(0,), config=per_task_cfg
        )
        assert _result_dicts(batched) == _result_dicts(per_task)
        assert _records_no_wall(batched_failures) == _records_no_wall(
            per_task_failures
        )


def _invalid_away_from_origin(pi):
    value = float(pi @ pi)
    if value > 0.6:  # the origin (0.5, 0.5) evaluates cleanly
        raise ValidationError("impact undefined away from the origin")
    return value


def _divide_by_zero(pi):
    return float(pi @ pi) / 0.0


class TestRaisingImpactParity:
    """An impact that raises ends the same way on every path: serial, the
    chunked process path and the per-task process path (a deadline forces
    one task per future).  ``ValidationError`` raises in every mode; any
    other exception is a retried solver-stage failure, recorded as
    ``stage="solve"`` or, under ``"raise"``, raised."""

    # one worker, six tasks: the chunked path ships chunks of two tasks
    CONFIG = SolverConfig(pool_size=1, n_starts=1, seed=7)
    POLICY = RetryPolicy(max_attempts=2, backoff_base=0.0)
    PATHS = (
        ("serial", None),
        ("process", None),
        ("process", 60.0),
    )

    def _outcome(self, impact, on_error, backend, task_timeout):
        cfg = self.CONFIG.replace(task_timeout=task_timeout)
        tasks = _tasks(6, cfg)
        faulty = PerformanceFeature(
            "bad_3", CallableImpact(impact, name="bad"), FeatureBounds.upper_only(4.0)
        )
        tasks[3] = (faulty, PARAM, tasks[3][2], cfg)
        try:
            results, failures = solve_radius_tasks_isolated(
                tasks, cfg, policy=self.POLICY, on_error=on_error, backend=backend
            )
        except Exception as exc:  # the outcome under test
            return ("raised", type(exc).__name__, str(exc))
        return ("returned", _result_dicts(results), _records_no_wall(failures))

    @pytest.mark.parametrize("on_error", ["record", "raise"])
    def test_validation_error_raises_on_every_path(self, on_error):
        outcomes = [
            self._outcome(_invalid_away_from_origin, on_error, backend, timeout)
            for backend, timeout in self.PATHS
        ]
        assert outcomes[0] == (
            "raised",
            "ValidationError",
            "impact undefined away from the origin",
        )
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    def test_other_exception_is_recorded_on_every_path(self):
        outcomes = [
            self._outcome(_divide_by_zero, "record", backend, timeout)
            for backend, timeout in self.PATHS
        ]
        kind, results, failures = outcomes[0]
        assert kind == "returned"
        assert [(r.task_index, r.stage, r.attempts) for r in failures] == [(3, "solve", 2)]
        assert "ZeroDivisionError" in failures[0].exception
        assert results[3]["solver"] == "failed"
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    def test_other_exception_raises_in_raise_mode_on_every_path(self):
        outcomes = [
            self._outcome(_divide_by_zero, "raise", backend, timeout)
            for backend, timeout in self.PATHS
        ]
        assert outcomes[0][:2] == ("raised", "ZeroDivisionError")
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]


@pytest.mark.chaos
class TestCrashParity:
    """Worker crashes are contained identically on the chunked and the
    per-task process paths."""

    def test_chunked_and_per_task_agree_under_crashes(self):
        cfg = SolverConfig(pool_size=2, n_starts=1, seed=2)
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0)

        def run(config):
            tasks = []
            for i in range(6):
                f = _feature(i)
                if i == 2:
                    f = wrap_feature(f, "crash", worker_only=True)
                tasks.append((f, PARAM, None, config))
            return solve_radius_tasks_isolated(
                tasks, config, policy=policy, on_error="record", backend="process"
            )

        chunked_results, chunked_failures = run(cfg)
        # a task deadline forces the per-task supervisor
        per_task_results, per_task_failures = run(cfg.replace(task_timeout=60.0))

        # the crashing task fails the same way (stage, attempts, placement)...
        assert [r.task_index for r in chunked_failures] == [2]
        assert [r.task_index for r in per_task_failures] == [2]
        for rec in (chunked_failures[0], per_task_failures[0]):
            assert rec.stage == "crash"
            assert "WorkerCrashError" in rec.exception
        assert chunked_failures[0].attempts == per_task_failures[0].attempts

        # ...and every healthy task is bit-for-bit identical
        healthy = [i for i in range(6) if i != 2]
        assert [chunked_results[i].to_dict() for i in healthy] == [
            per_task_results[i].to_dict() for i in healthy
        ]
        assert not chunked_results[2].converged
        assert not per_task_results[2].converged


class TestObservabilityParity:
    """Per-task accounting is backend-independent."""

    CONFIG = SolverConfig(pool_size=2, n_starts=1, seed=5)
    POLICY = RetryPolicy(max_attempts=2, backoff_base=0.0)

    def _accounting(self, name):
        obs.reset_metrics()
        tasks = _tasks(4, self.CONFIG, faulty=(3,))
        with obs.observed() as tracer:
            solve_radius_tasks_isolated(
                tasks, self.CONFIG, policy=self.POLICY, on_error="record", backend=name
            )
        spans = tracer.spans()
        terminals = [s for s in spans if s.name == "fault.task"]
        hist = obs.get_registry().to_json().get("repro_radius_solve_seconds", {})
        n_solves = sum(c["count"] for c in hist.get("children", []))
        states = sorted(
            (s.attrs["task_index"], s.attrs["terminal"]) for s in terminals
        )
        backends = {s.attrs.get("backend") for s in terminals}
        obs.disable()
        obs.reset_metrics()
        return states, n_solves, backends

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_every_backend_accounts_for_every_task(self, name):
        states, n_solves, backends = self._accounting(name)
        assert states == [
            (0, "success"),
            (1, "success"),
            (2, "success"),
            (3, "failure"),
        ]
        assert n_solves == 4
        # terminal spans carry the backend that ran the batch
        assert backends == {name}

    def test_worker_spans_cross_processes_only_when_isolated(self):
        import os

        for name in BACKEND_NAMES:
            with obs.observed() as tracer:
                solve_radius_tasks_isolated(
                    _tasks(4, self.CONFIG),
                    self.CONFIG,
                    policy=self.POLICY,
                    on_error="record",
                    backend=name,
                )
            worker_pids = {
                s.pid for s in tracer.spans() if s.name == "pool.worker.solve"
            }
            if get_backend_class(name).capabilities.isolated:
                assert worker_pids, name
                assert os.getpid() not in worker_pids, name
            else:
                # inline solves record no worker spans at all
                assert worker_pids == set(), name
            obs.disable()

    @pytest.mark.chaos
    def test_spans_keep_global_indices_after_a_dead_chunk(self, caplog):
        # the crash kills the chunk holding task 5 and poisons its
        # neighbours; the re-run tasks still report their batch-wide index
        tasks = _tasks(8, self.CONFIG)
        tasks[5] = (wrap_feature(_feature(5), "crash", worker_only=True), PARAM, None, self.CONFIG)
        with obs.observed() as tracer:
            _, failures = solve_radius_tasks_isolated(
                tasks, self.CONFIG, policy=self.POLICY, on_error="record", backend="process"
            )
        terminals = [s for s in tracer.spans() if s.name == "fault.task"]
        assert sorted((s.attrs["task_index"], s.attrs["feature"]) for s in terminals) == [
            (i, f"q_{i}") for i in range(8)
        ]
        assert [(r.task_index, r.stage) for r in failures] == [(5, "crash")]
        messages = [r.getMessage() for r in caplog.records]
        crash_logs = [m for m in messages if "crash on attempt" in m]
        assert crash_logs
        assert all(m.startswith("task 5:") for m in crash_logs)

    def test_process_submits_one_future_per_chunk(self):
        # 40 tasks over 2 workers: about four chunks per worker, so 8 chunks
        # of 5 tasks, never one future per task
        with obs.observed():
            results, failures = solve_radius_tasks_isolated(
                _tasks(40, self.CONFIG),
                self.CONFIG,
                policy=self.POLICY,
                on_error="record",
                backend="process",
            )
        submits = obs.get_registry().to_json()["repro_pool_submits_total"]
        assert submits["children"][0]["value"] == 8
        assert len(results) == 40
        assert failures == []


class TestEnginePopulationParity:
    """End-to-end: RobustnessEngine(backend=...) across the matrix."""

    def test_population_values_identical(self):
        config = SolverConfig(pool_size=2, n_starts=1, seed=3)
        problems = [([_feature(i)], PARAM) for i in range(5)]
        from repro.engine import RobustnessEngine

        reference = None
        for name in BACKEND_NAMES:
            batch = RobustnessEngine(config=config, backend=name).evaluate_population(
                problems, on_error="record"
            )
            values = [m.value for m in batch]
            if reference is None:
                reference = values
            assert values == reference, name
            assert batch.failures == ()
