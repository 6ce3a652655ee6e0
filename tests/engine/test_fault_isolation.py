"""Fault-isolated solving: retry policy, failure records, chaos acceptance.

The slow tests that crash or hang real pool workers carry the ``chaos``
marker (``-m chaos`` selects them, ``-m "not chaos"`` skips them); CI runs
them with a two-worker pool via ``REPRO_CHAOS_POOL_SIZE``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.config import SolverConfig
from repro.core.features import FeatureBounds, PerformanceFeature
from repro.core.impact import CallableImpact
from repro.core.perturbation import PerturbationParameter
from repro.engine import (
    BatchRobustnessResult,
    FailureRecord,
    RetryPolicy,
    RobustnessEngine,
    solve_radius_tasks_isolated,
)
from repro.core.radius import robustness_radius
from repro.exceptions import ValidationError
from repro.faults import choose_fault_indices, wrap_feature

CHAOS_POOL_SIZE = int(os.environ.get("REPRO_CHAOS_POOL_SIZE", "2"))

PARAM = PerturbationParameter("pi", np.array([0.5, 0.5]))


def _no_backoff(attempts: int) -> RetryPolicy:
    """``attempts`` tries per task with no sleep between them."""
    return RetryPolicy(max_attempts=attempts, backoff_base=0.0)


def _reference(task: tuple):
    """The serial solve of one task, as the fault-isolated worker runs it."""
    feature, parameter, norm, config = task
    return robustness_radius(feature, parameter, norm=norm, apply_floor=False, config=config)


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


class TestRetryPolicy:
    def test_defaults_and_validation(self):
        p = RetryPolicy()
        assert p.max_attempts == 3
        assert p.backoff_base == 0.05
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValidationError):
            RetryPolicy(max_pool_rebuilds=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base": -0.1},
            {"backoff_base": float("nan")},
            {"backoff_base": float("inf")},
        ],
        ids=lambda k: "-".join(f"{a}={v}" for a, v in k.items()),
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            RetryPolicy(**kwargs)

    def test_from_config(self):
        p = RetryPolicy.from_config(SolverConfig(seed=9))
        assert p == RetryPolicy(seed=9)
        assert RetryPolicy.from_config(SolverConfig(seed=None)).seed == 0

    def test_delay_deterministic_and_growing(self):
        p = RetryPolicy(backoff_base=0.01, backoff_factor=2.0, jitter=0.25, seed=3)
        assert p.delay(7, 0) == p.delay(7, 0)
        assert p.delay(7, 0) != p.delay(8, 0)
        # exponential growth dominates the bounded jitter
        assert p.delay(7, 3) > p.delay(7, 0)

    def test_zero_base_means_no_sleep(self):
        assert RetryPolicy(backoff_base=0.0).delay(0, 5) == 0.0

    def test_escalation_ladder(self):
        cfg = SolverConfig(n_starts=4, ftol=1e-12, task_timeout=1.0)
        p = RetryPolicy()
        assert p.escalated(cfg, 0) is cfg
        e2 = p.escalated(cfg, 2)
        assert e2.n_starts == 16
        assert e2.ftol == pytest.approx(1e-14)
        assert e2.task_timeout == pytest.approx(4.0)

    def test_escalation_disabled(self):
        cfg = SolverConfig(n_starts=4)
        assert RetryPolicy(escalate=False).escalated(cfg, 2) is cfg


class TestFailureRecord:
    def test_round_trip(self):
        rec = FailureRecord(
            task_index=3,
            attempts=2,
            stage="timeout",
            exception="SolverTimeoutError('t')",
            fallback_used=True,
            wall_time=1.25,
            reason="max-iter",
            feature="q_3",
            parameter="pi",
            problem_index=1,
        )
        assert FailureRecord.from_dict(rec.to_dict()) == rec

    def test_type_tag_checked(self):
        with pytest.raises(ValidationError, match="FailureRecord"):
            FailureRecord.from_dict({"type": "Mapping"})

    def test_io_registry(self):
        from repro.io import result_from_dict

        rec = FailureRecord(task_index=0, attempts=1, stage="solve", exception=None)
        assert result_from_dict(rec.to_dict()) == rec


class TestSerialIsolation:
    """The pool-free paths (pool_size=0, or a single task)."""

    def test_on_error_validated(self):
        with pytest.raises(ValidationError, match="on_error"):
            solve_radius_tasks_isolated([], SolverConfig(), on_error="ignore")

    def test_empty_batch(self):
        assert solve_radius_tasks_isolated([], SolverConfig()) == ([], [])

    def test_healthy_batch_no_failures(self):
        cfg = SolverConfig(pool_size=0)
        tasks = [(_feature(i), PARAM, None, cfg) for i in range(4)]
        results, failures = solve_radius_tasks_isolated(tasks, cfg)
        assert failures == []
        assert all(r.converged for r in results)
        for task, res in zip(tasks, results):
            assert res.radius == _reference(task).radius

    def test_nan_injection_recorded(self):
        cfg = SolverConfig(pool_size=0)
        tasks = [(_feature(i), PARAM, None, cfg) for i in range(3)]
        tasks[1] = (wrap_feature(tasks[1][0], "nan"), PARAM, None, cfg)
        results, failures = solve_radius_tasks_isolated(
            tasks, cfg, policy=_no_backoff(2), on_error="record"
        )
        assert len(failures) == 1
        rec = failures[0]
        assert rec.task_index == 1
        assert rec.stage == "solve"
        assert rec.attempts == 2  # retried once, then terminal
        assert rec.reason == "nan-from-impact"
        assert rec.feature == "q_1"
        assert not results[1].converged
        assert results[0].converged and results[2].converged

    def test_raise_injection_recorded(self):
        cfg = SolverConfig(pool_size=0)
        tasks = [(_feature(i), PARAM, None, cfg) for i in range(2)]
        tasks[0] = (wrap_feature(tasks[0][0], "raise"), PARAM, None, cfg)
        results, failures = solve_radius_tasks_isolated(
            tasks, cfg, policy=_no_backoff(1), on_error="record"
        )
        assert len(failures) == 1
        assert failures[0].stage == "solve"
        assert "injected fault" in failures[0].exception
        assert results[0].solver == "failed"
        assert np.isnan(results[0].radius)

    def test_raise_mode_raises_terminal_exception(self):
        from repro.exceptions import SolverError

        cfg = SolverConfig(pool_size=0)
        tasks = [(wrap_feature(_feature(0), "raise"), PARAM, None, cfg)]
        with pytest.raises(SolverError, match="injected fault"):
            solve_radius_tasks_isolated(tasks, cfg, policy=_no_backoff(1), on_error="raise")

    def test_raise_mode_returns_nonconverged_without_retry(self):
        # Legacy semantics: non-convergence was never an exception.
        cfg = SolverConfig(pool_size=0, maxiter=1)
        tasks = [(_wavy_feature(0), PARAM, None, cfg)]
        results, failures = solve_radius_tasks_isolated(
            tasks, cfg, policy=_no_backoff(4), on_error="raise"
        )
        assert failures == []
        assert not results[0].converged
        assert results[0].failure == "max-iter"

    def test_heal_after_attempt_recovers(self):
        cfg = SolverConfig(pool_size=0)
        tasks = [
            (
                wrap_feature(_feature(0), "raise", heal_after_attempt=1),
                PARAM,
                None,
                cfg,
            )
        ]
        results, failures = solve_radius_tasks_isolated(
            tasks, cfg, policy=_no_backoff(3), on_error="record"
        )
        assert failures == []
        assert results[0].converged

    def test_degrade_produces_mc_bound(self):
        cfg = SolverConfig(pool_size=0, maxiter=1)
        tasks = [(_wavy_feature(i), PARAM, None, cfg) for i in range(3)]
        results, failures = solve_radius_tasks_isolated(
            tasks, cfg, policy=_no_backoff(1), on_error="degrade"
        )
        assert len(failures) == 3
        for res, rec in zip(results, failures):
            assert res.solver == "montecarlo"
            assert res.failure == "mc-bound"
            assert not res.converged  # a bound, never an exact radius
            assert np.isfinite(res.radius) and res.radius > 0
            assert rec.fallback_used
            assert rec.reason == "max-iter"

    def test_degrade_bound_brackets_the_true_radius(self):
        # Ray search converges from above: the MC bound must not be below
        # the radius a converged solve finds.
        cfg_bad = SolverConfig(pool_size=0, maxiter=1)
        cfg_good = SolverConfig(pool_size=0)
        task = (_wavy_feature(0), PARAM, None, cfg_bad)
        results, _ = solve_radius_tasks_isolated(
            [task], cfg_bad, policy=_no_backoff(1), on_error="degrade"
        )
        exact = _reference((_wavy_feature(0), PARAM, None, cfg_good))
        assert exact.converged
        assert results[0].radius >= exact.radius - 1e-9


class TestEngineIntegration:
    def _problems(self, n: int, bad: set[int]):
        problems = []
        for i in range(n):
            feat = _feature(i)
            if i in bad:
                feat = wrap_feature(feat, "nan")
            problems.append(([feat], PARAM))
        return problems

    def test_record_mode_annotates_problem_index(self):
        engine = RobustnessEngine(config=SolverConfig(pool_size=0))
        batch = engine.evaluate_population(
            self._problems(5, {2}), on_error="record", retry_policy=_no_backoff(1)
        )
        assert isinstance(batch, BatchRobustnessResult)
        assert not batch.ok
        assert [rec.problem_index for rec in batch.failures] == [2]
        assert batch.failures_for(2) == (batch.failures[0],)
        assert batch.failures_for(0) == ()
        # the nan-injected solve keeps its uncertified result, flagged
        assert not batch[2].converged
        assert batch[2].radii[0].failure == "nan-from-impact"
        for i in (0, 1, 3, 4):
            assert np.isfinite(batch[i].value)
            assert batch[i].converged

    def test_raise_mode_is_default_and_raises(self):
        from repro.exceptions import SolverError

        engine = RobustnessEngine(config=SolverConfig(pool_size=0))
        problems = [([wrap_feature(_feature(0), "raise")], PARAM)]
        with pytest.raises(SolverError):
            engine.evaluate_population(problems, retry_policy=_no_backoff(1))

    def test_bad_on_error_rejected(self):
        engine = RobustnessEngine()
        with pytest.raises(ValidationError, match="on_error"):
            engine.evaluate_population(self._problems(2, set()), on_error="explode")
        with pytest.raises(ValidationError, match="on_error"):
            engine.robustness_of([_feature(0)], PARAM, on_error="explode")

    def test_failed_results_never_cached(self):
        engine = RobustnessEngine(config=SolverConfig(pool_size=0))
        problems = self._problems(1, {0})
        policy = _no_backoff(1)
        first = engine.evaluate_population(problems, on_error="record", retry_policy=policy)
        second = engine.evaluate_population(problems, on_error="record", retry_policy=policy)
        # the failed solve must not be served from cache as a success
        assert len(first.failures) == len(second.failures) == 1
        assert not second[0].converged

    def test_batch_serialization_round_trip(self):
        engine = RobustnessEngine(config=SolverConfig(pool_size=0))
        batch = engine.evaluate_population(
            self._problems(3, {1}), on_error="record", retry_policy=_no_backoff(1)
        )
        clone = BatchRobustnessResult.from_dict(batch.to_dict())
        assert len(clone) == 3
        assert clone.on_error == "record"
        assert clone.failures == batch.failures
        assert clone[0].value == batch[0].value

    def test_robustness_of_forwards_on_error(self):
        engine = RobustnessEngine(config=SolverConfig(pool_size=0))
        result = engine.robustness_of(
            [wrap_feature(_feature(0), "nan")],
            PARAM,
            on_error="record",
            retry_policy=_no_backoff(1),
        )
        assert not result.converged
        assert result.radii[0].failure == "nan-from-impact"


@pytest.mark.chaos
@pytest.mark.skipif(
    os.environ.get("REPRO_BACKEND") == "serial",
    reason="crash/hang containment requires the isolating process backend",
)
class TestChaosAcceptance:
    """The headline scenario: a 200-task batch riddled with injected faults
    completes with bit-for-bit serial results for every healthy task and a
    FailureRecord (never an unhandled exception) for every injected one."""

    N = 200
    NONCONVERGED_FRACTION = 0.2

    def test_200_task_batch_with_injected_faults(self):
        cfg = SolverConfig(pool_size=CHAOS_POOL_SIZE, task_timeout=3.0)
        # escalate=False keeps retried solves identical to attempt 0, so an
        # innocently requeued healthy task still matches the serial result.
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, escalate=False)

        nan_idx = set(
            choose_fault_indices(self.N, self.NONCONVERGED_FRACTION, seed=4).tolist()
        )
        remaining = sorted(set(range(self.N)) - nan_idx)
        crash_idx = set(remaining[10:13])  # 3 crashing workers
        hang_idx = set(remaining[40:42])  # 2 hung solves
        raise_idx = set(remaining[70:73])  # 3 raising impacts
        injected = nan_idx | crash_idx | hang_idx | raise_idx

        tasks = []
        for i in range(self.N):
            feat = _feature(i)
            if i in nan_idx:
                feat = wrap_feature(feat, "nan")
            elif i in crash_idx:
                feat = wrap_feature(feat, "crash", worker_only=True)
            elif i in hang_idx:
                feat = wrap_feature(feat, "hang", hang_seconds=60.0, worker_only=True)
            elif i in raise_idx:
                feat = wrap_feature(feat, "raise")
            tasks.append((feat, PARAM, None, cfg))

        results, failures = solve_radius_tasks_isolated(
            tasks, cfg, policy=policy, on_error="record"
        )

        assert len(results) == self.N
        assert all(res is not None for res in results)

        failed = {rec.task_index for rec in failures}
        assert failed == injected  # every injected task failed, nothing else

        by_index = {rec.task_index: rec for rec in failures}
        for i in nan_idx:
            assert by_index[i].stage == "solve"
            assert by_index[i].reason == "nan-from-impact"
        for i in crash_idx:
            assert by_index[i].stage == "crash"
            assert "WorkerCrashError" in by_index[i].exception
        for i in hang_idx:
            assert by_index[i].stage == "timeout"
            assert "SolverTimeoutError" in by_index[i].exception
        for i in raise_idx:
            assert by_index[i].stage == "solve"
            assert "injected fault" in by_index[i].exception
        for rec in failures:
            assert rec.attempts == 2  # one retry each, then terminal
            assert not results[rec.task_index].converged

        # healthy tasks: bit-for-bit equality with the serial solver
        for i in sorted(set(range(self.N)) - injected):
            ref = _reference((_feature(i), PARAM, None, cfg))
            assert results[i].radius == ref.radius, i
            assert results[i].converged
            np.testing.assert_array_equal(
                results[i].boundary_point, ref.boundary_point
            )

    def test_crash_attribution_is_exact(self):
        cfg = SolverConfig(pool_size=CHAOS_POOL_SIZE)
        tasks = [(_feature(i), PARAM, None, cfg) for i in range(8)]
        tasks[5] = (wrap_feature(_feature(5), "crash", worker_only=True), PARAM, None, cfg)
        results, failures = solve_radius_tasks_isolated(
            tasks, cfg, policy=_no_backoff(1), on_error="record"
        )
        assert [rec.task_index for rec in failures] == [5]
        assert failures[0].stage == "crash"
        for i in (0, 1, 2, 3, 4, 6, 7):
            assert results[i].converged

    def test_crash_in_raise_mode_raises_worker_crash_error(self):
        from repro.exceptions import WorkerCrashError

        cfg = SolverConfig(pool_size=CHAOS_POOL_SIZE)
        tasks = [(_feature(i), PARAM, None, cfg) for i in range(4)]
        tasks[2] = (wrap_feature(_feature(2), "crash", worker_only=True), PARAM, None, cfg)
        with pytest.raises(WorkerCrashError):
            solve_radius_tasks_isolated(tasks, cfg, policy=_no_backoff(1), on_error="raise")

    def test_timeout_contained_and_attributed(self):
        cfg = SolverConfig(pool_size=CHAOS_POOL_SIZE, task_timeout=1.0)
        tasks = [(_feature(i), PARAM, None, cfg) for i in range(5)]
        tasks[3] = (
            wrap_feature(_feature(3), "hang", hang_seconds=60.0, worker_only=True),
            PARAM,
            None,
            cfg,
        )
        results, failures = solve_radius_tasks_isolated(
            tasks, cfg, policy=_no_backoff(2), on_error="record"
        )
        assert [rec.task_index for rec in failures] == [3]
        assert failures[0].stage == "timeout"
        assert failures[0].attempts == 2
        for i in (0, 1, 2, 4):
            assert results[i].converged


# Run in a child interpreter: a one-task batch that ran in the caller would
# kill (crash) or block (hang) the test process itself.
_ONE_TASK_CHILD = """
import json, sys
from repro.core.config import SolverConfig
from repro.engine import RetryPolicy, solve_radius_tasks_isolated
from repro.faults import wrap_feature
from tests.engine.test_fault_isolation import PARAM, _feature

mode = sys.argv[1]
cfg = SolverConfig(pool_size=1, task_timeout=0.5 if mode == "hang" else None)
feature = wrap_feature(_feature(0), mode, hang_seconds=1.0)
results, failures = solve_radius_tasks_isolated(
    [(feature, PARAM, None, cfg)],
    cfg,
    policy=RetryPolicy(max_attempts=1, backoff_base=0.0),
    on_error="record",
    backend="process",
)
print(json.dumps([[r.task_index, r.stage] for r in failures]))
"""


@pytest.mark.chaos
class TestOneTaskIsolation:
    """Isolation does not depend on batch size: a one-task batch on the
    process backend runs in a worker, so a crash or a hang stays there."""

    @pytest.mark.parametrize("mode, stage", [("crash", "crash"), ("hang", "timeout")])
    def test_one_task_batch_runs_in_a_worker(self, mode, stage):
        import subprocess
        import sys
        from pathlib import Path

        import repro

        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1]), str(root)]
        )
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _ONE_TASK_CHILD, mode],
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
                timeout=20,
            )
        except subprocess.TimeoutExpired:
            pytest.fail(f"one-task {mode} batch still blocked the caller after 20 s")
        assert proc.returncode == 0, f"the caller died ({proc.returncode}): {proc.stderr[-2000:]}"
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == [[0, stage]]
