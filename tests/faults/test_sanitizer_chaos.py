"""Engine-level batch audit: injected numeric corruption is never silent.

Every :class:`~repro.engine.RobustnessEngine` batch passes the
post-conditions of :mod:`repro.engine.sanitize`.  Two corruption families
are exercised against the default engine:

* *admitted* failures — a NaN-injecting impact that the fault-tolerant layer
  catches and records.  The audit must add nothing (the record already
  covers the NaN) and must not perturb healthy results.
* *silent* failures — corruption smuggled in past the fault layer (patched
  ``metric_from_radii`` / ``batch_robustness_radii``), the class of bug the
  static rules cannot see.  The audit must raise
  :class:`~repro.exceptions.SanitizerError` under ``on_error="raise"`` and
  append a ``stage="sanitize"`` record under ``on_error="record"``.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

import repro.engine.engine as engine_mod
from repro.core.config import SolverConfig
from repro.core.features import FeatureBounds, PerformanceFeature
from repro.core.impact import CallableImpact
from repro.core.perturbation import PerturbationParameter
from repro.engine import RetryPolicy, RobustnessEngine
from repro.exceptions import SanitizerError
from repro.faults import wrap_feature

PARAM = PerturbationParameter("pi", np.array([0.5, 0.5]))

SERIAL = SolverConfig(pool_size=0)
ONE_TRY = RetryPolicy(max_attempts=1, backoff_base=0.0)

CHAOS_POOL_SIZE = int(os.environ.get("REPRO_CHAOS_POOL_SIZE", "2"))


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


def _problems(n: int, bad: set[int] | None = None):
    bad = bad or set()
    return [
        ([wrap_feature(_feature(i), "nan") if i in bad else _feature(i)], PARAM)
        for i in range(n)
    ]


def _poison_metric(monkeypatch, feature_name: str):
    """Make the engine's metric assembly silently NaN one feature's radius —
    a converged-looking result the fault layer never sees."""
    real = engine_mod.metric_from_radii

    def corrupted(results, parameter, *, apply_floor=None):
        results = tuple(
            dataclasses.replace(r, radius=float("nan"))
            if r.feature == feature_name
            else r
            for r in results
        )
        return real(results, parameter, apply_floor=apply_floor)

    monkeypatch.setattr(engine_mod, "metric_from_radii", corrupted)


def _unaudited_run(monkeypatch, problems, **kwargs):
    """The same evaluation with the batch audit bypassed (reference run)."""
    with monkeypatch.context() as m:
        m.setattr(engine_mod, "sanitize_batch", lambda batch: batch)
        return RobustnessEngine(config=SERIAL).evaluate_population(problems, **kwargs)


class TestSilentCorruption:
    def test_default_engine_never_returns_a_silent_nan(self, monkeypatch):
        """No opt-in: the default engine audits every batch."""
        _poison_metric(monkeypatch, "q_1")
        engine = RobustnessEngine()
        with pytest.raises(SanitizerError) as err:
            engine.evaluate_population(_problems(3), retry_policy=ONE_TRY)
        assert err.value.check == "nan-radius"
        batch = engine.evaluate_population(
            _problems(3), on_error="record", retry_policy=ONE_TRY
        )
        assert [(f.stage, f.problem_index) for f in batch.failures] == [("sanitize", 1)]
        assert not batch.ok

    def test_raise_mode_raises_sanitizer_error(self, monkeypatch):
        _poison_metric(monkeypatch, "q_1")
        engine = RobustnessEngine(config=SERIAL)
        with pytest.raises(SanitizerError) as err:
            engine.evaluate_population(_problems(3), retry_policy=ONE_TRY)
        assert err.value.check == "nan-radius"
        assert err.value.context == "problem[1]"

    def test_record_mode_appends_sanitize_record(self, monkeypatch):
        _poison_metric(monkeypatch, "q_1")
        engine = RobustnessEngine(config=SERIAL)
        batch = engine.evaluate_population(
            _problems(3), on_error="record", retry_policy=ONE_TRY
        )
        sanitize_recs = [f for f in batch.failures if f.stage == "sanitize"]
        assert [f.reason for f in sanitize_recs] == ["nan-radius"]
        assert sanitize_recs[0].feature == "q_1"
        assert sanitize_recs[0].problem_index == 1
        # the value itself stays NaN — the record makes it *loud*, not fixed
        assert np.isnan(batch[1].value)

    def test_allocation_nan_raises(self, monkeypatch):
        monkeypatch.setattr(
            engine_mod,
            "batch_robustness_radii",
            lambda assignments, etc, tau: np.full((2, 2), float("nan")),
        )
        engine = RobustnessEngine()
        etc = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 1.5]])
        with pytest.raises(SanitizerError, match="makespan"):
            engine.evaluate_allocation([[0, 1, 0], [1, 0, 1]], etc, tau=1.3)


class TestAdmittedFailures:
    def test_recorded_injection_needs_no_sanitize_record(self):
        engine = RobustnessEngine(config=SERIAL)
        batch = engine.evaluate_population(
            _problems(5, {2}), on_error="record", retry_policy=ONE_TRY
        )
        stages = {f.stage for f in batch.failures}
        assert "sanitize" not in stages  # the solve-stage record covers the NaN
        assert [f.problem_index for f in batch.failures] == [2]

    def test_bit_for_bit_parity_with_unsanitized_run(self, monkeypatch):
        plain = _unaudited_run(
            monkeypatch, _problems(5, {2}), on_error="record", retry_policy=ONE_TRY
        )
        guarded = RobustnessEngine(config=SERIAL).evaluate_population(
            _problems(5, {2}), on_error="record", retry_policy=ONE_TRY
        )
        for i in range(5):
            a, b = plain[i], guarded[i]
            assert (a.value == b.value) or (np.isnan(a.value) and np.isnan(b.value))
            for ra, rb in zip(a.radii, b.radii):
                assert (ra.radius == rb.radius) or (
                    np.isnan(ra.radius) and np.isnan(rb.radius)
                )
        assert len(plain.failures) == len(guarded.failures)

    def test_healthy_population_identical_object_shape(self, monkeypatch):
        plain = _unaudited_run(monkeypatch, _problems(4), retry_policy=ONE_TRY)
        guarded = RobustnessEngine(config=SERIAL).evaluate_population(
            _problems(4), retry_policy=ONE_TRY
        )
        assert [m.value for m in plain] == [m.value for m in guarded]
        assert guarded.ok


@pytest.mark.chaos
@pytest.mark.skipif(
    os.environ.get("REPRO_BACKEND") == "serial",
    reason="crash containment requires the isolating process backend",
)
class TestCrashPlusSanitize:
    """The batch audit while a pool worker crashes mid-batch.  The crash
    must be attributed to its own ``stage="crash"`` record, silent
    corruption must still earn its ``stage="sanitize"`` record, and neither
    failure may be double-counted by the other layer."""

    def test_crash_and_sanitize_records_coexist_without_double_count(
        self, monkeypatch
    ):
        _poison_metric(monkeypatch, "q_1")
        cfg = SolverConfig(pool_size=CHAOS_POOL_SIZE)
        problems = []
        for i in range(6):
            feat = _feature(i)
            if i == 4:
                feat = wrap_feature(feat, "crash", worker_only=True)
            problems.append(([feat], PARAM))
        engine = RobustnessEngine(config=cfg)
        batch = engine.evaluate_population(
            problems, on_error="record", retry_policy=ONE_TRY
        )

        by_stage: dict[str, list] = {}
        for rec in batch.failures:
            by_stage.setdefault(rec.stage, []).append(rec)

        # crash attribution is present and exact
        (crash,) = by_stage["crash"]
        assert crash.problem_index == 4
        assert "WorkerCrashError" in crash.exception
        # the smuggled NaN still earns its sanitize record
        (san,) = by_stage["sanitize"]
        assert san.problem_index == 1
        assert san.reason == "nan-radius"
        assert san.feature == "q_1"
        # no double-counting: one record per (problem, stage), and the
        # crashed problem is covered by its crash record alone
        keys = [(rec.problem_index, rec.stage) for rec in batch.failures]
        assert len(keys) == len(set(keys))
        assert [rec.stage for rec in batch.failures if rec.problem_index == 4] == [
            "crash"
        ]
        assert np.isnan(batch[1].value)
        # healthy problems are untouched by either layer
        for i in (0, 2, 3, 5):
            assert batch[i].converged
            assert np.isfinite(batch[i].value)
