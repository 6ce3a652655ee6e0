"""Unit tests for the engine's batch post-conditions (repro.engine.sanitize)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.engine.sanitize import (
    Violation,
    audit_batch,
    audit_metric_result,
    audit_radius_result,
    check_allocation_batch,
    check_hiperd_batch,
    sanitize_batch,
)
from repro.core.metric import MetricResult
from repro.core.radius import RadiusResult
from repro.engine import BatchRobustnessResult, FailureRecord
from repro.exceptions import SanitizerError


def _radius(
    value: float,
    *,
    feature: str = "phi",
    feasible: bool = True,
    converged: bool = True,
    failure: str | None = None,
    boundary_point: np.ndarray | None = None,
) -> RadiusResult:
    return RadiusResult(
        feature=feature,
        parameter="pi",
        radius=value,
        boundary_point=boundary_point,
        binding_bound=None,
        value_at_origin=0.0,
        feasible_at_origin=feasible,
        solver="analytic",
        converged=converged,
        failure=failure,
    )


def _metric(radii: tuple[RadiusResult, ...], raw: float | None = None) -> MetricResult:
    values = [r.radius for r in radii]
    raw_value = min(values) if raw is None else raw
    return MetricResult(
        value=raw_value,
        raw_value=raw_value,
        radii=radii,
        binding_feature=radii[0].feature,
        parameter="pi",
        feasible_at_origin=all(r.feasible_at_origin for r in radii),
    )


class TestRadiusAudit:
    def test_healthy_radius_passes(self):
        assert audit_radius_result(_radius(1.5)) == []

    def test_silent_nan_flagged(self):
        (v,) = audit_radius_result(_radius(float("nan")))
        assert v.check == "nan-radius"
        assert v.feature == "phi"

    def test_admitted_failure_tolerated(self):
        res = _radius(float("nan"), converged=False, failure="max-iter")
        assert audit_radius_result(res) == []

    def test_negative_feasible_flagged(self):
        (v,) = audit_radius_result(_radius(-0.5, feasible=True))
        assert v.check == "negative-feasible-radius"

    def test_negative_infeasible_is_legitimate(self):
        assert audit_radius_result(_radius(-0.5, feasible=False)) == []

    def test_infinite_radius_is_legitimate(self):
        assert audit_radius_result(_radius(float("inf"))) == []

    def test_nan_boundary_point_flagged(self):
        res = _radius(1.0, boundary_point=np.array([1.0, float("nan")]))
        (v,) = audit_radius_result(res)
        assert v.check == "nan-boundary-point"


class TestMetricAudit:
    def test_consistent_metric_passes(self):
        m = _metric((_radius(2.0), _radius(1.0, feature="psi")))
        assert audit_metric_result(m) == []

    def test_min_mismatch_flagged(self):
        m = _metric((_radius(2.0), _radius(1.0, feature="psi")), raw=7.0)
        checks = {v.check for v in audit_metric_result(m)}
        assert "metric-min-mismatch" in checks

    def test_nan_radius_suspends_min_check(self):
        nan = _radius(float("nan"), feature="psi", converged=False, failure="x")
        m = _metric((_radius(2.0), nan), raw=float("nan"))
        assert audit_metric_result(m) == []

    def test_negative_feasible_metric_flagged(self):
        # per-radius values are clean, only the assembled aggregate is wrong
        m = _metric((_radius(2.0),), raw=-1.0)
        checks = {v.check for v in audit_metric_result(m)}
        assert "negative-feasible-metric" in checks
        assert "metric-min-mismatch" in checks


class TestBatchAudit:
    def _batch(self, radii, failures=(), on_error="record"):
        return BatchRobustnessResult(
            results=(_metric(radii, raw=min(r.radius for r in radii)),),
            failures=tuple(failures),
            on_error=on_error,
        )

    def test_healthy_batch_returned_unchanged(self):
        batch = self._batch((_radius(1.0),))
        assert sanitize_batch(batch) is batch

    def test_covered_nan_is_not_a_violation(self):
        nan = _radius(float("nan"), converged=False, failure="max-iter")
        rec = FailureRecord(
            task_index=0, attempts=1, stage="solve", exception=None,
            feature="phi", parameter="pi", problem_index=0,
        )
        batch = self._batch((nan,), failures=(rec,))
        assert audit_batch(batch) == []
        assert sanitize_batch(batch) is batch

    def test_uncovered_nan_recorded(self):
        nan = _radius(float("nan"), converged=False, failure="max-iter")
        out = sanitize_batch(self._batch((nan,)))
        (extra,) = out.failures
        assert extra.stage == "sanitize"
        assert extra.reason == "unrecorded-nan-radius"
        assert extra.feature == "phi"
        assert extra.problem_index == 0

    def test_silent_nan_raises_in_raise_mode(self):
        nan = _radius(float("nan"))  # converged: silent corruption
        with pytest.raises(SanitizerError) as err:
            sanitize_batch(self._batch((nan,), on_error="raise"))
        assert err.value.check == "nan-radius"
        assert err.value.context == "problem[0]"

    def test_silent_nan_recorded_in_record_mode(self):
        nan = _radius(float("nan"))
        out = sanitize_batch(self._batch((nan,), on_error="record"))
        assert [f.reason for f in out.failures] == ["nan-radius"]
        assert out.failures[0].stage == "sanitize"


class TestClosedFormChecks:
    def test_allocation_clean(self):
        check_allocation_batch(np.ones((2, 3)), np.ones(2))

    def test_allocation_nan_raises(self):
        values = np.array([1.0, float("nan")])
        with pytest.raises(SanitizerError, match="makespan"):
            check_allocation_batch(np.ones((2, 3)), values)

    def test_hiperd_inf_is_legitimate(self):
        check_hiperd_batch(np.array([np.inf]), np.array([[np.inf, 1.0]]))

    def test_hiperd_nan_raises(self):
        with pytest.raises(SanitizerError, match="sensor-load"):
            check_hiperd_batch(np.array([1.0]), np.array([[float("nan")]]))


class TestMisc:
    def test_violation_to_error_round_trips_pickle(self):
        v = Violation(check="nan-radius", context="problem[3]", message="m")
        err = pickle.loads(pickle.dumps(v.to_error()))
        assert isinstance(err, SanitizerError)
        assert err.check == "nan-radius"
        assert err.context == "problem[3]"


# Run in a child interpreter so the test sees a fresh ``sys.modules``: the
# parent test process has usually imported the linter already.
_NO_LINTER_CHILD = """
import json, sys
import numpy as np
import repro.serve
from repro.alloc.generators import random_assignments
from repro.core.features import FeatureBounds, PerformanceFeature
from repro.core.impact import CallableImpact
from repro.core.perturbation import PerturbationParameter
from repro.engine import RobustnessEngine
from repro.etcgen.cvb import cvb_etc_matrix
from repro.hiperd.generators import PAPER_INITIAL_LOAD, generate_system, random_hiperd_mappings


def quad(pi):
    return float(pi @ pi)


def quad_grad(pi):
    return 2.0 * pi


engine = RobustnessEngine(backend="serial")
etc = cvb_etc_matrix(8, 3, seed=1)
alloc = engine.evaluate_allocation(random_assignments(4, 8, 3, seed=2), etc, 1.2)
system = generate_system(seed=3)
hiperd = engine.evaluate_hiperd(
    system, random_hiperd_mappings(system, 2, seed=4), np.asarray(PAPER_INITIAL_LOAD, dtype=float)
)
param = PerturbationParameter("pi", np.array([0.5, 0.5]))
problems = [
    ([PerformanceFeature(f"q_{i}", CallableImpact(quad, grad=quad_grad), FeatureBounds.upper_only(4.0 + i))], param)
    for i in range(3)
]
numeric = engine.evaluate_population(problems)
print(json.dumps({
    "sizes": [len(alloc), len(hiperd), len(numeric)],
    "linter": sorted(m for m in sys.modules if m.startswith("repro.analysis")),
}))
"""


class TestRuntimeDoesNotImportTheLinter:
    def test_sanitized_engine_and_serve_leave_repro_analysis_unloaded(self):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _NO_LINTER_CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        assert doc["sizes"] == [4, 2, 3]
        assert doc["linter"] == []
