"""Runtime post-conditions of every engine batch.

The paper's definitions imply three checks that no static rule can see: a
radius is never silently NaN, a radius at a feasible origin is never
negative, and the metric ``rho`` equals the minimum of its own per-feature
radii (Eq. 2).  :class:`~repro.engine.RobustnessEngine` runs them on every
batch it returns:

* :func:`sanitize_batch` after ``evaluate_population`` — a violation raises
  :class:`~repro.exceptions.SanitizerError` under ``on_error="raise"`` or
  becomes a ``FailureRecord`` with ``stage="sanitize"`` otherwise, matching
  the fault-tolerant layer's ``on_error`` contract;
* :func:`check_allocation_batch` / :func:`check_hiperd_batch` after the
  closed-form passes, where NaN is always corruption.

A healthy batch is returned **unchanged** (the same object), so the audit
never changes a healthy result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.engine.fault import FailureRecord
from repro.exceptions import SanitizerError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


__all__ = [
    "Violation",
    "audit_radius_result",
    "audit_metric_result",
    "audit_batch",
    "sanitize_batch",
    "check_allocation_batch",
    "check_hiperd_batch",
]


def _count_violations(n: int) -> None:
    """Record audit violations in the obs registry (no-op while disabled)."""
    if n > 0 and obs_trace.enabled():
        obs_metrics.get_registry().counter(
            "repro_sanitizer_events_total",
            help="post-condition violations found by the batch audit",
            kind="violation",
        ).inc(n)


@dataclass(frozen=True)
class Violation:
    """One failed numeric post-condition."""

    #: machine-readable check name (``"nan-radius"``, ``"metric-min-mismatch"``, ...)
    check: str
    #: where it was observed (function name or ``problem[i]`` slot)
    context: str
    #: human-readable description
    message: str
    #: batch slot the violation belongs to (-1 outside batch context)
    problem_index: int = -1
    #: feature name, when the violation is attributable to one radius
    feature: str | None = None
    #: perturbation-parameter name, when known
    parameter: str | None = None

    def to_error(self) -> SanitizerError:
        """Convert to the exception raised under ``on_error="raise"``."""
        return SanitizerError(self.message, check=self.check, context=self.context)


def _isnan(x: float) -> bool:
    try:
        return math.isnan(float(x))
    except (TypeError, ValueError):
        return False


def audit_radius_result(res: Any, *, context: str = "") -> list[Violation]:
    """Post-conditions for one ``RadiusResult``-shaped object.

    A NaN radius is *not* flagged here when the solver itself marked the
    solve as failed (``converged=False`` or ``failure`` set) — that is the
    fault-tolerant layer's territory and :func:`audit_batch` checks it is
    covered by a ``FailureRecord``.  What this audit rejects is the *silent*
    corruption: NaN on a solve that claims success, or a sign that
    contradicts the feasibility flag.
    """
    out: list[Violation] = []
    ctx = context or "radius"
    feature = getattr(res, "feature", None)
    parameter = getattr(res, "parameter", None)
    radius = res.radius
    healthy = bool(getattr(res, "converged", True)) and getattr(res, "failure", None) is None
    if _isnan(radius) and healthy:
        out.append(
            Violation(
                check="nan-radius",
                context=ctx,
                message=f"radius({feature}, {parameter}) is NaN on a converged solve",
                feature=feature,
                parameter=parameter,
            )
        )
    if getattr(res, "feasible_at_origin", False) and not _isnan(radius) and radius < 0:
        out.append(
            Violation(
                check="negative-feasible-radius",
                context=ctx,
                message=(
                    f"radius({feature}, {parameter}) = {radius!r} is negative although "
                    "the origin is feasible"
                ),
                feature=feature,
                parameter=parameter,
            )
        )
    point = getattr(res, "boundary_point", None)
    if healthy and point is not None and bool(np.isnan(np.asarray(point, dtype=float)).any()):
        out.append(
            Violation(
                check="nan-boundary-point",
                context=ctx,
                message=f"boundary point of ({feature}, {parameter}) contains NaN",
                feature=feature,
                parameter=parameter,
            )
        )
    return out


def audit_metric_result(m: Any, *, context: str = "") -> list[Violation]:
    """Post-conditions for one ``MetricResult``-shaped object.

    Beyond the per-radius audits this enforces Eq. 2 itself: when every
    per-feature radius is non-NaN the unfloored metric must equal their exact
    minimum, and a metric at a fully-feasible origin must be non-negative.
    """
    ctx = context or "metric"
    out: list[Violation] = []
    radii = tuple(m.radii)
    for r in radii:
        out.extend(audit_radius_result(r, context=ctx))
    values = [r.radius for r in radii]
    any_nan = any(_isnan(v) for v in values)
    raw = m.raw_value
    if not any_nan and values:
        expected = min(values)
        if _isnan(raw) or raw != expected:
            out.append(
                Violation(
                    check="metric-min-mismatch",
                    context=ctx,
                    message=(
                        f"metric raw_value {raw!r} != min of per-feature radii "
                        f"{expected!r} for parameter {m.parameter!r}"
                    ),
                    parameter=getattr(m, "parameter", None),
                )
            )
    if (
        getattr(m, "feasible_at_origin", False)
        and not any_nan
        and not _isnan(raw)
        and raw < 0
    ):
        out.append(
            Violation(
                check="negative-feasible-metric",
                context=ctx,
                message=(
                    f"metric {raw!r} is negative although every feature is feasible "
                    "at the origin"
                ),
                parameter=getattr(m, "parameter", None),
            )
        )
    return out


# ---------------------------------------------------------------------------
# batch hooks (called by RobustnessEngine on every batch)
# ---------------------------------------------------------------------------


def audit_batch(batch: Any) -> list[Violation]:
    """Audit a ``BatchRobustnessResult``-shaped object.

    NaN radii that the fault-tolerant layer *recorded* (a ``FailureRecord``
    with matching ``problem_index``/``feature`` exists) are legitimate; every
    other NaN is a violation, as are metric/radius inconsistencies.
    """
    covered = {
        (getattr(f, "problem_index", None), getattr(f, "feature", None))
        for f in getattr(batch, "failures", ())
    }
    out: list[Violation] = []
    for ip, m in enumerate(batch.results):
        ctx = f"problem[{ip}]"
        for v in audit_metric_result(m, context=ctx):
            out.append(
                Violation(
                    check=v.check,
                    context=ctx,
                    message=v.message,
                    problem_index=ip,
                    feature=v.feature,
                    parameter=v.parameter or m.parameter,
                )
            )
        for r in m.radii:
            if not _isnan(r.radius):
                continue
            healthy = bool(r.converged) and r.failure is None
            if not healthy and (ip, r.feature) not in covered:
                out.append(
                    Violation(
                        check="unrecorded-nan-radius",
                        context=ctx,
                        message=(
                            f"radius({r.feature}, {r.parameter}) is NaN from a failed "
                            "solve but no FailureRecord covers it"
                        ),
                        problem_index=ip,
                        feature=r.feature,
                        parameter=r.parameter,
                    )
                )
    return out


def _violation_record(v: Violation) -> FailureRecord:
    return FailureRecord(
        task_index=-1,
        attempts=1,
        stage="sanitize",
        exception=None,
        fallback_used=False,
        wall_time=0.0,
        reason=v.check,
        feature=v.feature,
        parameter=v.parameter,
        problem_index=v.problem_index if v.problem_index >= 0 else None,
    )


def sanitize_batch(batch: Any) -> Any:
    """Enforce batch post-conditions per the batch's own ``on_error`` policy.

    ``on_error="raise"`` raises :class:`SanitizerError` on the first
    violation; ``"record"``/``"degrade"`` return a new batch with one
    ``stage="sanitize"`` ``FailureRecord`` appended per violation.  A healthy
    batch is returned unchanged (identical object).
    """
    violations = audit_batch(batch)
    _count_violations(len(violations))
    if not violations:
        return batch
    if getattr(batch, "on_error", "raise") == "raise":
        raise violations[0].to_error()
    extra = tuple(_violation_record(v) for v in violations)
    return type(batch)(
        results=batch.results,
        failures=tuple(batch.failures) + extra,
        on_error=batch.on_error,
    )


def check_allocation_batch(radii: np.ndarray, values: np.ndarray) -> None:
    """Raise on NaN in a batched makespan-robustness evaluation.

    The allocation path is closed-form (Eq. 6 is affine), so with validated
    inputs NaN is always corruption, never a recordable solver failure.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if bool(np.isnan(radii).any()) or bool(np.isnan(values).any()):
        nan_rows = np.flatnonzero(np.isnan(values))
        bad = int(nan_rows[0]) if nan_rows.size else -1
        raise SanitizerError(
            "batched makespan robustness produced NaN",
            check="nan-allocation-radius",
            context=f"mapping[{bad}]",
        )


def check_hiperd_batch(values: np.ndarray, radii: np.ndarray) -> None:
    """Raise on NaN in a batched sensor-load evaluation.

    ``inf`` radii are legitimate (degenerate constraint rows); NaN is not.
    """
    if bool(np.isnan(np.asarray(radii)).any()) or bool(np.isnan(np.asarray(values)).any()):
        raise SanitizerError(
            "batched sensor-load robustness produced a NaN radius",
            check="nan-hiperd-radius",
            context="hiperd batch",
        )
