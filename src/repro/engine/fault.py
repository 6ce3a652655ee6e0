"""Fault-tolerant scheduling of radius solves over pluggable backends.

The legacy pool fan-out (``executor.map``) was all-or-nothing: one
``SolverError``, one hung solve or one crashed worker aborted the whole
batch.  This module replaces it with supervised submission (one future per
task, or per chunk of tasks on the process backend) that keeps every
failure contained to its task.  The execution substrate is an
:class:`~repro.engine.backends.ExecutionBackend` (serial / process,
selected via ``backend=`` or the ``REPRO_BACKEND`` env var) and the whole
ladder below is expressed once against that protocol:

- **solver failures** (``SolverError``, retryable non-convergence) are
  retried under an escalation ladder (:class:`RetryPolicy`): more
  multi-starts, tighter tolerances, and — in ``on_error="degrade"`` mode —
  a Monte-Carlo ray-search fallback that brackets the radius when the exact
  solve never certifies;
- **hung solves** are bounded by :attr:`~repro.core.config.SolverConfig.
  task_timeout`; an overrun abandons the worker, rebuilds the pool, and
  retries the task with a doubled deadline;
- **crashed workers** surface as a broken executor (``BrokenExecutor``),
  which poisons every in-flight future.  The supervisor requeues the
  innocent tasks, rebuilds the backend, and — after repeated breakage —
  drops to single-in-flight *probe mode* where the guilty task is
  identified exactly;
- tasks whose terminal state is still a failure are reported as structured
  :class:`FailureRecord` entries instead of exceptions (``on_error="record"``
  / ``"degrade"``), so a 1000-task batch always completes.

Degradation ladder on infrastructure failure: shared pool → fresh pool →
single-worker probe pools → inline serial execution (only when executors
cannot be created at all, and never for tasks with crash/hang history —
running those in the parent process would take the whole run down with
them).  Transitions are logged at WARNING level.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.config import SolverConfig
from repro.core.radius import RadiusResult, robustness_radius
from repro.core.solvers.numeric import RETRYABLE_REASONS
from repro.engine.backends import BackendSpec, ExecutionBackend, resolve_backend
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.exceptions import (
    ReproError,
    SolverError,
    SolverTimeoutError,
    ValidationError,
    WorkerCrashError,
)
from repro.utils.clock import get_clock

__all__ = [
    "RetryPolicy",
    "FailureRecord",
    "solve_radius_tasks_isolated",
    "fault_radius_task",
    "chunk_radius_tasks",
    "ON_ERROR_MODES",
]

logger = logging.getLogger(__name__)

#: valid values of the ``on_error`` argument
ON_ERROR_MODES = ("raise", "record", "degrade")


@dataclass(frozen=True)
class RetryPolicy:
    """How failed radius solves are retried and escalated.

    Attempts are numbered from 0; ``max_attempts`` counts the first try, so
    ``max_attempts=1`` disables retries.  Between attempts the scheduler
    sleeps an exponential backoff with *deterministic* seeded jitter — the
    jitter for (task, attempt) is a pure function of ``(seed, task_index,
    attempt)``, so reruns are reproducible.

    The escalation ladder (applied when ``escalate`` is True): attempt ``k``
    multiplies the numeric solver's ``n_starts`` by ``starts_factor**k``,
    its ``ftol`` by ``ftol_factor**k`` (tighter), and the per-task deadline
    by ``timeout_factor**k`` (more patient).  In ``on_error="degrade"``
    mode, a task whose solve attempts are all exhausted falls back to the
    Monte-Carlo ray search (:func:`repro.core.solvers.montecarlo.
    estimate_radius_mc`, ``mc_directions`` rays), whose result is flagged as
    a *bound* on the radius, never as an exact value.
    """

    #: total attempts per task (first try included); >= 1
    max_attempts: int = 3
    #: base backoff delay in seconds (0 disables sleeping)
    backoff_base: float = 0.05
    #: multiplier applied to the delay per attempt
    backoff_factor: float = 2.0
    #: jitter fraction — the delay is scaled by ``1 + jitter * u``, u ~ U[0,1)
    jitter: float = 0.25
    #: seed of the deterministic jitter stream
    seed: int = 0
    #: whether retries escalate the solver configuration
    escalate: bool = True
    #: per-attempt multiplier on ``n_starts``
    starts_factor: int = 2
    #: per-attempt multiplier on ``ftol`` (< 1 tightens)
    ftol_factor: float = 0.1
    #: per-attempt multiplier on ``task_timeout``
    timeout_factor: float = 2.0
    #: ray count of the Monte-Carlo fallback (``on_error="degrade"``)
    mc_directions: int = 128
    #: parallel-window pool rebuilds tolerated before dropping to probe mode
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if int(self.max_attempts) < 1:
            raise ValidationError("max_attempts must be >= 1")
        if float(self.backoff_base) < 0 or not np.isfinite(self.backoff_base):
            raise ValidationError("backoff_base must be finite and >= 0")
        if int(self.max_pool_rebuilds) < 0:
            raise ValidationError("max_pool_rebuilds must be >= 0")

    @classmethod
    def from_config(cls, config: SolverConfig) -> "RetryPolicy":
        """The default policy, with its jitter seeded from ``config.seed``."""
        return cls(seed=abs(int(config.seed)) if config.seed is not None else 0)

    def delay(self, task_index: int, attempt: int) -> float:
        """Backoff before retry ``attempt + 1`` of one task (deterministic)."""
        if self.backoff_base <= 0:
            return 0.0
        base = self.backoff_base * self.backoff_factor ** attempt
        rng = np.random.default_rng((self.seed, abs(int(task_index)), abs(int(attempt))))
        return float(base * (1.0 + self.jitter * rng.random()))

    def escalated(self, config: SolverConfig, attempt: int) -> SolverConfig:
        """The solver configuration of attempt ``attempt`` (0 = unchanged)."""
        if attempt <= 0 or not self.escalate:
            return config
        changes: dict = {
            "n_starts": max(1, int(config.n_starts)) * int(self.starts_factor) ** attempt,
            "ftol": float(config.ftol) * float(self.ftol_factor) ** attempt,
        }
        if config.task_timeout is not None:
            changes["task_timeout"] = float(config.task_timeout) * (
                float(self.timeout_factor) ** attempt
            )
        return config.replace(**changes)


@dataclass(frozen=True)
class FailureRecord:
    """Structured account of one task's terminal failure (or fallback).

    ``stage`` names where the final failure happened: ``"solve"`` (solver
    exception or retryable non-convergence), ``"timeout"`` (per-task
    deadline overrun), ``"crash"`` (worker process died), ``"pickle"``
    (task arguments would not cross the process boundary), or
    ``"sanitize"`` (a :mod:`repro.analysis.sanitize` post-condition failed
    on an engine constructed with ``sanitize=True``).  ``fallback_used``
    marks records whose task ultimately produced a Monte-Carlo *bound*
    instead of an exact radius (``on_error="degrade"``).
    """

    #: index of the task in the submitted batch
    task_index: int
    #: attempts consumed (>= 1)
    attempts: int
    #: ``"solve"`` | ``"timeout"`` | ``"crash"`` | ``"pickle"`` | ``"sanitize"``
    stage: str
    #: ``repr`` of the final exception; None for plain non-convergence
    exception: str | None
    #: True when a Monte-Carlo bound replaced the exact solve
    fallback_used: bool = False
    #: wall-clock seconds from first submission to terminal state, measured
    #: on the active :func:`repro.utils.clock.get_clock` (deterministic when
    #: a :class:`~repro.utils.clock.FakeClock` is installed)
    wall_time: float = 0.0
    #: non-convergence reason from the numeric solver's taxonomy, if any
    reason: str | None = None
    #: feature name of the failed task (filled by the engine)
    feature: str | None = None
    #: perturbation-parameter name of the failed task
    parameter: str | None = None
    #: index of the owning problem in a population batch (engine context)
    problem_index: int | None = None

    def to_dict(self) -> dict:
        """Encode as a JSON-ready dict (round-trips via :meth:`from_dict`)."""
        return {
            "type": "FailureRecord",
            "version": 1,
            "task_index": int(self.task_index),
            "attempts": int(self.attempts),
            "stage": self.stage,
            "exception": self.exception,
            "fallback_used": bool(self.fallback_used),
            "wall_time": float(self.wall_time),
            "reason": self.reason,
            "feature": self.feature,
            "parameter": self.parameter,
            "problem_index": self.problem_index,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailureRecord":
        """Decode a payload written by :meth:`to_dict`; validates the type tag."""
        if data.get("type") != "FailureRecord":
            raise ValidationError(f"expected type 'FailureRecord', got {data.get('type')!r}")
        return cls(
            task_index=int(data["task_index"]),
            attempts=int(data["attempts"]),
            stage=str(data["stage"]),
            exception=data["exception"],
            fallback_used=bool(data.get("fallback_used", False)),
            wall_time=float(data.get("wall_time", 0.0)),
            reason=data.get("reason"),
            feature=data.get("feature"),
            parameter=data.get("parameter"),
            problem_index=data.get("problem_index"),
        )


def fault_radius_task(payload: tuple) -> "RadiusResult | obs_trace.TracedResult":
    """Worker entry point of the fault-isolated path.

    ``payload`` is ``(task, attempt)`` or ``(task, attempt, span_context)``;
    the attempt number is published to
    :data:`repro.faults.inject.CURRENT_ATTEMPT` before the solve so
    injectors with ``heal_after_attempt`` semantics can observe which retry
    they are running under (injector state is re-pickled fresh
    on every submission, so per-process call counters alone cannot span
    attempts).

    When the payload carries a picklable
    :class:`~repro.obs.trace.SpanContext` (observability was enabled in the
    submitting process), the worker records its own solve span parented to
    it and ships the spans back inside a
    :class:`~repro.obs.trace.TracedResult`, which the supervisor unwraps
    and ingests — tracing never changes what the solver computes.
    """
    if len(payload) == 3:
        task, attempt, span_ctx = payload
    else:
        task, attempt = payload
        span_ctx = None
    inject = None
    try:  # pragma: no cover - exercised via pool workers
        from repro.faults import inject as inject_mod

        inject = inject_mod
        inject.CURRENT_ATTEMPT = int(attempt)
    except ImportError:
        pass
    try:
        feature, parameter, norm, config = task
        if span_ctx is None:
            # serial in-process call (the caller's tracer sees everything
            # directly) or an untraced submission
            return robustness_radius(
                feature, parameter, norm=norm, apply_floor=False, config=config
            )
        # traced pool submission: record into a fresh worker-local tracer and
        # ship the spans back (forked workers inherit the parent's enabled
        # state, so the installed tracer cannot be trusted here)
        tracer = obs_trace.Tracer()
        obs_trace.enable(tracer)
        token = obs_trace.activate(span_ctx)
        try:
            with tracer.span(
                "pool.worker.solve", task_attempt=int(attempt), feature=feature.name
            ):
                res = robustness_radius(
                    feature, parameter, norm=norm, apply_floor=False, config=config
                )
        finally:
            obs_trace.deactivate(token)
            obs_trace.disable()
        return obs_trace.TracedResult(result=res, spans=tuple(tracer.export()))
    finally:
        if inject is not None:
            inject.CURRENT_ATTEMPT = 0


def _terminal_state(record: FailureRecord | None) -> str:
    """The terminal state label of one task: success, degrade or failure."""
    if record is None:
        return "success"
    return "degrade" if record.fallback_used else "failure"


def _record_terminal(
    index: int,
    task: tuple,
    record: FailureRecord | None,
    wall: float,
    *,
    path: str,
    backend: str = "serial",
) -> None:
    """Emit one task's terminal ``fault.task`` span plus latency/failure
    metrics.  Callers guard on :func:`repro.obs.trace.enabled`."""
    tracer = obs_trace.get_tracer()
    if tracer is not None:
        end = int(get_clock().perf_counter() * 1e9)
        span = tracer.start_span(
            "fault.task",
            task_index=int(index),
            feature=task[0].name,
            parameter=task[1].name,
            terminal=_terminal_state(record),
            stage=record.stage if record is not None else None,
            attempts=record.attempts if record is not None else None,
            path=path,
            backend=backend,
        )
        span.start_ns = end - int(wall * 1e9)
        span.end_ns = end
        tracer.finish(span, status="ok" if record is None else "error")
    registry = obs_metrics.get_registry()
    registry.histogram(
        "repro_radius_solve_seconds",
        help="terminal per-task radius solve latency (seconds)",
        path=path,
        backend=backend,
    ).observe(wall)
    if record is not None:
        registry.counter(
            "repro_failure_records_total",
            help="terminal failure records by stage",
            stage=record.stage,
        ).inc()


def _record_fault_event(
    name: str, counter: str, help_text: str, **attrs: Any
) -> None:
    """Emit an instant span plus a counter increment (obs must be on)."""
    tracer = obs_trace.get_tracer()
    if tracer is not None:
        tracer.event(name, **attrs)
    obs_metrics.get_registry().counter(counter, help=help_text).inc()


def _record_retry(index: int, attempt: int) -> None:
    _record_fault_event(
        "fault.retry",
        "repro_retries_total",
        "radius solve retry attempts",
        task_index=int(index),
        attempt=int(attempt),
    )


def _picklable_one(obj: object) -> bool:
    """Probe a single representative object, not a whole task list."""
    try:
        pickle.dumps(obj)
        return True
    except Exception:  # repro: noqa[R007] - probe: any failure means "not picklable"
        return False


def _is_pickle_error(exc: BaseException) -> bool:
    if isinstance(exc, pickle.PickleError):
        return True
    return isinstance(exc, (AttributeError, TypeError)) and "pickle" in str(exc).lower()


def _failed_result(task: tuple, reason: str | None) -> RadiusResult:
    """NaN placeholder for a task with no usable answer (never evaluates the
    impact — it may be the very thing that crashes)."""
    feature, parameter = task[0], task[1]
    return RadiusResult(
        feature=feature.name,
        parameter=parameter.name,
        radius=float("nan"),
        boundary_point=None,
        binding_bound=None,
        value_at_origin=float("nan"),
        feasible_at_origin=False,
        solver="failed",
        converged=False,
        failure=reason,
    )


def _mc_fallback(task: tuple, policy: RetryPolicy) -> RadiusResult | None:
    """Monte-Carlo ray-search bound on the radius (``on_error="degrade"``).

    Ray search converges to the true radius *from above* for star-shaped
    robust regions, so the value is an optimistic bound — it is flagged with
    ``solver="montecarlo"``, ``converged=False`` and ``failure="mc-bound"``
    and must never be read as an exact radius.  Only called for
    ``stage="solve"`` failures: the impact is known to evaluate cleanly in
    this process (crash/hang failures never reach here — evaluating their
    impact inline would take the parent down).
    """
    from repro.core.features import FeatureSet
    from repro.core.solvers.montecarlo import estimate_radius_mc

    feature, parameter, norm, config = task
    try:
        est = estimate_radius_mc(
            FeatureSet([feature]),
            parameter.origin,
            n_directions=policy.mc_directions,
            norm=norm,
            seed=config.seed,
        )
        value0 = feature.value_at(parameter.origin)
    except ReproError:
        return None
    return RadiusResult(
        feature=feature.name,
        parameter=parameter.name,
        radius=float(est),
        boundary_point=None,
        binding_bound=None,
        value_at_origin=float(value0),
        feasible_at_origin=feature.bounds.contains(value0),
        solver="montecarlo",
        converged=False,
        failure="mc-bound",
    )


def solve_radius_tasks_isolated(
    tasks: list[tuple],
    config: SolverConfig,
    *,
    policy: RetryPolicy | None = None,
    on_error: str = "record",
    backend: "str | ExecutionBackend | type[ExecutionBackend] | BackendSpec | None" = None,
) -> tuple[list[RadiusResult], list[FailureRecord]]:
    """Solve radius tasks with per-task fault isolation.

    Parameters
    ----------
    tasks:
        ``(feature, parameter, norm, config)`` tuples; each is solved by
        :func:`repro.core.radius.robustness_radius` with ``apply_floor=False``.
    config:
        Pool sizing and the per-task deadline.
    policy:
        Retry/escalation policy; derived from ``config`` when None.
    on_error:
        ``"raise"`` — terminal failures raise (legacy semantics; retryable
        *exceptions* are still retried first, but non-converged results are
        returned as-is without retry, exactly like the historical path);
        ``"record"`` — terminal failures become :class:`FailureRecord`
        entries plus NaN-radius placeholder results; ``"degrade"`` — like
        ``"record"``, but solver-stage failures additionally fall back to a
        Monte-Carlo bound on the radius.
    backend:
        Execution substrate: a registered name (``"serial"`` /
        ``"process"``), an :class:`~repro.engine.backends.
        ExecutionBackend` class or instance, a prebuilt
        :class:`~repro.engine.backends.BackendSpec`, or None for the
        default resolution (``REPRO_BACKEND`` env var, then the legacy
        ``pool_size`` heuristic; see :func:`~repro.engine.backends.
        resolve_backend`).

    Returns
    -------
    (results, failures):
        ``results[i]`` is the :class:`~repro.core.radius.RadiusResult` of
        ``tasks[i]`` (possibly a placeholder or a Monte-Carlo bound; check
        ``converged`` / ``solver``); ``failures`` holds one record per task
        that failed terminally or used a fallback.
    """
    if on_error not in ON_ERROR_MODES:
        raise ValidationError(f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}")
    tasks = list(tasks)
    if not tasks:
        return [], []
    if policy is None:
        policy = RetryPolicy.from_config(config)
    spec = resolve_backend(backend, config.pool_size)
    caps = spec.capabilities
    serial = len(tasks) <= 1 or not caps.isolated or not _picklable_one(tasks[0])
    batched = not serial and on_error != "raise" and config.task_timeout is None
    with obs_trace.maybe_span(
        "fault.solve_batch",
        n_tasks=len(tasks),
        on_error=on_error,
        mode="serial" if serial else "pool",
        backend=caps.name,
    ):
        if serial:
            return _solve_serial(tasks, config, policy, on_error, backend_name=caps.name)
        if batched:
            return _solve_batched(tasks, config, policy, on_error, spec)
        return _Supervisor(tasks, config, policy, on_error, spec).run()


def _solve_serial(
    tasks: list[tuple],
    config: SolverConfig,
    policy: RetryPolicy,
    on_error: str,
    *,
    backend_name: str = "serial",
) -> tuple[list[RadiusResult], list[FailureRecord]]:
    results: list[RadiusResult] = []
    failures: list[FailureRecord] = []
    tracing = obs_trace.enabled()
    clock = get_clock()
    for i, task in enumerate(tasks):
        t0 = clock.perf_counter() if tracing else 0.0
        res, rec = _solve_one_inline(i, task, config, policy, on_error)
        results.append(res)
        if rec is not None:
            failures.append(rec)
        if tracing:
            _record_terminal(
                i, task, rec, clock.perf_counter() - t0, path="serial", backend=backend_name
            )
    return results, failures


def _solve_one_inline(
    index: int,
    task: tuple,
    config: SolverConfig,
    policy: RetryPolicy,
    on_error: str,
) -> tuple[RadiusResult, FailureRecord | None]:
    """Retry ladder for one task executed in the current process."""
    feature, parameter, norm, _ = task
    start = get_clock().perf_counter()
    last_exc: ReproError | None = None
    last_res: RadiusResult | None = None
    attempts = 0
    for attempt in range(policy.max_attempts):
        attempts = attempt + 1
        if attempt > 0:
            if obs_trace.enabled():
                _record_retry(index, attempt)
            time.sleep(policy.delay(index, attempt - 1))
        cfg = policy.escalated(config, attempt)
        try:
            # Route through the worker entry point so CURRENT_ATTEMPT is
            # published for attempt-aware injectors in serial mode too.
            res = fault_radius_task(((feature, parameter, norm, cfg), attempt))
        except ValidationError:
            # a malformed problem will not get better on retry
            raise
        except ReproError as exc:
            last_exc = exc
            continue
        last_exc = None
        if res.converged or on_error == "raise" or res.failure not in RETRYABLE_REASONS:
            # converged, legacy raise-mode (non-convergence was never an
            # error historically), or a non-retryable reason such as a
            # genuinely unreachable boundary.
            return res, None
        last_res = res
    wall = get_clock().perf_counter() - start
    if last_exc is not None:
        if on_error == "raise":
            raise last_exc
        return _terminal_solve_failure(
            index, task, attempts, wall, policy, on_error, exc=last_exc
        )
    return _terminal_solve_failure(
        index, task, attempts, wall, policy, on_error, res=last_res
    )


def _terminal_solve_failure(
    index: int,
    task: tuple,
    attempts: int,
    wall: float,
    policy: RetryPolicy,
    on_error: str,
    *,
    exc: ReproError | None = None,
    res: RadiusResult | None = None,
) -> tuple[RadiusResult, FailureRecord]:
    """Build the (result, record) pair of an exhausted solver-stage task."""
    reason = res.failure if res is not None else None
    fallback = None
    if on_error == "degrade":
        fallback = _mc_fallback(task, policy)
    record = FailureRecord(
        task_index=index,
        attempts=attempts,
        stage="solve",
        exception=repr(exc) if exc is not None else None,
        fallback_used=fallback is not None,
        wall_time=wall,
        reason=reason,
        feature=task[0].name,
        parameter=task[1].name,
    )
    if fallback is not None:
        return fallback, record
    if res is not None:
        # keep the uncertified result (it may still carry a usable value)
        return res, record
    return _failed_result(task, reason or "solver-exception"), record


def chunk_radius_tasks(payload: tuple) -> "tuple | obs_trace.TracedResult":
    """Worker entry point of the batched (chunked) path.

    ``payload`` is ``(tasks, start_index, config, policy, on_error,
    span_context)``.  Each task runs the *same* inline retry ladder as the
    per-task path (:func:`_solve_one_inline`, global task indices, so
    backoff jitter and failure records are bit-for-bit identical except for
    wall times); the chunk returns ``(results, records, walls)`` aligned
    with ``tasks``.  Batched submission is only used in ``on_error`` modes
    that cannot raise, so a chunk either returns completely or dies with
    its worker (the scheduler then falls back to per-task submission for
    exact attribution).
    """
    tasks, start_index, config, policy, on_error, span_ctx = payload
    tracer: obs_trace.Tracer | None = None
    token = None
    if span_ctx is not None:
        # same fresh-tracer discipline as fault_radius_task: never trust the
        # (possibly fork-inherited) installed tracer in a pool worker
        tracer = obs_trace.Tracer()
        obs_trace.enable(tracer)
        token = obs_trace.activate(span_ctx)
    try:
        results: list[RadiusResult] = []
        records: list[FailureRecord | None] = []
        walls: list[float] = []
        clock = get_clock()
        for offset, task in enumerate(tasks):
            index = int(start_index) + offset
            t0 = clock.perf_counter()
            if tracer is not None:
                with tracer.span(
                    "pool.worker.solve", task_index=index, feature=task[0].name
                ):
                    res, rec = _solve_one_inline(index, task, config, policy, on_error)
            else:
                res, rec = _solve_one_inline(index, task, config, policy, on_error)
            results.append(res)
            records.append(rec)
            walls.append(clock.perf_counter() - t0)
        out = (results, records, walls)
        if tracer is None:
            return out
        return obs_trace.TracedResult(result=out, spans=tuple(tracer.export()))
    finally:
        if token is not None:
            obs_trace.deactivate(token)
        if tracer is not None:
            obs_trace.disable()


def _batch_chunks(n_tasks: int, workers: int) -> list[tuple[int, int]]:
    """``(start, stop)`` chunk bounds: about four chunks per worker, which
    amortizes IPC without starving workers."""
    size = max(1, math.ceil(n_tasks / (workers * 4)))
    return [(start, min(start + size, n_tasks)) for start in range(0, n_tasks, size)]


def _solve_batched(
    tasks: list[tuple],
    config: SolverConfig,
    policy: RetryPolicy,
    on_error: str,
    spec: BackendSpec,
) -> tuple[list[RadiusResult], list[FailureRecord]]:
    """Chunked fan-out over an isolated backend.

    Amortizes per-future overhead.  Chunks that die with their worker or
    fail to round-trip are re-run through the per-task supervisor (fresh
    backend) so crash containment and attribution still hold.
    """
    n = len(tasks)
    results: list[RadiusResult | None] = [None] * n
    records: dict[int, FailureRecord] = {}
    tracing = obs_trace.enabled()
    span_ctx = obs_trace.current_context() if tracing else None
    leftovers: list[tuple[int, int]] = []  # chunk bounds needing per-task re-run
    backend = spec.create()
    try:
        futures: dict[Future, tuple[int, int]] = {}
        for start, stop in _batch_chunks(n, spec.workers):
            if tracing:
                _record_fault_event(
                    "pool.submit",
                    "repro_pool_submits_total",
                    "futures submitted to the process pool",
                    task_index=start,
                    attempt=0,
                    chunk=(start, stop),
                    backend=spec.name,
                )
            payload = (tasks[start:stop], start, config, policy, on_error, span_ctx)
            try:
                futures[backend.submit(chunk_radius_tasks, payload)] = (start, stop)
            except (BrokenExecutor, RuntimeError):
                leftovers.append((start, stop))
        for fut, (start, stop) in futures.items():
            try:
                out = fut.result()
            except ValidationError:
                raise
            except BaseException as exc:  # noqa: BLE001 - chunk re-runs under the supervisor
                logger.warning(
                    "chunk [%d:%d) failed on backend %r (%s); re-running "
                    "per-task under the supervisor",
                    start,
                    stop,
                    spec.name,
                    exc,
                )
                leftovers.append((start, stop))
                continue
            if isinstance(out, obs_trace.TracedResult):
                tracer = obs_trace.get_tracer()
                if tracer is not None and obs_trace.enabled():
                    tracer.ingest(out.spans)
                out = out.result
            chunk_results, chunk_records, walls = out
            for offset in range(stop - start):
                index = start + offset
                results[index] = chunk_results[offset]
                rec = chunk_records[offset]
                if rec is not None:
                    records[index] = rec
                if tracing:
                    _record_terminal(
                        index,
                        tasks[index],
                        rec,
                        walls[offset],
                        path="pool",
                        backend=spec.name,
                    )
    finally:
        backend.shutdown(kill=True)
    # Re-run broken chunks per-task: exact crash attribution, sub-batch span
    # indices are remapped onto the original batch via the records.
    for start, stop in leftovers:
        sub = tasks[start:stop]
        sub_results, sub_failures = _Supervisor(sub, config, policy, on_error, spec).run()
        for offset, res in enumerate(sub_results):
            results[start + offset] = res
        for rec in sub_failures:
            index = start + rec.task_index
            records[index] = dataclasses.replace(rec, task_index=index)
    failures = [records[i] for i in sorted(records)]
    return [res for res in results if res is not None], failures


class _Supervisor:
    """Pooled scheduler: window submission, deadlines, crash attribution."""

    def __init__(
        self,
        tasks: list[tuple],
        config: SolverConfig,
        policy: RetryPolicy,
        on_error: str,
        spec: BackendSpec,
    ) -> None:
        self.tasks = tasks
        self.config = config
        self.policy = policy
        self.on_error = on_error
        self.spec = spec
        n = len(tasks)
        self.results: list[RadiusResult | None] = [None] * n
        self.records: dict[int, FailureRecord] = {}
        self.started: list[float | None] = [None] * n
        self.suspect: list[str | None] = [None] * n  # "crash"/"timeout" history
        self.pending: deque[tuple[int, int]] = deque((i, 0) for i in range(n))
        self.inflight: dict = {}  # future -> (index, attempt, deadline)
        self.executor: ExecutionBackend | None = None
        self.probe_mode = False
        self.pool_breaks = 0
        self.serial_only = False

    # -- executor lifecycle ---------------------------------------------------
    def _window(self) -> int:
        return 1 if self.probe_mode else max(1, 2 * self.spec.workers)

    def _ensure_executor(self) -> bool:
        if self.executor is not None:
            return True
        try:
            self.executor = self.spec.create(
                max_workers=1 if self.probe_mode else self.spec.workers
            )
            return True
        except OSError as exc:  # pragma: no cover - resource exhaustion
            logger.warning(
                "cannot create a %s backend (%s); degrading to inline serial solves",
                self.spec.name,
                exc,
            )
            self.serial_only = True
            return False

    def _kill_executor(self) -> None:
        if self.executor is None:
            return
        executor, self.executor = self.executor, None
        executor.shutdown(kill=True)

    # -- terminal bookkeeping -------------------------------------------------
    def _wall(self, index: int) -> float:
        t0 = self.started[index]
        return 0.0 if t0 is None else get_clock().perf_counter() - t0

    def _finish(self, index: int, result: RadiusResult, record: FailureRecord | None) -> None:
        self.results[index] = result
        if record is not None:
            self.records[index] = record
        if obs_trace.enabled():
            _record_terminal(
                index,
                self.tasks[index],
                record,
                self._wall(index),
                path="pool",
                backend=self.spec.name,
            )

    def _terminal_exception(
        self, index: int, attempts: int, stage: str, exc: ReproError
    ) -> None:
        """Crash/timeout/pickle terminal state (never runs the impact again)."""
        if self.on_error == "raise":
            self._kill_executor()
            raise exc
        record = FailureRecord(
            task_index=index,
            attempts=attempts,
            stage=stage,
            exception=repr(exc),
            wall_time=self._wall(index),
            feature=self.tasks[index][0].name,
            parameter=self.tasks[index][1].name,
        )
        self._finish(index, _failed_result(self.tasks[index], stage), record)

    # -- fault handlers -------------------------------------------------------
    def _on_pool_break(self, popped: tuple[int, int] | None) -> None:
        """A worker died; every in-flight future is poisoned."""
        items = [popped] if popped is not None else []
        items += [(i, a) for (i, a, _) in self.inflight.values()]
        if obs_trace.enabled():
            _record_fault_event(
                "fault.pool_break",
                "repro_crashes_total",
                "process pool breakages (worker crashes)",
                n_tasks=len(items),
                probe_mode=self.probe_mode,
            )
        self.inflight.clear()
        self._kill_executor()
        self.pool_breaks += 1
        if len(items) == 1:
            # Single in-flight task (probe mode, or the tail of the batch):
            # the crash is attributed exactly.
            index, attempt = items[0]
            self.suspect[index] = "crash"
            if attempt + 1 < self.policy.max_attempts:
                logger.warning(
                    "worker crashed on task %d (attempt %d); retrying", index, attempt + 1
                )
                self.pending.append((index, attempt + 1))
            else:
                self._terminal_exception(
                    index,
                    attempt + 1,
                    "crash",
                    WorkerCrashError(task_index=index, attempts=attempt + 1),
                )
            return
        # Parallel window: attribution is ambiguous — requeue everyone at the
        # same attempt and rebuild; repeated breakage drops to probe mode.
        for index, attempt in items:
            self.pending.appendleft((index, attempt))
        if not self.probe_mode and self.pool_breaks >= self.policy.max_pool_rebuilds:
            self.probe_mode = True
            logger.warning(
                "process pool broke %d times; degrading to single-in-flight "
                "probe mode to attribute the crash",
                self.pool_breaks,
            )
        else:
            logger.warning(
                "process pool broke (%d/%d tolerated); rebuilding",
                self.pool_breaks,
                self.policy.max_pool_rebuilds,
            )

    def _on_timeouts(self, overdue: list) -> None:
        """Deadline overruns: abandon the hung workers, requeue the innocents."""
        for fut in overdue:
            index, attempt, _ = self.inflight.pop(fut)
            self.suspect[index] = "timeout"
            if obs_trace.enabled():
                _record_fault_event(
                    "fault.timeout",
                    "repro_timeouts_total",
                    "per-task deadline overruns",
                    task_index=index,
                    attempt=attempt,
                )
            cfg = self.policy.escalated(self.config, attempt)
            if attempt + 1 < self.policy.max_attempts:
                logger.warning(
                    "task %d exceeded its %.3gs deadline (attempt %d); retrying "
                    "with a longer deadline",
                    index,
                    cfg.task_timeout or 0.0,
                    attempt + 1,
                )
                self.pending.append((index, attempt + 1))
            else:
                self._terminal_exception(
                    index,
                    attempt + 1,
                    "timeout",
                    SolverTimeoutError(timeout=cfg.task_timeout, task_index=index),
                )
        # The pool may be saturated by hung workers — rebuild it; in-flight
        # innocents are requeued at their current attempt.
        for index, attempt in [(i, a) for (i, a, _) in self.inflight.values()]:
            self.pending.appendleft((index, attempt))
        self.inflight.clear()
        self._kill_executor()

    # -- result handling ------------------------------------------------------
    def _on_result(self, index: int, attempt: int, res: RadiusResult) -> None:
        if res.converged or self.on_error == "raise" or res.failure not in RETRYABLE_REASONS:
            self._finish(index, res, None)
            return
        if attempt + 1 < self.policy.max_attempts:
            self.pending.append((index, attempt + 1))
            return
        result, record = _terminal_solve_failure(
            index,
            self.tasks[index],
            attempt + 1,
            self._wall(index),
            self.policy,
            self.on_error,
            res=res,
        )
        self._finish(index, result, record)

    def _on_worker_exception(self, index: int, attempt: int, exc: BaseException) -> None:
        if _is_pickle_error(exc):
            # This particular task cannot cross the process boundary; solve
            # it in-process like the legacy serial fallback did.
            res, rec = _solve_one_inline(
                index, self.tasks[index], self.config, self.policy, self.on_error
            )
            if rec is not None:
                rec = dataclasses.replace(rec, stage="pickle")
            self._finish(index, res, rec)
            return
        if isinstance(exc, ValidationError):
            if self.on_error == "raise":
                self._kill_executor()
                raise exc
            record = FailureRecord(
                task_index=index,
                attempts=attempt + 1,
                stage="solve",
                exception=repr(exc),
                wall_time=self._wall(index),
                feature=self.tasks[index][0].name,
                parameter=self.tasks[index][1].name,
            )
            self._finish(index, _failed_result(self.tasks[index], "validation-error"), record)
            return
        # solver-stage exception: retry, then terminal
        if attempt + 1 < self.policy.max_attempts:
            self.pending.append((index, attempt + 1))
            return
        if self.on_error == "raise":
            self._kill_executor()
            raise exc if isinstance(exc, ReproError) else SolverError(repr(exc))
        result, record = _terminal_solve_failure(
            index,
            self.tasks[index],
            attempt + 1,
            self._wall(index),
            self.policy,
            self.on_error,
            exc=exc,
        )
        self._finish(index, result, record)

    # -- main loop ------------------------------------------------------------
    def _submit_pending(self) -> None:
        while self.pending and len(self.inflight) < self._window():
            if not self._ensure_executor():
                return
            index, attempt = self.pending.popleft()
            if attempt > 0:
                if obs_trace.enabled():
                    _record_retry(index, attempt)
                time.sleep(self.policy.delay(index, attempt - 1))
            cfg = self.policy.escalated(self.config, attempt)
            feature, parameter, norm, _ = self.tasks[index]
            if self.started[index] is None:
                self.started[index] = get_clock().perf_counter()
            span_ctx = obs_trace.current_context()
            if obs_trace.enabled():
                _record_fault_event(
                    "pool.submit",
                    "repro_pool_submits_total",
                    "futures submitted to the process pool",
                    task_index=index,
                    attempt=attempt,
                    backend=self.spec.name,
                )
            assert self.executor is not None
            payload = ((feature, parameter, norm, cfg), attempt, span_ctx)
            try:
                fut = self.executor.submit(fault_radius_task, payload)
            except (BrokenExecutor, RuntimeError):
                self._on_pool_break((index, attempt))
                continue
            deadline = (
                time.monotonic() + cfg.task_timeout if cfg.task_timeout else None
            )
            self.inflight[fut] = (index, attempt, deadline)

    def _drain_serial(self) -> None:
        """Executor creation failed: finish inline, but never run tasks with
        crash/hang history in the parent process."""
        while self.pending:
            index, attempt = self.pending.popleft()
            history = self.suspect[index]
            if history is not None:
                exc: ReproError
                if history == "crash":
                    exc = WorkerCrashError(task_index=index, attempts=attempt + 1)
                else:
                    exc = SolverTimeoutError(task_index=index)
                self._terminal_exception(index, attempt + 1, history, exc)
                continue
            res, rec = _solve_one_inline(
                index, self.tasks[index], self.config, self.policy, self.on_error
            )
            self._finish(index, res, rec)

    def run(self) -> tuple[list[RadiusResult], list[FailureRecord]]:
        try:
            while self.pending or self.inflight:
                if self.serial_only:
                    self._drain_serial()
                    break
                self._submit_pending()
                if not self.inflight:
                    if self.serial_only:
                        self._drain_serial()
                        break
                    continue
                now = time.monotonic()
                deadlines = [d for (_, _, d) in self.inflight.values() if d is not None]
                timeout = max(0.0, min(deadlines) - now) if deadlines else None
                done, _ = wait(set(self.inflight), timeout=timeout, return_when=FIRST_COMPLETED)
                if not done:
                    now = time.monotonic()
                    overdue = [
                        fut
                        for fut, (_, _, d) in self.inflight.items()
                        if d is not None and now >= d and not fut.done()
                    ]
                    if overdue:
                        self._on_timeouts(overdue)
                    continue
                broke = False
                for fut in done:
                    if fut not in self.inflight:
                        continue
                    index, attempt, _ = self.inflight.pop(fut)
                    try:
                        res = fut.result()
                    except BrokenExecutor:
                        self._on_pool_break((index, attempt))
                        broke = True
                        break
                    except BaseException as exc:  # noqa: BLE001 - routed per kind
                        self._on_worker_exception(index, attempt, exc)
                        continue
                    if isinstance(res, obs_trace.TracedResult):
                        tracer = obs_trace.get_tracer()
                        if tracer is not None and obs_trace.enabled():
                            tracer.ingest(res.spans)
                        res = res.result
                    self._on_result(index, attempt, res)
                if broke:
                    continue
        finally:
            self._kill_executor()
        failures = [self.records[i] for i in sorted(self.records)]
        return list(self.results), failures
