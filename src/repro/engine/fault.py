"""Fault-tolerant scheduling of radius solves over pluggable backends.

Every radius solve of :func:`solve_radius_tasks_isolated` runs through one
retry ladder, whichever :class:`~repro.engine.backends.ExecutionBackend`
(serial / process, selected via ``backend=`` or the ``REPRO_BACKEND`` env
var) executes it:

- the **scheduler** (:class:`_Scheduler`, in the calling process) keeps a
  queue of *units* — runs of ``(task_index, attempt)`` items — and submits
  them to the backend through one window: a single unit at a time on the
  serial backend, ``2 * workers`` on the process backend, one in *probe
  mode*;
- the **worker** (:func:`solve_unit`, the one worker entry point) runs one
  attempt of every item of its unit and returns each item's outcome — the
  :class:`~repro.core.radius.RadiusResult` or the exception the attempt
  raised — with its wall time;
- **one decision** (:meth:`_Scheduler._settle`) turns a worker outcome, a
  crashed worker or an overrun deadline into finish, retry (seeded backoff
  and an escalated :class:`RetryPolicy` configuration), record, Monte-Carlo
  fallback or raise, so a failing solve ends the same way on every backend.

On the process backend a unit is a chunk of about ``n / (4 * workers)``
tasks unless :attr:`~repro.core.config.SolverConfig.task_timeout` is set:
deadlines apply per attempt, so they need one task per unit.  Faults:

- **solver failures** (any exception but ``ValidationError``, or retryable
  non-convergence) are retried with more multi-starts and tighter
  tolerances; in ``on_error="degrade"`` mode an exhausted task falls back
  to a Monte-Carlo ray-search bound on the radius;
- **hung solves** overrun their deadline; the worker is abandoned, the
  pool rebuilt and the task retried with a longer deadline;
- **crashed workers** break the pool (``BrokenExecutor``) and poison every
  in-flight unit.  The scheduler splits those units into one-task units,
  requeues them, rebuilds the pool and — after repeated breakage — drops
  to single-in-flight probe mode, where the guilty task is identified
  exactly;
- tasks whose terminal state is still a failure become structured
  :class:`FailureRecord` entries instead of exceptions (``on_error=
  "record"`` / ``"degrade"``), so a 1000-task batch always completes.

Degradation ladder on infrastructure failure: shared pool → fresh pool →
single-worker probe pools → inline serial execution (only when executors
cannot be created at all, or for a task that will not pickle, and never for
tasks with crash/hang history — running those in the parent process would
take the whole run down with them).  Transitions are logged at WARNING
level.
"""

from __future__ import annotations

import logging
import math
import pickle
import time
from collections import deque
from contextlib import nullcontext
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.config import SolverConfig
from repro.core.radius import RadiusResult, robustness_radius
from repro.core.solvers.numeric import RETRYABLE_REASONS
from repro.engine.backends import BackendSpec, ExecutionBackend, SerialBackend, resolve_backend
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.exceptions import (
    ReproError,
    SolverTimeoutError,
    ValidationError,
    WorkerCrashError,
)
from repro.utils.clock import get_clock

__all__ = [
    "RetryPolicy",
    "FailureRecord",
    "solve_radius_tasks_isolated",
    "solve_unit",
    "check_on_error",
    "ON_ERROR_MODES",
]

logger = logging.getLogger(__name__)

#: valid values of the ``on_error`` argument
ON_ERROR_MODES = ("raise", "record", "degrade")


def check_on_error(on_error: str) -> None:
    """Validate an ``on_error`` argument against :data:`ON_ERROR_MODES`."""
    if on_error not in ON_ERROR_MODES:
        raise ValidationError(f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}")


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
    estimate_radius_mc`, ``mc_directions`` rays), whose result — the
    violating end of a ray's bracket, never below the radius — is flagged
    as a *bound* on the radius, never as an exact value.
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
    ``"sanitize"`` (a :mod:`repro.engine.sanitize` post-condition failed
    on the assembled batch).  ``fallback_used``
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
    #: wall-clock seconds of the task's attempts (each timed where it ran; a
    #: crash or timeout from submission to detection), measured on the
    #: active :func:`repro.utils.clock.get_clock` (deterministic when a
    #: :class:`~repro.utils.clock.FakeClock` is installed)
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


def solve_unit(payload: tuple) -> "list[tuple[Any, float]] | obs_trace.TracedResult":
    """Worker entry point: one attempt of every item of a unit.

    ``payload`` is ``(items, config, policy, span_context)`` with ``items``
    a list of ``(task_index, attempt, task)``.  Attempt ``k`` solves with
    ``policy.escalated(config, k)`` and publishes ``k`` to
    :data:`repro.faults.inject.CURRENT_ATTEMPT` first, so injectors with
    ``heal_after_attempt`` semantics can observe which retry they run under
    (injector state is re-pickled fresh on every submission, so per-process
    call counters alone cannot span attempts).  Returns one ``(outcome,
    wall_seconds)`` per item, where ``outcome`` is the
    :class:`~repro.core.radius.RadiusResult` or the exception the attempt
    raised; every decision about it is the scheduler's.

    When the payload carries a picklable
    :class:`~repro.obs.trace.SpanContext` (observability was enabled in the
    submitting process and the unit runs in a pool worker), the unit records
    one ``pool.worker.solve`` span per item into a fresh worker-local tracer
    and ships the spans back inside a :class:`~repro.obs.trace.TracedResult`
    — tracing never changes what the solver computes.  Forked workers
    inherit the parent's enabled state, so the installed tracer cannot be
    trusted there; inline units carry no context and the caller's tracer
    sees everything directly.
    """
    from repro.faults import inject

    items, config, policy, span_ctx = payload
    tracer: obs_trace.Tracer | None = None
    if span_ctx is not None:
        tracer = obs_trace.Tracer()
        obs_trace.enable(tracer)
        token = obs_trace.activate(span_ctx)
    clock = get_clock()
    out: list[tuple[Any, float]] = []
    try:
        for index, attempt, task in items:
            feature, parameter, norm, _ = task
            cfg = policy.escalated(config, attempt)
            inject.CURRENT_ATTEMPT = int(attempt)
            t0 = clock.perf_counter()
            span = (
                nullcontext()
                if tracer is None
                else tracer.span(
                    "pool.worker.solve",
                    task_index=int(index),
                    task_attempt=int(attempt),
                    feature=feature.name,
                )
            )
            try:
                with span:
                    outcome: Any = robustness_radius(
                        feature, parameter, norm=norm, apply_floor=False, config=cfg
                    )
            except Exception as exc:  # noqa: BLE001 - the outcome goes to the scheduler
                outcome = exc
            finally:
                inject.CURRENT_ATTEMPT = 0
            out.append((outcome, clock.perf_counter() - t0))
    finally:
        if tracer is not None:
            obs_trace.deactivate(token)
            obs_trace.disable()
    if tracer is None:
        return out
    return obs_trace.TracedResult(result=out, spans=tuple(tracer.export()))


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
    backend: str,
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


def _picklable_one(obj: object) -> bool:
    """Probe a single representative object, not a whole task list."""
    try:
        pickle.dumps(obj)
        return True
    except Exception:  # probe: any failure means "not picklable"
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
    and must never be read as an exact radius.  Only called for tasks with
    no crash/hang history: the impact is known to evaluate cleanly in this
    process (evaluating a crashing or hanging impact inline would take the
    parent down).
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


def _batch_chunks(n_tasks: int, workers: int) -> list[tuple[int, int]]:
    """``(start, stop)`` chunk bounds: about four chunks per worker, which
    amortizes IPC without starving workers."""
    size = max(1, math.ceil(n_tasks / (workers * 4)))
    return [(start, min(start + size, n_tasks)) for start in range(0, n_tasks, size)]


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
        :func:`repro.core.radius.robustness_radius` with ``apply_floor=False``
        under the batch ``config`` (escalated per attempt).
    config:
        Solver settings, pool sizing and the per-task deadline.
    policy:
        Retry/escalation policy; derived from ``config`` when None.
    on_error:
        ``"raise"`` — terminal failures raise (solver exceptions are
        still retried first; non-converged results are returned as-is
        without retry, since non-convergence was never an error);
        ``"record"`` — terminal failures become :class:`FailureRecord`
        entries plus NaN-radius placeholder results; ``"degrade"`` — like
        ``"record"``, but solver-stage failures additionally fall back to a
        Monte-Carlo bound on the radius.  A ``ValidationError`` raised by a
        solve (a malformed problem) raises in every mode.
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
    check_on_error(on_error)
    tasks = list(tasks)
    if not tasks:
        return [], []
    if policy is None:
        policy = RetryPolicy.from_config(config)
    spec = resolve_backend(backend, config.pool_size)
    # one representative probe: a batch whose first task will not cross the
    # process boundary runs inline, however many tasks it has
    isolated = spec.capabilities.isolated and _picklable_one(tasks[0])
    with obs_trace.maybe_span(
        "fault.solve_batch",
        n_tasks=len(tasks),
        on_error=on_error,
        mode="pool" if isolated else "serial",
        backend=spec.name,
    ):
        return _Scheduler(tasks, config, policy, on_error, spec, isolated).run()


class _Scheduler:
    """The one retry ladder: units out through a window, outcomes back
    through :meth:`_settle`, crash attribution and deadlines on the way."""

    def __init__(
        self,
        tasks: list[tuple],
        config: SolverConfig,
        policy: RetryPolicy,
        on_error: str,
        spec: BackendSpec,
        isolated: bool,
    ) -> None:
        self.tasks = tasks
        self.config = config
        self.policy = policy
        self.on_error = on_error
        self.spec = spec
        self.isolated = isolated
        self.path = "pool" if isolated else "serial"
        n = len(tasks)
        self.results: list[RadiusResult | None] = [None] * n
        self.records: dict[int, FailureRecord] = {}
        self.walls = [0.0] * n
        # "crash"/"timeout" history (never run in the parent), or "pickle"
        # for a task that must run in the parent
        self.suspect: list[str | None] = [None] * n
        bounds = (
            _batch_chunks(n, spec.workers)
            if isolated and config.task_timeout is None
            else [(i, i + 1) for i in range(n)]
        )
        self.pending: deque[list[tuple[int, int]]] = deque(
            [(i, 0) for i in range(start, stop)] for start, stop in bounds
        )
        self.inflight: dict = {}  # future -> (unit, submitted, deadline)
        self.pool: ExecutionBackend | None = None
        # where units run in this process: the serial backend itself, or
        # the inline fallback of an isolated batch
        self.local = SerialBackend() if spec.capabilities.isolated else spec.create()
        self.probe_mode = False
        self.pool_breaks = 0
        self.pool_unavailable = False

    # -- the one decision -----------------------------------------------------
    def _settle(
        self,
        index: int,
        attempt: int,
        outcome: Any,
        *,
        stage: str = "solve",
        wall: float = 0.0,
        retry: bool = True,
    ) -> None:
        """Finish, retry, record, fall back or raise one attempt's outcome —
        a worker's result or exception, a crash or a timeout alike."""
        self.walls[index] += wall
        if isinstance(outcome, RadiusResult):
            if (
                outcome.converged
                or self.on_error == "raise"
                or outcome.failure not in RETRYABLE_REASONS
            ):
                # converged, raise-mode (non-convergence was never an error)
                # or a non-retryable reason such as an unreachable boundary
                self._finish(index, outcome, None)
                return
        elif isinstance(outcome, ValidationError):
            raise outcome  # a malformed problem will not get better on retry
        if retry and attempt + 1 < self.policy.max_attempts:
            if stage != "solve":
                logger.warning(
                    "task %d: %s on attempt %d (%s); retrying", index, stage, attempt + 1, outcome
                )
            if obs_trace.enabled():
                _record_fault_event(
                    "fault.retry",
                    "repro_retries_total",
                    "radius solve retry attempts",
                    task_index=int(index),
                    attempt=int(attempt + 1),
                )
            time.sleep(self.policy.delay(index, attempt))
            self.pending.appendleft([(index, attempt + 1)])
            return
        if isinstance(outcome, BaseException) and self.on_error == "raise":
            raise outcome
        task = self.tasks[index]
        history = self.suspect[index]
        if stage == "solve" and history == "pickle":
            stage = "pickle"
        fallback = None
        if self.on_error == "degrade" and history in (None, "pickle"):
            fallback = _mc_fallback(task, self.policy)
        res = outcome if isinstance(outcome, RadiusResult) else None
        record = FailureRecord(
            task_index=index,
            attempts=attempt + 1,
            stage=stage,
            exception=repr(outcome) if res is None else None,
            fallback_used=fallback is not None,
            wall_time=self.walls[index],
            reason=res.failure if res is not None else None,
            feature=task[0].name,
            parameter=task[1].name,
        )
        # keep an uncertified result: it may still carry a usable value
        placeholder = stage if stage in ("crash", "timeout") else "solver-exception"
        self._finish(index, fallback or res or _failed_result(task, placeholder), record)

    def _finish(self, index: int, result: RadiusResult, record: FailureRecord | None) -> None:
        self.results[index] = result
        if record is not None:
            self.records[index] = record
        if obs_trace.enabled():
            _record_terminal(
                index,
                self.tasks[index],
                record,
                self.walls[index],
                path=self.path,
                backend=self.spec.name,
            )

    # -- submission -----------------------------------------------------------
    def _window(self) -> int:
        if not self.isolated or self.probe_mode:
            return 1
        return 2 * self.spec.workers

    def _executor_for(self, unit: list[tuple[int, int]]) -> ExecutionBackend:
        if not self.isolated or self.pool_unavailable or self.suspect[unit[0][0]] == "pickle":
            return self.local
        if self.pool is None:
            try:
                self.pool = self.spec.create(
                    max_workers=1 if self.probe_mode else self.spec.workers
                )
            except OSError as exc:  # pragma: no cover - resource exhaustion
                logger.warning(
                    "cannot create a %s backend (%s); degrading to inline serial solves",
                    self.spec.name,
                    exc,
                )
                self.pool_unavailable = True
                return self.local
        return self.pool

    def _kill_pool(self) -> None:
        if self.pool is not None:
            pool, self.pool = self.pool, None
            pool.shutdown(kill=True)

    def _submit_pending(self) -> None:
        while self.pending and len(self.inflight) < self._window():
            unit = self.pending.popleft()
            executor = self._executor_for(unit)
            index, attempt = unit[0]
            if executor is self.local and self.suspect[index] in ("crash", "timeout"):
                # no pool to run it in, and the parent must never run it
                exc: ReproError = (
                    WorkerCrashError(task_index=index, attempts=attempt + 1)
                    if self.suspect[index] == "crash"
                    else SolverTimeoutError(task_index=index)
                )
                self._settle(index, attempt, exc, stage=self.suspect[index], retry=False)
                continue
            remote = executor is not self.local
            if remote and obs_trace.enabled():
                _record_fault_event(
                    "pool.submit",
                    "repro_pool_submits_total",
                    "futures submitted to the process pool",
                    task_index=index,
                    attempt=attempt,
                    n_tasks=len(unit),
                    backend=self.spec.name,
                )
            items = [(i, a, self.tasks[i]) for i, a in unit]
            span_ctx = obs_trace.current_context() if remote else None
            submitted = get_clock().perf_counter()
            try:
                fut = executor.submit(solve_unit, (items, self.config, self.policy, span_ctx))
            except (BrokenExecutor, RuntimeError):
                self._on_pool_break(unit, submitted)
                continue
            timeout = self.policy.escalated(self.config, attempt).task_timeout if remote else None
            deadline = time.monotonic() + timeout if timeout else None
            self.inflight[fut] = (unit, submitted, deadline)

    # -- fault handlers -------------------------------------------------------
    def _on_pool_break(self, unit: list[tuple[int, int]], submitted: float) -> None:
        """A worker died; every in-flight unit is poisoned."""
        items = unit + [item for u, _, _ in self.inflight.values() for item in u]
        if obs_trace.enabled():
            _record_fault_event(
                "fault.pool_break",
                "repro_crashes_total",
                "process pool breakages (worker crashes)",
                n_tasks=len(items),
                probe_mode=self.probe_mode,
            )
        self.inflight.clear()
        self._kill_pool()
        self.pool_breaks += 1
        if len(items) == 1:
            # a single task in flight (probe mode, or the tail of the batch):
            # the crash is attributed exactly
            index, attempt = items[0]
            self.suspect[index] = "crash"
            crash = WorkerCrashError(task_index=index, attempts=attempt + 1)
            wall = get_clock().perf_counter() - submitted
            self._settle(index, attempt, crash, stage="crash", wall=wall)
            return
        # Parallel window: attribution is ambiguous — requeue everyone as a
        # one-task unit at the same attempt and rebuild; repeated breakage
        # drops to probe mode.
        self.pending.extendleft([item] for item in reversed(items))
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

    def _on_timeouts(self) -> None:
        """Deadline overruns: abandon the hung workers, requeue the innocents."""
        now = time.monotonic()
        overdue = [
            fut
            for fut, (_, _, deadline) in self.inflight.items()
            if deadline is not None and now >= deadline and not fut.done()
        ]
        if not overdue:
            return
        for fut in overdue:
            [(index, attempt)], submitted, _ = self.inflight.pop(fut)
            self.suspect[index] = "timeout"
            if obs_trace.enabled():
                _record_fault_event(
                    "fault.timeout",
                    "repro_timeouts_total",
                    "per-task deadline overruns",
                    task_index=index,
                    attempt=attempt,
                )
            timeout = self.policy.escalated(self.config, attempt).task_timeout
            self._settle(
                index,
                attempt,
                SolverTimeoutError(timeout=timeout, task_index=index),
                stage="timeout",
                wall=get_clock().perf_counter() - submitted,
            )
        # The pool may be saturated by hung workers — rebuild it; in-flight
        # innocents are requeued at their current attempt.
        self.pending.extendleft(unit for unit, _, _ in self.inflight.values())
        self.inflight.clear()
        self._kill_pool()

    def _on_unit_error(
        self, unit: list[tuple[int, int]], submitted: float, exc: Exception
    ) -> None:
        """The unit's future itself failed (its payload or result would not
        pickle, or something outside the solve raised)."""
        if len(unit) > 1:
            logger.warning(
                "unit of %d tasks from task %d failed on backend %r (%s); "
                "re-running one task per unit",
                len(unit),
                unit[0][0],
                self.spec.name,
                exc,
            )
            self.pending.extendleft([item] for item in reversed(unit))
            return
        [(index, attempt)] = unit
        if self.suspect[index] is None and _is_pickle_error(exc):
            # this task cannot cross the process boundary; solve it in
            # process, like a batch whose first task will not pickle
            self.suspect[index] = "pickle"
            self.pending.appendleft(unit)
            return
        self._settle(index, attempt, exc, wall=get_clock().perf_counter() - submitted)

    # -- main loop ------------------------------------------------------------
    def run(self) -> tuple[list[RadiusResult], list[FailureRecord]]:
        try:
            while self.pending or self.inflight:
                self._submit_pending()
                if not self.inflight:
                    continue
                done = [fut for fut in self.inflight if fut.done()]
                if not done:
                    deadlines = [d for (_, _, d) in self.inflight.values() if d is not None]
                    timeout = (
                        max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
                    )
                    done = wait(
                        set(self.inflight), timeout=timeout, return_when=FIRST_COMPLETED
                    )[0]
                    if not done:
                        self._on_timeouts()
                        continue
                for fut in done:
                    if fut not in self.inflight:
                        continue  # poisoned by a pool break handled above
                    unit, submitted, _ = self.inflight.pop(fut)
                    try:
                        out = fut.result()
                    except BrokenExecutor:
                        self._on_pool_break(unit, submitted)
                        continue
                    except Exception as exc:  # noqa: BLE001 - routed per kind
                        self._on_unit_error(unit, submitted, exc)
                        continue
                    if isinstance(out, obs_trace.TracedResult):
                        tracer = obs_trace.get_tracer()
                        if tracer is not None and obs_trace.enabled():
                            tracer.ingest(out.spans)
                        out = out.result
                    for (index, attempt), (outcome, wall) in zip(unit, out):
                        self._settle(index, attempt, outcome, wall=wall)
        finally:
            self._kill_pool()
            self.local.shutdown()
        failures = [self.records[i] for i in sorted(self.records)]
        return list(self.results), failures
