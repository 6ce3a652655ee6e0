"""Exception hierarchy for :mod:`repro`.

All exceptions raised by this library derive from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.

Every class here must survive pickling across process boundaries with its
arguments and attributes intact: the fault-tolerant solve layer
(:mod:`repro.engine.fault`) ships exceptions raised inside pool workers back
to the parent process via :mod:`concurrent.futures`, which pickles them.
Classes whose ``__init__`` takes keyword-only attributes therefore define
``__reduce__`` explicitly; ``tests/test_exceptions.py`` enforces the
round-trip for every subclass.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "InfeasibleAtOriginError",
    "SolverError",
    "SolverTimeoutError",
    "WorkerCrashError",
    "SanitizerError",
    "ModelError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ValidationError(ReproError, ValueError):
    """An input failed validation (bad shape, negative size, NaN, ...)."""


class InfeasibleAtOriginError(ReproError):
    """The system violates a robustness requirement at the assumed operating
    point ``pi_orig`` and the caller asked for strict feasibility.

    The paper (Section 2, step 4) assumes the system starts inside the robust
    region.  Most APIs in this library instead return *signed* radii (negative
    when the origin already violates a bound) and only raise this error when
    ``require_feasible=True`` is passed.
    """


class SolverError(ReproError):
    """A numeric boundary-minimization solve failed to converge."""


class SolverTimeoutError(SolverError):
    """A solve exceeded :attr:`~repro.core.config.SolverConfig.task_timeout`.

    Raised (or recorded, depending on ``on_error``) by the fault-tolerant
    solve layer when a pooled radius task does not complete within its
    per-attempt deadline.  The hung worker is abandoned and the pool rebuilt.
    """

    def __init__(
        self,
        message: str = "solver task timed out",
        *,
        timeout: float | None = None,
        task_index: int | None = None,
    ) -> None:
        super().__init__(message)
        #: the per-attempt deadline that was exceeded, in seconds
        self.timeout = timeout
        #: index of the task in its batch (None outside batch context)
        self.task_index = task_index

    def __reduce__(self):
        return (
            _rebuild,
            (type(self), self.args, {"timeout": self.timeout, "task_index": self.task_index}),
        )


class WorkerCrashError(ReproError):
    """A process-pool worker died while executing a solve task.

    The executor reports this as ``BrokenProcessPool`` for *every* in-flight
    future; the fault-tolerant layer re-probes the in-flight tasks one at a
    time to attribute the crash, then raises or records this error for the
    guilty task.
    """

    def __init__(
        self,
        message: str = "process-pool worker crashed",
        *,
        task_index: int | None = None,
        attempts: int | None = None,
    ) -> None:
        super().__init__(message)
        #: index of the task in its batch (None when unattributed)
        self.task_index = task_index
        #: number of attempts made before giving up
        self.attempts = attempts

    def __reduce__(self):
        return (
            _rebuild,
            (type(self), self.args, {"task_index": self.task_index, "attempts": self.attempts}),
        )


class SanitizerError(ReproError):
    """A runtime numeric post-condition failed on an engine batch.

    Raised by :mod:`repro.engine.sanitize`, which audits every batch the
    :class:`~repro.engine.RobustnessEngine` returns, when a radius
    computation produces a silently-invalid result: a NaN radius on a
    converged solve, a negative radius at a feasible origin, or a metric that
    disagrees with the minimum of its own per-feature radii.  Under ``on_error="record"`` /
    ``"degrade"`` the violation is recorded as a
    :class:`~repro.engine.fault.FailureRecord` with ``stage="sanitize"``
    instead of raising.
    """

    def __init__(
        self,
        message: str = "numeric sanitizer post-condition failed",
        *,
        check: str | None = None,
        context: str | None = None,
    ) -> None:
        super().__init__(message)
        #: short machine-readable name of the violated post-condition
        self.check = check
        #: where the violation was observed (function or batch slot)
        self.context = context

    def __reduce__(self):
        return (
            _rebuild,
            (type(self), self.args, {"check": self.check, "context": self.context}),
        )


class ModelError(ReproError):
    """A system model is structurally invalid (cyclic DAG, dangling edge,
    application mapped to an unknown machine, ...)."""


def _rebuild(cls: type, args: tuple, attrs: dict):
    """Reconstruct an exception with keyword-only attributes (pickle helper)."""
    exc = cls(*args)
    for name, value in attrs.items():
        setattr(exc, name, value)
    return exc
