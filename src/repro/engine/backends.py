"""Execution backends for radius solves.

An :class:`ExecutionBackend` exposes ``submit`` / ``shutdown`` plus a
:class:`BackendCapabilities` record; the one retry ladder of
:mod:`repro.engine.fault` (retries, deadlines, crash attribution,
degradation) submits every unit of work through ``submit``, whichever
backend runs it.

Two backends ship:

- :class:`SerialBackend` — runs tasks inline in the calling thread.  No
  parallelism, no pickling; the default and the reference substrate the
  other backend must match bit-for-bit.  The scheduler sends it one task
  at a time.
- :class:`ProcessPoolBackend` — a
  :class:`~concurrent.futures.ProcessPoolExecutor`: isolated workers, so a
  crashing solve is contained and a hung one can be preempted; payloads
  must pickle.  The scheduler sends it tasks in chunks unless a per-task
  deadline (``task_timeout``) needs one task per future.

Backend selection (:func:`resolve_backend`) has a strict precedence: an
explicit ``backend=`` argument (name, class or instance) wins over the
``REPRO_BACKEND`` environment variable, which wins over the legacy
heuristic (``SolverConfig.pool_size > 0`` means ``"process"``, otherwise
``"serial"``).  That keeps every pre-existing call site working unchanged
while letting a CI matrix re-route the whole suite through one env var.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.exceptions import ValidationError

__all__ = [
    "BackendCapabilities",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "BackendSpec",
    "BACKEND_NAMES",
    "get_backend_class",
    "resolve_backend",
]

#: environment variable consulted when no explicit backend is given
BACKEND_ENV_VAR = "REPRO_BACKEND"


@dataclass(frozen=True)
class BackendCapabilities:
    """What one execution backend can and cannot do.

    The scheduler consults this record instead of ``isinstance`` checks:
    ``isolated`` backends get the representative pickle probe, chunked
    dispatch, enforceable deadlines and crash containment.
    """

    #: registry name of the backend ("serial", "process")
    name: str
    #: True when tasks run in a separate process
    isolated: bool


class ExecutionBackend:
    """Protocol base class: where radius tasks actually run.

    Subclasses define :attr:`capabilities` (a class attribute) and implement
    :meth:`submit` and :meth:`shutdown`.  All backends are constructed as
    ``Backend(max_workers=n)`` so the scheduler can rebuild a broken one
    from its class alone.
    """

    #: capability record of this backend class
    capabilities: ClassVar[BackendCapabilities]

    def __init__(self, max_workers: int = 1) -> None:
        if int(max_workers) < 1:
            raise ValidationError("max_workers must be >= 1")
        self.max_workers = int(max_workers)

    def submit(self, fn: Callable[[Any], Any], payload: Any) -> "Future[Any]":
        """Schedule ``fn(payload)``; returns a standard future."""
        raise NotImplementedError

    def shutdown(self, *, kill: bool = False) -> None:
        """Release the backend's resources.

        ``kill=True`` is the scheduler's crash/timeout teardown: do not
        wait for in-flight work, cancel what can be cancelled, and terminate
        worker processes where the substrate has any.
        """
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Run every task inline in the calling thread.

    The degenerate backend: ``submit`` executes immediately and returns an
    already-completed future.  Exceptions are captured on the future (never
    raised out of ``submit``) so the scheduler's result handling is
    identical across backends.
    """

    capabilities = BackendCapabilities(name="serial", isolated=False)

    def submit(self, fn: Callable[[Any], Any], payload: Any) -> "Future[Any]":
        future: Future[Any] = Future()
        try:
            future.set_result(fn(payload))
        except BaseException as exc:  # noqa: BLE001 - captured on the future
            future.set_exception(exc)
        return future

    def shutdown(self, *, kill: bool = False) -> None:
        """Nothing to release."""


class ProcessPoolBackend(ExecutionBackend):
    """A :class:`~concurrent.futures.ProcessPoolExecutor` substrate.

    Workers are separate processes: a crash surfaces as a broken executor
    (which the scheduler attributes and contains), and a hung worker can
    be terminated.  Payloads and results must pickle.
    """

    capabilities = BackendCapabilities(name="process", isolated=True)

    def __init__(self, max_workers: int = 1) -> None:
        super().__init__(max_workers)
        self._executor = ProcessPoolExecutor(max_workers=self.max_workers)

    def submit(self, fn: Callable[[Any], Any], payload: Any) -> "Future[Any]":
        return self._executor.submit(fn, payload)

    def shutdown(self, *, kill: bool = False) -> None:
        if not kill:
            self._executor.shutdown(wait=True)
            return
        # Kill path: a worker may be hung or dead — never wait on it.
        processes = dict(getattr(self._executor, "_processes", None) or {})
        self._executor.shutdown(wait=False, cancel_futures=True)
        for proc in processes.values():
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - best-effort teardown of a dead process
                pass


# -- registry and resolution --------------------------------------------------

_REGISTRY: dict[str, type[ExecutionBackend]] = {
    cls.capabilities.name: cls for cls in (SerialBackend, ProcessPoolBackend)
}

#: the built-in backend names
BACKEND_NAMES = tuple(_REGISTRY)


def get_backend_class(name: str) -> type[ExecutionBackend]:
    """Look up a registered backend class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown backend {name!r}; registered backends: {sorted(_REGISTRY)}"
        ) from None


class BackendSpec:
    """A recipe the scheduler uses to (re)build its execution backend.

    Crash recovery rebuilds the executor, so the scheduler needs a factory,
    not just an instance.  A spec made from a user-supplied *instance* hands
    that instance out on the first :meth:`create` and constructs fresh ones
    (same class, same worker count) afterwards.
    """

    def __init__(
        self,
        name: str,
        workers: int,
        factory: type[ExecutionBackend],
        instance: ExecutionBackend | None = None,
    ) -> None:
        self.name = name
        self.workers = max(1, int(workers))
        self.factory = factory
        self._instance = instance

    @property
    def capabilities(self) -> BackendCapabilities:
        """Capability record of the backend this spec builds."""
        return self.factory.capabilities

    def create(self, max_workers: int | None = None) -> ExecutionBackend:
        """Build (or hand out) a backend with ``max_workers`` workers."""
        if self._instance is not None and max_workers in (None, self._instance.max_workers):
            instance, self._instance = self._instance, None
            return instance
        self._instance = None
        return self.factory(max_workers=max_workers or self.workers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BackendSpec(name={self.name!r}, workers={self.workers})"


def _default_name(pool_size: int) -> str:
    """Backend name when neither an argument nor the env var chooses one."""
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        if env not in _REGISTRY:
            raise ValidationError(
                f"{BACKEND_ENV_VAR}={env!r} is not a registered backend; "
                f"choose one of {sorted(_REGISTRY)}"
            )
        return env
    return "process" if pool_size > 0 else "serial"


def resolve_backend(
    backend: "str | ExecutionBackend | type[ExecutionBackend] | BackendSpec | None",
    pool_size: int = 0,
) -> BackendSpec:
    """Normalize a backend selection to a :class:`BackendSpec`.

    Precedence: explicit ``backend`` (name, class, instance or spec) over
    the ``REPRO_BACKEND`` environment variable over the legacy heuristic
    (``pool_size > 0`` selects ``"process"``, otherwise ``"serial"``).
    ``pool_size`` also sizes the worker count of the process backend
    (``pool_size <= 0`` with an explicit ``"process"`` gets 2 workers).
    """
    if isinstance(backend, BackendSpec):
        return backend
    workers = int(pool_size) if pool_size > 0 else 2
    if backend is None:
        name = _default_name(pool_size)
        return BackendSpec(name, workers, _REGISTRY[name])
    if isinstance(backend, str):
        return BackendSpec(backend, workers, get_backend_class(backend))
    if isinstance(backend, ExecutionBackend):
        return BackendSpec(
            type(backend).capabilities.name,
            backend.max_workers,
            type(backend),
            instance=backend,
        )
    if isinstance(backend, type) and issubclass(backend, ExecutionBackend):
        return BackendSpec(backend.capabilities.name, workers, backend)
    raise ValidationError(
        "backend must be a name, an ExecutionBackend class/instance, a "
        f"BackendSpec or None, got {type(backend).__name__}"
    )
