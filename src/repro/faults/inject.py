"""Deterministic, seedable fault injectors for chaos testing.

The chaos test suite proves that the fault-isolated solve layer
(:mod:`repro.engine.fault`) actually isolates: it wraps impact functions in
:class:`FaultyImpact`, which misbehaves in one of four controlled ways —

- ``"raise"`` — raise :class:`~repro.exceptions.SolverError` (a solver-stage
  exception the retry ladder must absorb);
- ``"nan"`` — return NaN (drives the numeric solver into its
  ``"nan-from-impact"`` failure classification);
- ``"hang"`` — sleep ``hang_seconds`` (a hung worker that only a per-task
  deadline can bound);
- ``"crash"`` — ``os._exit`` the worker process (surfaces as
  ``BrokenProcessPool`` in the parent).

Injection is deterministic: the fault fires from the ``on_call``-th
evaluation in the current process onward, and :func:`choose_fault_indices`
selects which tasks of a batch carry an injector from a seeded RNG.  Call
counters are process-local and deliberately reset on unpickling
(``__getstate__``), so a worker always starts counting from zero no matter
how many times the parent probed the impact — which also means a counter
cannot span retry attempts.  Attempt-aware healing is therefore driven by
:data:`CURRENT_ATTEMPT`, a module global the worker entry point
(:func:`repro.engine.fault.solve_unit`) sets before each solve: an
injector with ``heal_after_attempt=k`` behaves normally from attempt ``k``
on, modeling transient faults that a retry genuinely fixes.

``worker_only=True`` restricts firing to execution contexts other than the
one that built the injector: raise/nan/hang fire once the PID *or* the
thread differs from the constructing one (so they also fire on another
thread of the constructing process), while ``"crash"`` additionally requires a
different PID — ``os._exit`` from a worker thread would take the whole
parent down, which is not the fault being modeled.  Either way the engine's
in-parent value probes never trip a fault meant for a worker.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time

import numpy as np

from repro.core.features import PerformanceFeature
from repro.core.impact import ImpactFunction, as_impact
from repro.exceptions import SolverError, ValidationError
from repro.utils.rng import ensure_rng

__all__ = [
    "CURRENT_ATTEMPT",
    "FAULT_MODES",
    "FaultyImpact",
    "wrap_feature",
    "choose_fault_indices",
]

#: retry attempt (0-based) the enclosing solve is running under; published by
#: :func:`repro.engine.fault.solve_unit` before each attempt (inline or in a
#: pool worker), 0 otherwise.
CURRENT_ATTEMPT: int = 0

#: valid injector modes
FAULT_MODES = ("raise", "nan", "hang", "crash")

#: exit code of crashed workers (recognizable in process tables)
CRASH_EXIT_CODE = 17


class FaultyImpact(ImpactFunction):
    """An impact function that misbehaves on cue.

    Wraps a base impact and delegates to it until the fault condition holds
    (see module docstring); deterministic given the call sequence.

    Parameters
    ----------
    base:
        The impact to wrap (anything :func:`~repro.core.impact.as_impact`
        accepts).
    mode:
        One of :data:`FAULT_MODES`.
    on_call:
        Fire from the ``on_call``-th evaluation in this process onward
        (1-based; counters reset when the injector crosses a process
        boundary).
    hang_seconds:
        Sleep duration of ``"hang"`` mode (the evaluation still returns the
        true value afterwards — the fault is the delay, not the answer).
    heal_after_attempt:
        Behave normally once :data:`CURRENT_ATTEMPT` reaches this value
        (None = never heal).
    worker_only:
        Fire only in execution contexts other than the constructing one —
        a different process or (except for ``"crash"``) a different thread.
    """

    def __init__(
        self,
        base,
        *,
        mode: str,
        on_call: int = 1,
        hang_seconds: float = 30.0,
        heal_after_attempt: int | None = None,
        worker_only: bool = False,
    ) -> None:
        if mode not in FAULT_MODES:
            raise ValidationError(f"mode must be one of {FAULT_MODES}, got {mode!r}")
        if int(on_call) < 1:
            raise ValidationError("on_call must be >= 1")
        if float(hang_seconds) < 0:
            raise ValidationError("hang_seconds must be >= 0")
        self.base = as_impact(base)
        self.mode = mode
        self.on_call = int(on_call)
        self.hang_seconds = float(hang_seconds)
        self.heal_after_attempt = heal_after_attempt
        self.worker_only = bool(worker_only)
        self._origin_pid = os.getpid()
        self._origin_thread = threading.get_ident()
        self._calls = 0

    def __getstate__(self) -> dict:
        # Fresh per-process counter: a worker starts counting from zero no
        # matter how often the parent evaluated this injector.
        state = dict(self.__dict__)
        state["_calls"] = 0
        return state

    @property
    def armed(self) -> bool:
        """Whether the fault condition currently holds (counter included)."""
        if self.worker_only:
            same_pid = os.getpid() == self._origin_pid
            if self.mode == "crash":
                # crashing an in-process worker thread would kill the parent
                if same_pid:
                    return False
            elif same_pid and threading.get_ident() == self._origin_thread:
                return False
        if (
            self.heal_after_attempt is not None
            and CURRENT_ATTEMPT >= self.heal_after_attempt
        ):
            return False
        return self._calls >= self.on_call

    def __call__(self, pi: np.ndarray) -> float:
        self._calls += 1
        if self.armed:
            if self.mode == "raise":
                raise SolverError(
                    f"injected fault: call {self._calls} of {self.base!r}"
                )
            if self.mode == "nan":
                return float("nan")
            if self.mode == "hang":
                time.sleep(self.hang_seconds)
            elif self.mode == "crash":
                os._exit(CRASH_EXIT_CODE)
        return float(self.base(pi))

    def gradient(self, pi: np.ndarray):
        # Force finite differences through __call__ so gradient evaluations
        # also tick the counter and trip the injector.
        return None

    @property
    def is_affine(self) -> bool:
        # Never affine: the engine must route injected features through the
        # numeric solver (and hence the pool), not the closed form.
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultyImpact(mode={self.mode!r}, on_call={self.on_call}, "
            f"heal_after_attempt={self.heal_after_attempt}, base={self.base!r})"
        )


def wrap_feature(feature: PerformanceFeature, mode: str, **kwargs) -> PerformanceFeature:
    """A copy of ``feature`` whose impact is wrapped in a :class:`FaultyImpact`."""
    return dataclasses.replace(
        feature, impact=FaultyImpact(feature.impact, mode=mode, **kwargs)
    )


def choose_fault_indices(
    n_tasks: int, fraction: float, seed: "int | np.random.Generator" = 0
) -> np.ndarray:
    """Seeded choice of which tasks of a batch carry an injector.

    Returns a sorted array of ``round(n_tasks * fraction)`` distinct indices;
    deterministic in ``(n_tasks, fraction, seed)``.  ``seed`` may also be an
    existing :class:`numpy.random.Generator` to thread a shared stream.
    """
    if not 0.0 <= float(fraction) <= 1.0:
        raise ValidationError(f"fraction must be in [0, 1], got {fraction!r}")
    n_faulty = int(round(n_tasks * float(fraction)))
    rng = ensure_rng(seed)
    return np.sort(rng.choice(n_tasks, size=n_faulty, replace=False))
