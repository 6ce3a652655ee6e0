"""Stable top-level facade over the robustness engine.

One import gives the whole population-scale workflow with explicit
execution-backend selection::

    from repro import api

    result = api.evaluate(features, parameter)
    batch = api.evaluate_population(problems, backend="process", on_error="record")
    curve = api.robustness_curve(mappings, etc, taus=[1.1, 1.2, 1.5])
    report = api.evaluate_resilience(mapping, etc, schedule, tau=1.2)

Every function accepts the same orthogonal keywords:

- ``norm=`` — a :class:`~repro.core.norms.Norm` or name (default l2);
- ``config=`` — a :class:`~repro.core.config.SolverConfig`;
- ``backend=`` — execution substrate of numeric solves: a registered name
  (``"serial"`` / ``"process"``), an
  :class:`~repro.engine.backends.ExecutionBackend` class or instance, or
  None for the default resolution (``REPRO_BACKEND`` env var, then the
  ``pool_size`` heuristic);
- ``store=`` — optional path of the radius cache's disk tier, so numeric
  solves persist across processes (see :mod:`repro.engine.cache`).

The facade is a thin veneer: each call builds a
:class:`~repro.engine.RobustnessEngine` and delegates, so results are
bit-for-bit identical to driving the engine directly.  Construct and reuse
an engine yourself when you want the solve cache to persist across calls
without a store.

This module is the *stable* surface — the deprecation policy in
``docs/API.md`` routes old entry points here, and nothing in it will change
without a deprecation cycle.

Served access
-------------
Every evaluator here is also reachable over HTTP: :mod:`repro.serve` wraps
a shared engine in an asyncio JSON API (``repro serve`` at the command
line) whose ``/evaluate``, ``/evaluate_population`` and
``/robustness_curve`` endpoints mirror :func:`evaluate`,
:func:`evaluate_population` and :func:`robustness_curve`.  Concurrent
requests are micro-batched into the same stacked engine passes these
functions make, so served results are bit-for-bit the in-process results;
see ``docs/SERVE.md``.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.alloc.mapping import Mapping
from repro.core.config import SolverConfig
from repro.core.features import PerformanceFeature
from repro.core.metric import MetricResult
from repro.core.norms import Norm
from repro.core.perturbation import PerturbationParameter
from repro.engine.backends import BackendSpec, ExecutionBackend
from repro.engine.engine import (
    AllocationBatchResult,
    BatchRobustnessResult,
    HiperdBatchResult,
    RobustnessEngine,
)
from repro.engine.fault import RetryPolicy
from repro.exceptions import ValidationError
from repro.faults.schedule import PerturbationSchedule
from repro.hiperd.model import HiperDSystem
from repro.resilience.evaluate import ResilienceReport
from repro.resilience.evaluate import evaluate_resilience as _evaluate_resilience
from repro.utils.clock import Clock
from repro.utils.serialization import encode_array, decode_array

__all__ = [
    "evaluate",
    "evaluate_population",
    "evaluate_stream",
    "evaluate_allocation",
    "evaluate_hiperd",
    "evaluate_resilience",
    "robustness_curve",
    "RobustnessCurve",
    "ResilienceReport",
    "PerturbationSchedule",
    "RobustnessEngine",
    "BatchRobustnessResult",
    "AllocationBatchResult",
    "HiperdBatchResult",
    "SolverConfig",
    "RetryPolicy",
]

#: type accepted everywhere a backend can be chosen
BackendLike = "str | ExecutionBackend | type[ExecutionBackend] | BackendSpec | None"


def _engine(
    norm: Norm | str | None,
    config: SolverConfig | None,
    backend: BackendLike = None,
    store: "str | os.PathLike | None" = None,
) -> RobustnessEngine:
    """One-shot engine with the facade's keyword set."""
    return RobustnessEngine(norm=norm, config=config, backend=backend, store=store)


def evaluate(
    features: Iterable[PerformanceFeature],
    parameter: PerturbationParameter,
    *,
    norm: Norm | str | None = None,
    config: SolverConfig | None = None,
    backend: BackendLike = None,
    store: "str | os.PathLike | None" = None,
    apply_floor: bool | None = None,
    require_feasible: bool = False,
    on_error: str = "raise",
    retry_policy: RetryPolicy | None = None,
) -> MetricResult:
    """The paper's robustness metric (Eq. 2) of one ``(Phi, pi)`` problem."""
    return _engine(norm, config, backend, store).evaluate_metric(
        list(features),
        parameter,
        apply_floor=apply_floor,
        require_feasible=require_feasible,
        on_error=on_error,
        retry_policy=retry_policy,
    )


def evaluate_population(
    problems: Iterable[tuple[Iterable[PerformanceFeature], PerturbationParameter]],
    *,
    norm: Norm | str | None = None,
    config: SolverConfig | None = None,
    backend: BackendLike = None,
    store: "str | os.PathLike | None" = None,
    chunk_size: int | None = None,
    apply_floor: bool | None = None,
    require_feasible: bool = False,
    on_error: str = "raise",
    retry_policy: RetryPolicy | None = None,
) -> BatchRobustnessResult:
    """Eq. 2 for a whole population of ``(features, parameter)`` problems.

    With ``chunk_size=None`` the population is evaluated eagerly in one
    batch; an integer streams it through
    :meth:`~repro.engine.RobustnessEngine.evaluate_population_stream` in
    chunks of that size (identical results, bounded memory).
    """
    engine = _engine(norm, config, backend, store)
    if chunk_size is None:
        return engine.evaluate_population(
            problems,
            apply_floor=apply_floor,
            require_feasible=require_feasible,
            on_error=on_error,
            retry_policy=retry_policy,
        )
    return engine.evaluate_population_stream(
        problems,
        chunk_size=chunk_size,
        apply_floor=apply_floor,
        require_feasible=require_feasible,
        on_error=on_error,
        retry_policy=retry_policy,
    )


def evaluate_stream(
    problems: Iterable[tuple[Iterable[PerformanceFeature], PerturbationParameter]],
    *,
    norm: Norm | str | None = None,
    config: SolverConfig | None = None,
    backend: BackendLike = None,
    store: "str | os.PathLike | None" = None,
    chunk_size: int = 256,
    apply_floor: bool | None = None,
    require_feasible: bool = False,
    on_error: str = "raise",
    retry_policy: RetryPolicy | None = None,
) -> Iterator[BatchRobustnessResult]:
    """Chunk-by-chunk population evaluation (a generator of batches).

    Yields one :class:`~repro.engine.BatchRobustnessResult` per
    ``chunk_size`` problems, consuming the input lazily; merge with
    :meth:`BatchRobustnessResult.merge` when a single result is wanted.
    """
    return _engine(norm, config, backend, store).iter_population(
        problems,
        chunk_size=chunk_size,
        apply_floor=apply_floor,
        require_feasible=require_feasible,
        on_error=on_error,
        retry_policy=retry_policy,
    )


def evaluate_allocation(
    mappings: "np.ndarray | Sequence[Mapping] | Sequence[Sequence[int]]",
    etc: np.ndarray,
    tau: float,
    *,
    norm: Norm | str | None = None,
    config: SolverConfig | None = None,
    backend: BackendLike = None,
    store: "str | os.PathLike | None" = None,
    require_feasible: bool = False,
) -> AllocationBatchResult:
    """Eq. 6/7 (independent-task allocation) for a population of mappings.

    The pass is closed-form (pure array work), so ``backend=`` / ``store=``
    are accepted for facade uniformity but do not change the computation.
    """
    return _engine(norm, config, backend, store).evaluate_allocation(
        mappings, etc, tau, require_feasible=require_feasible
    )


def evaluate_hiperd(
    system: HiperDSystem,
    mappings: "np.ndarray | Sequence[Mapping] | Sequence[Sequence[int]]",
    load_orig: "np.ndarray | Sequence[float]",
    *,
    norm: Norm | str | None = None,
    config: SolverConfig | None = None,
    backend: BackendLike = None,
    store: "str | os.PathLike | None" = None,
    apply_floor: bool = True,
    require_feasible: bool = False,
) -> HiperdBatchResult:
    """Eqs. 10-11 (HiPer-D) for a population of mappings.

    Closed-form like :func:`evaluate_allocation`; ``backend=`` / ``store=``
    are accepted for facade uniformity but do not change the computation.
    """
    return _engine(norm, config, backend, store).evaluate_hiperd(
        system,
        mappings,
        load_orig,
        apply_floor=apply_floor,
        require_feasible=require_feasible,
    )


@dataclass(frozen=True)
class RobustnessCurve:
    """Allocation robustness swept over the tolerance factor ``tau``.

    ``values[i, p]`` is ``rho_mu(Phi, C)`` of mapping ``p`` at ``taus[i]`` —
    the robustness degradation curve of the population as the makespan
    tolerance tightens toward 1.
    """

    #: the swept tolerance factors, shape ``(T,)``
    taus: np.ndarray
    #: per-tau, per-mapping metric values, shape ``(T, P)``
    values: np.ndarray

    def __len__(self) -> int:
        return self.taus.size

    def to_dict(self) -> dict:
        """Encode as a JSON-ready dict (round-trips via :meth:`from_dict`)."""
        return {
            "type": "RobustnessCurve",
            "version": 1,
            "taus": encode_array(self.taus),
            "values": encode_array(self.values),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RobustnessCurve":
        """Decode a payload written by :meth:`to_dict`; validates the type tag."""
        if data.get("type") != "RobustnessCurve":
            raise ValidationError(
                f"expected type 'RobustnessCurve', got {data.get('type')!r}"
            )
        return cls(taus=decode_array(data["taus"]), values=decode_array(data["values"]))


def robustness_curve(
    mappings: "np.ndarray | Sequence[Mapping] | Sequence[Sequence[int]]",
    etc: np.ndarray,
    taus: "Sequence[float] | np.ndarray",
    *,
    norm: Norm | str | None = None,
    config: SolverConfig | None = None,
    backend: BackendLike = None,
    store: "str | os.PathLike | None" = None,
) -> RobustnessCurve:
    """Sweep the allocation metric over a set of tolerance factors.

    Eq. 6 is affine in ``tau``, so the whole curve is one
    :meth:`~repro.engine.RobustnessEngine.evaluate_allocation_curve`
    broadcast; rows are bit-for-bit identical to independent single-``tau``
    :meth:`~repro.engine.RobustnessEngine.evaluate_allocation` calls.
    """
    tau_arr = np.asarray(list(taus), dtype=float)
    if tau_arr.ndim != 1 or tau_arr.size == 0:
        raise ValidationError("taus must be a non-empty 1-D sequence")
    diffs = np.diff(tau_arr)
    if diffs.size and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValidationError(
            "taus must be strictly monotonic (all increasing or all "
            f"decreasing) so the curve is well-ordered; got {tau_arr.tolist()}"
        )
    engine = _engine(norm, config, backend, store)
    return RobustnessCurve(
        taus=tau_arr, values=engine.evaluate_allocation_curve(mappings, etc, tau_arr)
    )


def evaluate_resilience(
    mapping: "Mapping | Sequence[int] | np.ndarray",
    etc: np.ndarray,
    schedule: PerturbationSchedule,
    tau: float,
    *,
    n_steps: int = 200,
    tail_fraction: float = 0.1,
    clock: "Clock | None" = None,
) -> ResilienceReport:
    """Temporal resilience of one mapping under a perturbation schedule.

    Runs ``mapping`` through ``schedule`` (:func:`repro.sim.run_schedule`),
    sampling the predicted makespan on ``n_steps`` uniform points of the
    schedule horizon, and summarizes the series (dip, time to recovery,
    degradation integral, steady-state offset, antifragility) into one
    serializable :class:`~repro.resilience.ResilienceReport`.

    Unlike the engine facades this is a pure simulation pass — there is no
    numeric solve, so no ``backend=``/``store=`` keywords.  The report is a
    deterministic function of its arguments; the only randomness lives in
    (seeded) schedule generation.  ``mapping`` may be a
    :class:`~repro.alloc.mapping.Mapping` or a bare assignment vector (the
    machine count is then taken from ``etc``'s column count).
    """
    if not isinstance(mapping, Mapping):
        etc_arr = np.asarray(etc, dtype=float)
        if etc_arr.ndim != 2:
            raise ValidationError(f"etc must be 2-D, got shape {etc_arr.shape}")
        mapping = Mapping(np.asarray(mapping, dtype=np.int64), etc_arr.shape[1])
    return _evaluate_resilience(
        mapping,
        etc,
        schedule,
        tau,
        n_steps=n_steps,
        tail_fraction=tail_fraction,
        clock=clock,
    )
