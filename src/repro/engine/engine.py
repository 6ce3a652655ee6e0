"""Batched robustness evaluation — one call for a whole population.

The scalar API (:func:`repro.alloc.robustness.robustness`,
:func:`repro.hiperd.robustness.robustness`,
:func:`repro.core.metric.robustness_metric`) evaluates one mapping at a time;
a GA population or a 1000-mapping experiment pays ``P * m`` Python-level
radius computations.  :class:`RobustnessEngine` evaluates the same
quantities for the whole population at once:

- **allocation** (Eq. 6 closed form) — one ``(P, m)`` radii matrix built
  from two scatter-adds and a handful of elementwise array passes;
- **HiPer-D** (Eqs. 10-11) — all mappings' constraint rows built as one
  ``(P, R, n_sensors)`` tensor from the system's compiled structure and
  reduced by a single matrix-vector product, with per-row radii, binding
  constraints, boundary loads, feasibility *and* the Section-4.3 slack read
  off the same pass;
- **generic FePIA** — affine features through the scalar closed form,
  non-affine features through an LRU solve cache with an optional disk
  tier (:class:`~repro.engine.cache.RadiusCache`) and an execution backend
  (:mod:`repro.engine.backends`, serial by default).

Batched results are bit-for-bit identical to the per-mapping scalar path
(the parity test suite asserts ``np.array_equal``, not ``allclose``): the
affine kernels perform the same elementwise arithmetic row-by-row, and the
numeric branch re-enters the scalar solver verbatim.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
from collections.abc import Iterable, Iterator, Sequence
from typing import Any
from dataclasses import dataclass

import numpy as np

from repro.alloc.makespan import batch_finishing_times
from repro.alloc.mapping import Mapping
from repro.alloc.robustness import (
    AllocationRobustness,
    batch_robustness_curve,
    batch_robustness_radii,
)
from repro.core.config import SolverConfig, resolve_config
from repro.core.features import FeatureSet, PerformanceFeature
from repro.core.impact import AffineImpact
from repro.core.metric import MetricResult, metric_from_radii
from repro.core.norms import L2Norm, Norm, get_norm
from repro.core.perturbation import PerturbationParameter
from repro.core.radius import RadiusResult
from repro.core.solvers.analytic import affine_radius
from repro.core.solvers.discrete import floor_radii
from repro.engine.backends import BackendSpec, ExecutionBackend
from repro.engine.cache import RadiusCache
from repro.engine.fault import (
    FailureRecord,
    RetryPolicy,
    check_on_error,
    solve_radius_tasks_isolated,
)
from repro.engine.sanitize import check_allocation_batch, check_hiperd_batch, sanitize_batch
from repro.exceptions import InfeasibleAtOriginError, ValidationError
from repro.hiperd.constraints import assignment_matrix, build_constraints
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.hiperd.model import HiperDSystem
from repro.hiperd.robustness import hyperplane_radii
from repro.utils.serialization import decode_array, decode_float, encode_array, encode_float
from repro.utils.validation import check_positive

__all__ = [
    "RobustnessEngine",
    "AllocationBatchResult",
    "HiperdBatchResult",
    "BatchRobustnessResult",
]


def _count_eval(kind: str) -> None:
    """Increment the engine-entry counter (callers guard on obs enabled)."""
    obs_metrics.get_registry().counter(
        "repro_engine_evaluations_total",
        help="engine evaluation entry points by kind",
        kind=kind,
    ).inc()


@dataclass(frozen=True)
class BatchRobustnessResult(Sequence):
    """Per-problem metrics plus the structured failure log of one batch.

    A sequence of :class:`~repro.core.metric.MetricResult` (indexing,
    iteration and ``len`` all work as they did when
    :meth:`RobustnessEngine.evaluate_population` returned a plain list),
    augmented with one :class:`~repro.engine.fault.FailureRecord` per task
    that failed terminally or fell back to a Monte-Carlo bound.  When
    ``failures`` is empty every radius in every metric is an exact,
    converged solve.
    """

    #: one metric per submitted ``(features, parameter)`` problem
    results: tuple[MetricResult, ...]
    #: terminal failures / fallbacks, ordered by task index
    failures: tuple[FailureRecord, ...] = ()
    #: the ``on_error`` mode the batch ran under
    on_error: str = "raise"

    def __getitem__(self, index: int) -> MetricResult:
        return self.results[index]

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        """True when no task failed or degraded."""
        return not self.failures

    @classmethod
    def merge(cls, batches: "Iterable[BatchRobustnessResult]") -> "BatchRobustnessResult":
        """Concatenate chunked batches into one population-level result.

        ``problem_index`` on every failure record is shifted by the number
        of results preceding its chunk, so :meth:`failures_for` keeps
        working on the merged batch.  ``task_index`` stays chunk-local (the
        task numbering of one fan-out has no meaning across chunks).  The
        merged ``on_error`` is taken from the chunks (they all ran under
        the same mode when produced by the streaming evaluator).
        """
        results: list[MetricResult] = []
        failures: list[FailureRecord] = []
        on_error = "raise"
        for batch in batches:
            offset = len(results)
            results.extend(batch.results)
            failures.extend(
                dataclasses.replace(
                    rec,
                    problem_index=(
                        rec.problem_index + offset
                        if rec.problem_index is not None
                        else None
                    ),
                )
                for rec in batch.failures
            )
            on_error = batch.on_error
        return cls(results=tuple(results), failures=tuple(failures), on_error=on_error)

    def failures_for(self, problem_index: int) -> tuple[FailureRecord, ...]:
        """The failure records belonging to one problem of the batch."""
        return tuple(f for f in self.failures if f.problem_index == problem_index)

    def to_dict(self) -> dict:
        """Encode as a JSON-ready dict (round-trips via :meth:`from_dict`)."""
        return {
            "type": "BatchRobustnessResult",
            "version": 1,
            "results": [m.to_dict() for m in self.results],
            "failures": [f.to_dict() for f in self.failures],
            "on_error": self.on_error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BatchRobustnessResult":
        """Decode a payload written by :meth:`to_dict`; validates the type tag."""
        if data.get("type") != "BatchRobustnessResult":
            raise ValidationError(
                f"expected type 'BatchRobustnessResult', got {data.get('type')!r}"
            )
        return cls(
            results=tuple(MetricResult.from_dict(m) for m in data["results"]),
            failures=tuple(FailureRecord.from_dict(f) for f in data.get("failures", [])),
            on_error=str(data.get("on_error", "raise")),
        )


@dataclass(frozen=True)
class AllocationBatchResult:
    """Eq. 6/7 evaluated for a population of allocation mappings."""

    #: per-mapping metric ``rho_mu(Phi, C)`` (Eq. 7), shape ``(P,)``
    values: np.ndarray
    #: per-mapping, per-machine radii (Eq. 6), shape ``(P, m)``
    radii: np.ndarray
    #: argmin machine per mapping, shape ``(P,)``
    critical_machines: np.ndarray
    #: predicted makespan ``M_orig`` per mapping, shape ``(P,)``
    makespans: np.ndarray
    #: the tolerance factor ``tau``
    tau: float

    def __len__(self) -> int:
        return self.values.size

    def result_for(self, index: int) -> AllocationRobustness:
        """The scalar-API result object of one population member."""
        return AllocationRobustness(
            value=float(self.values[index]),
            radii=self.radii[index],
            critical_machine=int(self.critical_machines[index]),
            makespan=float(self.makespans[index]),
            tau=self.tau,
        )

    def to_dict(self) -> dict:
        """Encode as a JSON-ready dict (round-trips via :meth:`from_dict`)."""
        return {
            "type": "AllocationBatchResult",
            "version": 1,
            "values": encode_array(self.values),
            "radii": encode_array(self.radii),
            "critical_machines": encode_array(self.critical_machines),
            "makespans": encode_array(self.makespans),
            "tau": encode_float(self.tau),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AllocationBatchResult":
        """Decode a payload written by :meth:`to_dict`; validates the type tag."""
        if data.get("type") != "AllocationBatchResult":
            raise ValidationError(
                f"expected type 'AllocationBatchResult', got {data.get('type')!r}"
            )
        return cls(
            values=decode_array(data["values"]),
            radii=decode_array(data["radii"]),
            critical_machines=decode_array(data["critical_machines"]).astype(np.int64),
            makespans=decode_array(data["makespans"]),
            tau=decode_float(data["tau"]),
        )


@dataclass(frozen=True)
class HiperdBatchResult:
    """Eqs. 10-11 evaluated for a population of HiPer-D mappings.

    All mappings of one system share the constraint-row structure (the rows
    are indexed by applications-on-paths, transfers and paths — not by the
    mapping), so ``names``/``kinds`` are stored once.
    """

    #: floored metric per mapping (Eq. 11), shape ``(P,)``
    values: np.ndarray
    #: unfloored minimum radius per mapping, shape ``(P,)``
    raw_values: np.ndarray
    #: signed radius per mapping and constraint row, shape ``(P, R)``
    radii: np.ndarray
    #: binding constraint row per mapping, shape ``(P,)``
    binding_indices: np.ndarray
    #: system-wide percentage slack per mapping (Section 4.3), shape ``(P,)``
    slacks: np.ndarray
    #: boundary load ``lambda*`` per mapping, shape ``(P, n_sensors)``
    boundaries: np.ndarray
    #: per-mapping feasibility at ``lambda_orig``, shape ``(P,)`` bool
    feasible_at_origin: np.ndarray
    #: constraint-row names/kinds (shared across the population)
    names: tuple[str, ...]
    kinds: tuple[str, ...]

    def __len__(self) -> int:
        return self.values.size

    @property
    def binding_names(self) -> tuple[str, ...]:
        """Name of each mapping's binding constraint."""
        return tuple(self.names[int(k)] for k in self.binding_indices)

    @property
    def binding_kinds(self) -> tuple[str, ...]:
        """Kind (``"comp"``/``"comm"``/``"latency"``) of each binding constraint."""
        return tuple(self.kinds[int(k)] for k in self.binding_indices)

    def to_dict(self) -> dict:
        """Encode as a JSON-ready dict (round-trips via :meth:`from_dict`)."""
        return {
            "type": "HiperdBatchResult",
            "version": 1,
            "values": encode_array(self.values),
            "raw_values": encode_array(self.raw_values),
            "radii": encode_array(self.radii),
            "binding_indices": encode_array(self.binding_indices),
            "slacks": encode_array(self.slacks),
            "boundaries": encode_array(self.boundaries),
            "feasible_at_origin": encode_array(self.feasible_at_origin.astype(float)),
            "names": list(self.names),
            "kinds": list(self.kinds),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HiperdBatchResult":
        """Decode a payload written by :meth:`to_dict`; validates the type tag."""
        if data.get("type") != "HiperdBatchResult":
            raise ValidationError(
                f"expected type 'HiperdBatchResult', got {data.get('type')!r}"
            )
        return cls(
            values=decode_array(data["values"]),
            raw_values=decode_array(data["raw_values"]),
            radii=decode_array(data["radii"]),
            binding_indices=decode_array(data["binding_indices"]).astype(np.int64),
            slacks=decode_array(data["slacks"]),
            boundaries=decode_array(data["boundaries"]),
            feasible_at_origin=decode_array(data["feasible_at_origin"]).astype(bool),
            names=tuple(data["names"]),
            kinds=tuple(data["kinds"]),
        )


class RobustnessEngine:
    """Population-scale evaluator for the paper's robustness metric.

    One engine instance carries the norm, the solver configuration and the
    numeric solve cache; it is cheap to construct and safe to reuse across
    calls (the cache only ever helps).  Every batch it returns has passed the
    post-conditions of :mod:`repro.engine.sanitize` (no silent NaN, no
    negative radius at a feasible origin, ``rho`` = min of its radii).

    Example
    -------
    ::

        engine = RobustnessEngine()
        batch = engine.evaluate_allocation(assignments, etc, tau=1.2)
        batch.values            # (P,) — rho_mu of every mapping
        batch.result_for(0)     # scalar-API AllocationRobustness
    """

    def __init__(
        self,
        *,
        norm: Norm | str | None = None,
        config: SolverConfig | dict | None = None,
        solver_options: dict | None = None,
        backend: "str | ExecutionBackend | type[ExecutionBackend] | BackendSpec | None" = None,
        store: "str | os.PathLike | None" = None,
    ) -> None:
        self.config = resolve_config(config, solver_options)
        self.norm = get_norm(norm)
        #: numeric solve cache; ``store`` is the optional path of its disk
        #: tier, probed after memory, written with converged value-keyed
        #: solves and saved after each population evaluation
        self.cache = RadiusCache(self.config.cache_size, path=store)
        #: execution substrate for numeric solves — a registered backend
        #: name, class, instance or spec; None defers to ``REPRO_BACKEND``
        #: and then the legacy ``pool_size`` heuristic (see
        #: :func:`repro.engine.backends.resolve_backend`)
        self.backend = backend

    # -- allocation (Eq. 6/7) ------------------------------------------------
    def evaluate_allocation(
        self,
        mappings: np.ndarray | Sequence[Mapping] | Sequence[Sequence[int]],
        etc: np.ndarray,
        tau: float,
        *,
        require_feasible: bool = False,
    ) -> AllocationBatchResult:
        """Evaluate Eq. 7 for every mapping in one vectorized pass.

        ``mappings`` is an ``(P, n_tasks)`` assignment matrix or a sequence
        of :class:`~repro.alloc.mapping.Mapping` objects.  Only the paper's
        l2 norm has the fully-vectorized closed form; other norms raise
        (use the scalar API, which handles them via dual norms).
        """
        with obs_trace.maybe_span("engine.evaluate_allocation") as sp:
            if obs_trace.enabled():
                _count_eval("allocation")
            out = self._evaluate_allocation(
                mappings, etc, tau, require_feasible=require_feasible
            )
            sp.set_attr("n_mappings", len(out))
            return out

    def _evaluate_allocation(
        self,
        mappings: np.ndarray | Sequence[Mapping] | Sequence[Sequence[int]],
        etc: np.ndarray,
        tau: float,
        *,
        require_feasible: bool,
    ) -> AllocationBatchResult:
        self._require_l2()
        assignments = self._as_assignments(mappings)
        tau = check_positive(tau, "tau")
        radii = batch_robustness_radii(assignments, etc, tau)
        values = radii.min(axis=1)
        if require_feasible and np.any(values < 0):
            bad = int(np.argmin(values))
            raise InfeasibleAtOriginError(
                f"mapping {bad} violates the makespan bound at C_orig "
                f"(radius {values[bad]:g} < 0)"
            )
        check_allocation_batch(radii, values)
        return AllocationBatchResult(
            values=values,
            radii=radii,
            critical_machines=radii.argmin(axis=1),
            makespans=batch_finishing_times(assignments, etc).max(axis=1),
            tau=float(tau),
        )

    def evaluate_allocation_curve(
        self,
        mappings: np.ndarray | Sequence[Mapping] | Sequence[Sequence[int]],
        etc: np.ndarray,
        taus: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """Eq. 7 of every mapping at every ``tau``, shape ``(T, P)``, in one
        broadcast; row ``t`` is bit-equal to
        ``evaluate_allocation(mappings, etc, taus[t]).values``."""
        with obs_trace.maybe_span("engine.evaluate_allocation") as sp:
            if obs_trace.enabled():
                _count_eval("allocation")
            self._require_l2()
            values = batch_robustness_curve(self._as_assignments(mappings), etc, taus)
            sp.set_attr("n_mappings", values.shape[1])
            return values

    # -- HiPer-D (Eqs. 10-11) ------------------------------------------------
    def evaluate_hiperd(
        self,
        system: HiperDSystem,
        mappings: np.ndarray | Sequence[Mapping] | Sequence[Sequence[int]],
        load_orig: np.ndarray | Sequence[float],
        *,
        apply_floor: bool = True,
        require_feasible: bool = False,
    ) -> HiperdBatchResult:
        """Evaluate Eq. 11 for every mapping with one stacked matrix pass.

        The system's compiled constraint structure
        (``system.compiled``) builds every mapping's constraint matrix as one
        ``(P, R, n_sensors)`` tensor; radii, binding constraints, boundary
        loads, origin feasibility and the Section-4.3 percentage slack all
        come from the same matrix-vector product, through the kernel the
        scalar :func:`repro.hiperd.robustness.robustness` runs on one row.
        """
        with obs_trace.maybe_span("engine.evaluate_hiperd") as sp:
            if obs_trace.enabled():
                _count_eval("hiperd")
            out = self._evaluate_hiperd(
                system,
                mappings,
                load_orig,
                apply_floor=apply_floor,
                require_feasible=require_feasible,
            )
            sp.set_attr("n_mappings", len(out))
            return out

    def _evaluate_hiperd(
        self,
        system: HiperDSystem,
        mappings: np.ndarray | Sequence[Mapping] | Sequence[Sequence[int]],
        load_orig: np.ndarray | Sequence[float],
        *,
        apply_floor: bool,
        require_feasible: bool,
    ) -> HiperdBatchResult:
        assignments = assignment_matrix(system, mappings)
        load_orig = np.asarray(load_orig, dtype=float)
        if load_orig.shape != (system.n_sensors,):
            raise ValidationError(
                f"load_orig must have shape ({system.n_sensors},), got {load_orig.shape}"
            )
        compiled = system.compiled
        limits = compiled.limits
        rows = hyperplane_radii(
            compiled.coefficients(assignments), limits, load_orig, self.norm
        )
        feasible = np.all(rows.values <= limits, axis=1)
        if require_feasible and not np.all(feasible):
            i = int(np.argmin(feasible))
            cs = build_constraints(system, Mapping(assignments[i], system.n_machines))
            frac = cs.fractional_values_at(load_orig)
            worst = int(np.argmax(frac))
            raise InfeasibleAtOriginError(
                f"mapping {i}: constraint {cs.names[worst]} violated at lambda_orig "
                f"(fractional value {frac[worst]:.3f})"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            slacks = (1.0 - rows.values / limits).min(axis=1)

        # slacks are excluded: inf/NaN slack is legitimate on zero limits
        check_hiperd_batch(rows.raw, rows.radii)
        return HiperdBatchResult(
            values=floor_radii(rows.raw) if apply_floor else rows.raw,
            raw_values=rows.raw,
            radii=rows.radii,
            binding_indices=rows.binding.astype(np.int64),
            slacks=slacks,
            boundaries=rows.boundaries,
            feasible_at_origin=feasible,
            names=compiled.names,
            kinds=compiled.kinds,
        )

    # -- generic FePIA (Eqs. 1-2) --------------------------------------------
    def evaluate_metric(
        self,
        features: FeatureSet | list[PerformanceFeature],
        parameter: PerturbationParameter,
        *,
        apply_floor: bool | None = None,
        require_feasible: bool = False,
        on_error: str = "raise",
        retry_policy: RetryPolicy | None = None,
    ) -> MetricResult:
        """Eq. 2 for one feature set, using the engine's cache and pool."""
        with obs_trace.maybe_span("engine.evaluate_metric"):
            return self.evaluate_population(
                [(features, parameter)],
                apply_floor=apply_floor,
                require_feasible=require_feasible,
                on_error=on_error,
                retry_policy=retry_policy,
            )[0]

    def evaluate_population(
        self,
        problems: Iterable[tuple[Iterable[PerformanceFeature], PerturbationParameter]],
        *,
        apply_floor: bool | None = None,
        require_feasible: bool = False,
        on_error: str = "raise",
        retry_policy: RetryPolicy | None = None,
    ) -> BatchRobustnessResult:
        """Eq. 2 for many ``(features, parameter)`` problems in one call.

        Affine features go through the scalar closed form; non-affine
        features are deduplicated against the LRU cache, and the remaining
        numeric solves run on the engine's execution backend (serial unless
        a ``process`` backend is selected and the tasks pickle) with per-task
        fault isolation (:mod:`repro.engine.fault`).

        ``on_error`` controls terminal solve failures: ``"raise"`` (default,
        legacy semantics — exceptions propagate), ``"record"`` (failed tasks
        yield NaN radii plus :class:`~repro.engine.fault.FailureRecord`
        entries on the returned batch) or ``"degrade"`` (like ``"record"``
        but solver-stage failures fall back to a Monte-Carlo bound, flagged
        via ``solver="montecarlo"`` / ``converged=False``).  ``retry_policy``
        overrides the :class:`~repro.engine.fault.RetryPolicy` derived from
        the engine's config.
        """
        with obs_trace.maybe_span("engine.evaluate_population", on_error=on_error) as sp:
            if obs_trace.enabled():
                _count_eval("population")
            batch = self._evaluate_population(
                problems,
                apply_floor=apply_floor,
                require_feasible=require_feasible,
                on_error=on_error,
                retry_policy=retry_policy,
            )
            sp.set_attr("n_problems", len(batch.results))
            sp.set_attr("n_failures", len(batch.failures))
            return batch

    def iter_population(
        self,
        problems: Iterable[tuple[Iterable[PerformanceFeature], PerturbationParameter]],
        *,
        chunk_size: int = 256,
        apply_floor: bool | None = None,
        require_feasible: bool = False,
        on_error: str = "raise",
        retry_policy: RetryPolicy | None = None,
    ) -> "Iterator[BatchRobustnessResult]":
        """Evaluate a population in chunks, yielding one batch per chunk.

        ``problems`` may be any iterable — a generator is consumed lazily,
        ``chunk_size`` problems at a time, so populations far larger than
        memory stream through without ever being materialized.  Each yielded
        :class:`BatchRobustnessResult` is a normal eager batch of its chunk
        (failure ``problem_index`` values are chunk-local); merge them with
        :meth:`BatchRobustnessResult.merge` or use
        :meth:`evaluate_population_stream` for the one-shot merged form.
        Chunking changes result identity not at all: the solve cache carries
        over between chunks exactly as it does within one eager batch.
        """
        if int(chunk_size) < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk_size!r}")
        iterator = iter(problems)
        while True:
            chunk = list(itertools.islice(iterator, int(chunk_size)))
            if not chunk:
                return
            yield self.evaluate_population(
                chunk,
                apply_floor=apply_floor,
                require_feasible=require_feasible,
                on_error=on_error,
                retry_policy=retry_policy,
            )

    def evaluate_population_stream(
        self,
        problems: Iterable[tuple[Iterable[PerformanceFeature], PerturbationParameter]],
        *,
        chunk_size: int = 256,
        apply_floor: bool | None = None,
        require_feasible: bool = False,
        on_error: str = "raise",
        retry_policy: RetryPolicy | None = None,
    ) -> BatchRobustnessResult:
        """Chunked :meth:`evaluate_population` with incremental merging.

        Equivalent to the eager call on ``list(problems)`` (results are
        bit-for-bit identical), but only ``chunk_size`` problems are
        resident at a time — the input can be a generator of arbitrary
        length.  Failure records carry population-level ``problem_index``
        values after the merge.
        """
        with obs_trace.maybe_span(
            "engine.evaluate_population_stream", chunk_size=int(chunk_size)
        ) as sp:
            if obs_trace.enabled():
                _count_eval("stream")
            batch = BatchRobustnessResult.merge(
                self.iter_population(
                    problems,
                    chunk_size=chunk_size,
                    apply_floor=apply_floor,
                    require_feasible=require_feasible,
                    on_error=on_error,
                    retry_policy=retry_policy,
                )
            )
            sp.set_attr("n_problems", len(batch.results))
            sp.set_attr("n_failures", len(batch.failures))
            return batch

    def _evaluate_population(
        self,
        problems: Iterable[tuple[Iterable[PerformanceFeature], PerturbationParameter]],
        *,
        apply_floor: bool | None,
        require_feasible: bool,
        on_error: str,
        retry_policy: RetryPolicy | None,
    ) -> BatchRobustnessResult:
        check_on_error(on_error)
        problems = [(self._as_features(fs), param) for fs, param in problems]

        # Pass 1: feasibility gate + affine closed forms + cache probes.
        slots: list[list[RadiusResult | None]] = []
        tasks: list[tuple] = []
        task_where: list[tuple[int, int, tuple]] = []  # (problem, slot, key)
        for ip, (feats, param) in enumerate(problems):
            row: list[RadiusResult | None] = []
            origin = param.origin
            for f in feats:
                value0 = f.value_at(origin)
                feasible = f.bounds.contains(value0)
                if require_feasible and not feasible:
                    raise InfeasibleAtOriginError(
                        f"feature {f.name!r} = {value0:g} violates bounds "
                        f"[{f.bounds.lower:g}, {f.bounds.upper:g}] at the origin"
                    )
                if isinstance(f.impact, AffineImpact) and self.config.solver != "numeric":
                    r, point, bound = affine_radius(f, origin, self.norm)
                    row.append(
                        RadiusResult(
                            feature=f.name,
                            parameter=param.name,
                            radius=float(r),
                            boundary_point=point,
                            binding_bound=bound,
                            value_at_origin=value0,
                            feasible_at_origin=feasible,
                            solver="analytic",
                        )
                    )
                    continue
                if self.config.solver == "analytic":
                    raise ValidationError(
                        f"solver='analytic' requires an affine impact, but feature "
                        f"{f.name!r} has {type(f.impact).__name__}"
                    )
                key = self.cache.key_for(f, param, self.norm, self.config)
                cached = self.cache.get(key)
                if cached is not None:
                    row.append(
                        dataclasses.replace(
                            cached, feature=f.name, parameter=param.name
                        )
                    )
                    continue
                row.append(None)
                tasks.append((f, param, self.norm, self.config))
                task_where.append((ip, len(row) - 1, key))
            slots.append(row)

        # Pass 2: solve the cache misses (fanned over the configured
        # execution backend), with per-task fault isolation.
        solved, failures = solve_radius_tasks_isolated(
            tasks,
            self.config,
            policy=retry_policy,
            on_error=on_error,
            backend=self.backend,
        )

        # Pass 3: fill slots, populate the cache, assemble the metrics.
        # Only converged solves are cached: placeholders, Monte-Carlo bounds
        # and uncertified results must not shadow a future exact solve.
        for (ip, islot, key), res, task in zip(task_where, solved, tasks):
            slots[ip][islot] = res
            if res.converged:
                self.cache.put(key, res, pin=(task[0].impact,))
        self.cache.save()
        metrics = tuple(
            metric_from_radii(tuple(row), param, apply_floor=apply_floor)
            for row, (_, param) in zip(slots, problems)
        )
        annotated = tuple(
            dataclasses.replace(rec, problem_index=task_where[rec.task_index][0])
            for rec in failures
        )
        return sanitize_batch(
            BatchRobustnessResult(results=metrics, failures=annotated, on_error=on_error)
        )

    # -- unified dispatch -----------------------------------------------------
    def robustness_of(self, *args: Any, on_error: str = "raise", **kwargs: Any) -> Any:
        """Dispatch to the right evaluator from the argument types.

        - ``robustness_of(mapping, etc, tau)`` — allocation (scalar);
        - ``robustness_of(system, mapping, load_orig)`` — HiPer-D (scalar);
        - ``robustness_of(features, parameter)`` — generic FePIA metric.

        Scalar calls forward the engine's ``norm`` and ``config``; extra
        keywords (``require_feasible=``, ``apply_floor=``) pass through.
        ``on_error`` selects the failure mode of numeric solves
        (``"raise"``/``"record"``/``"degrade"``, see
        :meth:`evaluate_population`); the allocation and HiPer-D paths are
        closed-form — no numeric solve can fail — so the mode is validated
        but has no effect there.
        """
        check_on_error(on_error)
        if args and isinstance(args[0], Mapping):
            from repro.alloc.robustness import robustness as alloc_robustness

            return alloc_robustness(
                *args, norm=self.norm, config=self.config, **kwargs
            )
        if args and isinstance(args[0], HiperDSystem):
            from repro.hiperd.robustness import robustness as hiperd_robustness

            return hiperd_robustness(
                *args, norm=self.norm, config=self.config, **kwargs
            )
        if args and isinstance(args[1] if len(args) > 1 else None, PerturbationParameter):
            return self.evaluate_metric(*args, on_error=on_error, **kwargs)
        raise ValidationError(
            "robustness_of expects (mapping, etc, tau), (system, mapping, load) "
            "or (features, parameter)"
        )

    # -- helpers --------------------------------------------------------------
    def _require_l2(self) -> None:
        if not isinstance(self.norm, L2Norm):
            raise ValidationError(
                "batched allocation evaluation supports the l2 norm only; "
                "use repro.alloc.robustness.robustness(norm=...) per mapping"
            )

    @staticmethod
    def _as_assignments(
        mappings: np.ndarray | Sequence[Mapping] | Sequence[Sequence[int]],
    ) -> np.ndarray:
        if isinstance(mappings, np.ndarray):
            return mappings
        mappings = list(mappings)
        if mappings and isinstance(mappings[0], Mapping):
            return np.array([m.assignment for m in mappings])
        return np.asarray(mappings)

    @staticmethod
    def _as_features(
        features: Iterable[PerformanceFeature],
    ) -> list[PerformanceFeature]:
        feats = list(features)
        if not feats:
            raise ValidationError("the feature set Phi must be non-empty")
        if not all(isinstance(f, PerformanceFeature) for f in feats):
            raise ValidationError("features must be PerformanceFeature instances")
        return feats
