"""Robustness of an independent-application mapping (paper Eqs. 5-7).

The perturbation parameter is the vector ``C`` of actual application
computation times, anchored at the ETC-derived ``C_orig``; the performance
features are the machine finishing times ``F_j``, each bounded above by
``tau * M_orig``.  Because ``F_j`` is a sum of the ``C_i`` on machine ``j``
(Eq. 4), every robustness radius is a point-to-hyperplane distance and Eq. 5
collapses to the closed form (Eq. 6):

    r_mu(F_j, C) = (tau * M_orig - F_j(C_orig)) / sqrt(n(m_j))

with ``n(m_j)`` the number of applications on machine ``j``.  The mapping's
robustness (Eq. 7) is the minimum over machines that have at least one
application (an empty machine's finishing time is constant and can never
violate the bound — infinite radius).

Everything here is cross-checked in the test suite against the generic FePIA
framework (:func:`fepia_analysis` builds the same system symbolically).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alloc.makespan import batch_finishing_times, finishing_times, makespan
from repro.alloc.mapping import Mapping
from repro.core.config import SolverConfig, resolve_config
from repro.core.fepia import FePIAAnalysis
from repro.core.metric import MetricResult
from repro.core.norms import L2Norm, Norm, get_norm
from repro.exceptions import InfeasibleAtOriginError, ValidationError
from repro.obs import trace as obs_trace
from repro.utils.serialization import decode_array, decode_float, encode_array, encode_float
from repro.utils.validation import check_positive

__all__ = [
    "AllocationRobustness",
    "robustness_radii",
    "robustness",
    "critical_machine",
    "boundary_etc_vector",
    "batch_robustness_radii",
    "batch_robustness",
    "batch_robustness_curve",
    "weighted_robustness_radii",
    "fepia_analysis",
]


@dataclass(frozen=True)
class AllocationRobustness:
    """Result of a makespan-robustness analysis for one mapping."""

    #: ``rho_mu(Phi, C)`` (Eq. 7), in time units
    value: float
    #: per-machine radii ``r_mu(F_j, C)`` (Eq. 6); ``inf`` for empty machines
    radii: np.ndarray
    #: machine index attaining the minimum (the critical machine)
    critical_machine: int
    #: predicted makespan ``M_orig``
    makespan: float
    #: the tolerance factor ``tau``
    tau: float

    def to_dict(self) -> dict:
        """Encode as a JSON-ready dict (round-trips via :meth:`from_dict`)."""
        return {
            "type": "AllocationRobustness",
            "version": 1,
            "value": encode_float(self.value),
            "radii": encode_array(self.radii),
            "critical_machine": int(self.critical_machine),
            "makespan": encode_float(self.makespan),
            "tau": encode_float(self.tau),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AllocationRobustness":
        """Decode a payload written by :meth:`to_dict`; validates the type tag."""
        if data.get("type") != "AllocationRobustness":
            raise ValidationError(
                f"expected type 'AllocationRobustness', got {data.get('type')!r}"
            )
        return cls(
            value=decode_float(data["value"]),
            radii=decode_array(data["radii"]),
            critical_machine=int(data["critical_machine"]),
            makespan=decode_float(data["makespan"]),
            tau=decode_float(data["tau"]),
        )


def robustness_radii(
    mapping: Mapping, etc: np.ndarray, tau: float, *, norm: Norm | str | None = None
) -> np.ndarray:
    """Per-machine robustness radii ``r_mu(F_j, C)`` (Eq. 6).

    ``tau`` is the makespan tolerance factor (Section 3.1: "actual makespan
    ... no more than ``tau`` times its predicted value"; the experiments use
    1.2).  Machines with no applications get ``inf``.

    With the default l2 norm this is exactly Eq. 6's
    ``(tau M_orig - F_j) / sqrt(n(m_j))``; any other
    :class:`~repro.core.norms.Norm` generalizes the denominator to the dual
    norm of the machine's 0/1 indicator row (Eq. 5's point-to-hyperplane
    distance under that norm).
    """
    tau = check_positive(tau, "tau")
    norm = get_norm(norm)
    f = finishing_times(mapping, etc)
    m_orig = float(f.max())
    counts = mapping.counts()
    if isinstance(norm, L2Norm):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                counts > 0,
                (tau * m_orig - f) / np.sqrt(np.maximum(counts, 1)),
                np.inf,
            )
    indicator = mapping.indicator_matrix()
    duals = np.array([norm.dual(row) for row in indicator])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            counts > 0, (tau * m_orig - f) / np.maximum(duals, 1e-300), np.inf
        )


def robustness(
    mapping: Mapping,
    etc: np.ndarray,
    tau: float,
    *,
    norm: Norm | str | None = None,
    config: SolverConfig | dict | None = None,
    require_feasible: bool = False,
    solver_options: dict | None = None,
) -> AllocationRobustness:
    """The robustness metric ``rho_mu(Phi, C)`` of a mapping (Eq. 7).

    This entry point shares the unified keyword signature of
    :func:`repro.hiperd.robustness.robustness` (``norm=``, ``config=``,
    ``require_feasible=``) so callers — in particular the batched
    :class:`~repro.engine.RobustnessEngine` — can dispatch to either example
    system without special-casing.

    Parameters
    ----------
    norm:
        Perturbation norm (default l2, the paper's choice).
    config:
        :class:`~repro.core.config.SolverConfig`; accepted for signature
        uniformity (the closed form needs no solver knobs).  A plain dict is
        accepted with a ``DeprecationWarning``.
    require_feasible:
        Raise :class:`~repro.exceptions.InfeasibleAtOriginError` when some
        machine already violates the makespan bound at ``C_orig`` (possible
        only for ``tau < 1``) instead of returning a negative value.
    solver_options:
        Removed after its deprecation cycle; any value raises
        :class:`~repro.exceptions.ValidationError`.
    """
    with obs_trace.maybe_span("alloc.robustness", n_machines=mapping.n_machines):
        resolve_config(config, solver_options)  # dict shim + validation
        radii = robustness_radii(mapping, etc, tau, norm=norm)
        j = int(np.argmin(radii))
        if require_feasible and radii[j] < 0:
            raise InfeasibleAtOriginError(
                f"machine {j} violates the makespan bound at C_orig "
                f"(radius {radii[j]:g} < 0)"
            )
        return AllocationRobustness(
            value=float(radii[j]),
            radii=radii,
            critical_machine=j,
            makespan=makespan(mapping, etc),
            tau=float(tau),
        )


def critical_machine(mapping: Mapping, etc: np.ndarray, tau: float) -> int:
    """Machine whose finishing-time radius is smallest (the argmin of Eq. 7)."""
    return int(np.argmin(robustness_radii(mapping, etc, tau)))


def boundary_etc_vector(mapping: Mapping, etc: np.ndarray, tau: float) -> np.ndarray:
    """The minimizing actual-time vector ``C*`` of Eq. 5 for the binding machine.

    Per the paper's observations (1) and (2) in Section 3.1, ``C*`` equals
    ``C_orig`` except on the critical machine, where every application's time
    grows by the same amount ``r / sqrt(n(m_j))`` (the orthogonal projection
    onto the boundary hyperplane).
    """
    rad = robustness_radii(mapping, etc, tau)
    j = int(np.argmin(rad))
    r = rad[j]
    if not np.isfinite(r):
        raise ValidationError("binding radius is not finite; no boundary point")
    c_star = mapping.executed_times(etc).astype(float)
    on_j = mapping.tasks_on(j)
    c_star[on_j] += r / np.sqrt(on_j.size)
    return c_star


def _eq6_terms(
    assignments: np.ndarray, etc: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tau-free parts of Eq. 6: finishing times ``F``, ``M_orig`` and the
    per-machine application counts ``n``, all ``(n_mappings, ...)``."""
    f = batch_finishing_times(assignments, etc)  # (n_map, n_machines)
    m_orig = f.max(axis=1, keepdims=True)
    n_map, n_tasks = np.asarray(assignments).shape
    counts = np.zeros_like(f)
    np.add.at(
        counts,
        (np.repeat(np.arange(n_map), n_tasks), np.asarray(assignments).ravel()),
        1.0,
    )
    return f, m_orig, counts


def _eq6_radii(tau, f: np.ndarray, m_orig: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Eq. 6, ``(tau M_orig - F_j) / sqrt(n_j)``; ``tau`` may carry leading axes."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            counts > 0, (tau * m_orig - f) / np.sqrt(np.maximum(counts, 1)), np.inf
        )


def batch_robustness_radii(assignments: np.ndarray, etc: np.ndarray, tau: float) -> np.ndarray:
    """Vectorized Eq. 6 over an ``(n_mappings, n_tasks)`` assignment matrix.

    Returns the full ``(n_mappings, n_machines)`` radii matrix — one row per
    mapping, ``inf`` for empty machines.  This is the kernel behind
    :func:`batch_robustness` and the allocation path of
    :class:`~repro.engine.RobustnessEngine`; it replaces ``P * m`` scalar
    solver calls with a handful of array operations.
    """
    tau = check_positive(tau, "tau")
    return _eq6_radii(tau, *_eq6_terms(assignments, etc))


def batch_robustness_curve(assignments: np.ndarray, etc: np.ndarray, taus) -> np.ndarray:
    """Eq. 7 for every mapping at every tolerance factor, shape ``(T, n_mappings)``.

    Eq. 6 is affine in ``tau``, so ``F``, ``M_orig`` and the counts are
    computed once and the ``(T, n_mappings, n_machines)`` radii are one
    broadcast; row ``t`` is bit-equal to
    ``batch_robustness(assignments, etc, taus[t])``.
    """
    taus = np.array([check_positive(t, "tau") for t in taus], dtype=float)
    radii = _eq6_radii(taus[:, None, None], *_eq6_terms(assignments, etc))
    return radii.min(axis=2)


def batch_robustness(assignments: np.ndarray, etc: np.ndarray, tau: float) -> np.ndarray:
    """Vectorized Eq. 7 over an ``(n_mappings, n_tasks)`` assignment matrix.

    Returns the robustness value of each mapping.  This is the hot path of
    the Figure 3 experiment: all 1000 mappings are evaluated with a handful
    of array operations.
    """
    return batch_robustness_radii(assignments, etc, tau).min(axis=1)


def weighted_robustness_radii(
    mapping: Mapping, etc: np.ndarray, tau: float, weights
) -> np.ndarray:
    """Per-machine radii under a *weighted* l2 error norm (extension).

    ``weights`` assigns each application an error scale ``w_i > 0``; the
    perturbation size is ``sqrt(sum_i w_i (C_i - C_i_orig)^2)``, modeling
    estimates of unequal reliability (a large ``w_i`` penalizes errors on
    ``a_i``, e.g. a well-profiled application).  The hyperplane distance uses
    the dual norm, generalizing Eq. 6 to

        r_j = (tau M_orig - F_j) / sqrt(sum_{i on m_j} 1 / w_i)

    which reduces to Eq. 6 when all weights are 1.  Cross-checked against the
    generic framework with :class:`~repro.core.norms.WeightedL2Norm` in the
    tests.
    """
    tau = check_positive(tau, "tau")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (mapping.n_tasks,) or np.any(weights <= 0):
        raise ValidationError("weights must be positive, one per application")
    f = finishing_times(mapping, etc)
    m_orig = float(f.max())
    inv = np.bincount(
        mapping.assignment, weights=1.0 / weights, minlength=mapping.n_machines
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        radii = np.where(inv > 0, (tau * m_orig - f) / np.sqrt(np.maximum(inv, 1e-300)), np.inf)
    return radii


def fepia_analysis(mapping: Mapping, etc: np.ndarray, tau: float) -> MetricResult:
    """Derive the same metric through the generic FePIA framework.

    Builds the feature set ``Phi = {F_j}`` with affine impacts (the rows of
    the mapping's indicator matrix) bounded by ``tau * M_orig``, and the
    perturbation parameter ``C`` anchored at ``C_orig``.  Used to cross-check
    the closed form (and as the reference implementation for derived/extended
    analyses, e.g. non-l2 norms).
    """
    tau = check_positive(tau, "tau")
    m_orig = makespan(mapping, etc)
    c_orig = mapping.executed_times(etc)
    analysis = FePIAAnalysis("independent-allocation").with_perturbation("C", c_orig)
    indicator = mapping.indicator_matrix()
    for j in range(mapping.n_machines):
        if indicator[j].sum() == 0:
            continue  # empty machine: constant feature, infinite radius
        analysis.add_feature(
            f"F_{j}", impact=indicator[j], upper=tau * m_orig, meta={"machine": j}
        )
    return analysis.analyze()
