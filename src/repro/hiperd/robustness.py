"""Robustness of a HiPer-D mapping against sensor-load increases (Eqs. 10-11).

With the linear time model every boundary relationship is a hyperplane in
load space, so each radius in Eq. 10 is a point-to-hyperplane distance from
``lambda_orig`` and the metric (Eq. 11) is their minimum — floored, because
the load is a discrete quantity (objects per data set) treated continuously
(Section 3.2's closing discussion).

Note: Equation 10c in the paper prints a ``max`` operator; the surrounding
text ("the robustness radii in Equations 10b and 10c are the similar
values") and Eq. 1 both define the radius as the *minimum* boundary distance,
so this implementation uses ``min`` (the ``max`` is a typo).

All radii are signed: negative when the mapping already violates a QoS
constraint at ``lambda_orig`` (possible for random mappings), which keeps the
experiment pipelines total.  Use ``require_feasible=True`` to raise instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.alloc.mapping import Mapping
from repro.core.config import SolverConfig, resolve_config
from repro.core.fepia import FePIAAnalysis
from repro.core.metric import MetricResult
from repro.core.norms import L2Norm, Norm, get_norm
from repro.core.solvers.analytic import signed_distances
from repro.core.solvers.discrete import floor_radius
from repro.exceptions import InfeasibleAtOriginError, ValidationError
from repro.hiperd.constraints import ConstraintSet, build_constraints
from repro.hiperd.model import HiperDSystem
from repro.obs import trace as obs_trace
from repro.utils.serialization import decode_array, decode_float, encode_array, encode_float

__all__ = [
    "HiperdRobustness",
    "HyperplaneRows",
    "hyperplane_radii",
    "robustness",
    "boundary_load",
    "fepia_analysis",
]


@dataclass(frozen=True)
class HiperdRobustness:
    """Result of a sensor-load robustness analysis for one mapping."""

    #: floored metric ``rho_mu(Phi, lambda)`` (Eq. 11), objects per data set
    value: float
    #: unfloored minimum radius
    raw_value: float
    #: signed radius per constraint row
    radii: np.ndarray
    #: index (into the constraint set) of the binding constraint
    binding_index: int
    #: name and kind of the binding constraint
    binding_name: str
    binding_kind: str
    #: the constraint set the radii refer to
    constraints: ConstraintSet
    #: boundary load vector ``lambda*`` of the binding constraint
    boundary: np.ndarray
    #: True when all constraints hold at ``lambda_orig``
    feasible_at_origin: bool

    def to_dict(self) -> dict:
        """Encode as a JSON-ready dict (round-trips via :meth:`from_dict`)."""
        return {
            "type": "HiperdRobustness",
            "version": 1,
            "value": encode_float(self.value),
            "raw_value": encode_float(self.raw_value),
            "radii": encode_array(self.radii),
            "binding_index": int(self.binding_index),
            "binding_name": self.binding_name,
            "binding_kind": self.binding_kind,
            "constraints": self.constraints.to_dict(),
            "boundary": encode_array(self.boundary),
            "feasible_at_origin": bool(self.feasible_at_origin),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HiperdRobustness":
        """Decode a payload written by :meth:`to_dict`; validates the type tag."""
        if data.get("type") != "HiperdRobustness":
            raise ValidationError(
                f"expected type 'HiperdRobustness', got {data.get('type')!r}"
            )
        return cls(
            value=decode_float(data["value"]),
            raw_value=decode_float(data["raw_value"]),
            radii=decode_array(data["radii"]),
            binding_index=int(data["binding_index"]),
            binding_name=str(data["binding_name"]),
            binding_kind=str(data["binding_kind"]),
            constraints=ConstraintSet.from_dict(data["constraints"]),
            boundary=decode_array(data["boundary"]),
            feasible_at_origin=bool(data["feasible_at_origin"]),
        )


def robustness(
    system: HiperDSystem,
    mapping: Mapping,
    load_orig,
    *,
    apply_floor: bool = True,
    require_feasible: bool = False,
    norm: Norm | str | None = None,
    config: SolverConfig | dict | None = None,
    solver_options: dict | None = None,
) -> HiperdRobustness:
    """Compute ``rho_mu(Phi, lambda)`` for ``mapping`` anchored at ``load_orig``.

    Shares the unified keyword signature of
    :func:`repro.alloc.robustness.robustness` (``norm=``, ``config=``,
    ``require_feasible=``) so the batched engine can dispatch uniformly.

    Parameters
    ----------
    apply_floor:
        Floor the final metric (the paper's Section 3.2 treatment of the
        discrete load); per-constraint radii stay unfloored.
    require_feasible:
        Raise :class:`InfeasibleAtOriginError` when a constraint is violated
        at ``load_orig`` instead of returning a negative value.
    norm:
        Perturbation norm on load space (default l2, the paper's choice);
        non-l2 norms generalize each hyperplane distance via the dual norm.
    config:
        :class:`~repro.core.config.SolverConfig`; accepted for signature
        uniformity (the linear model needs no solver knobs).  A plain dict is
        accepted with a ``DeprecationWarning``.
    solver_options:
        Removed after its deprecation cycle; any value raises
        :class:`~repro.exceptions.ValidationError`.
    """
    with obs_trace.maybe_span("hiperd.robustness", n_sensors=system.n_sensors):
        return _robustness_impl(
            system,
            mapping,
            load_orig,
            apply_floor=apply_floor,
            require_feasible=require_feasible,
            norm=norm,
            config=config,
            solver_options=solver_options,  # shim forwards to the validating resolver
        )


def _robustness_impl(
    system: HiperDSystem,
    mapping: Mapping,
    load_orig,
    *,
    apply_floor: bool,
    require_feasible: bool,
    norm: Norm | str | None,
    config: SolverConfig | dict | None,
    solver_options: dict | None,
) -> HiperdRobustness:
    resolve_config(config, solver_options)  # dict shim + validation
    norm = get_norm(norm)
    load_orig = np.asarray(load_orig, dtype=float)
    if load_orig.shape != (system.n_sensors,):
        raise ValidationError(
            f"load_orig must have shape ({system.n_sensors},), got {load_orig.shape}"
        )
    cs = build_constraints(system, mapping)
    rows = hyperplane_radii(cs.coefficients[None], cs.limits, load_orig, norm)
    feasible = bool(np.all(rows.values[0] <= cs.limits))
    if require_feasible and not feasible:
        frac = rows.values[0] / cs.limits
        worst = int(np.argmax(frac))
        raise InfeasibleAtOriginError(
            f"constraint {cs.names[worst]} violated at lambda_orig "
            f"(fractional value {frac[worst]:.3f})"
        )
    k = int(rows.binding[0])
    raw = float(rows.raw[0])
    return HiperdRobustness(
        value=floor_radius(raw) if apply_floor else raw,
        raw_value=raw,
        radii=rows.radii[0],
        binding_index=k,
        binding_name=cs.names[k],
        binding_kind=cs.kinds[k],
        constraints=cs,
        boundary=rows.boundaries[0],
        feasible_at_origin=feasible,
    )


class HyperplaneRows(NamedTuple):
    """Eq. 10 over a stack of constraint matrices (see :func:`hyperplane_radii`)."""

    #: ``(P, R)`` left-hand sides at the load
    values: np.ndarray
    #: ``(P, R)`` signed radius of every row
    radii: np.ndarray
    #: ``(P,)`` binding (minimum-radius) row
    binding: np.ndarray
    #: ``(P,)`` minimum radius (Eq. 11, unfloored)
    raw: np.ndarray
    #: ``(P, n_sensors)`` closest boundary load on the binding hyperplane
    boundaries: np.ndarray


def hyperplane_radii(
    coefficients: np.ndarray, limits: np.ndarray, load: np.ndarray, norm: Norm
) -> HyperplaneRows:
    """Signed radii, binding rows and boundary loads of ``P`` constraint sets.

    ``coefficients`` is ``(P, R, n_sensors)`` and ``limits`` ``(R,)``.  Both
    the scalar :func:`robustness` (``P = 1``) and the batched engine run this
    kernel.  Rows with all-zero coefficients are constant: ``+inf`` radius
    below their limit, ``-inf`` above it.  Non-l2 norms divide by the dual
    norm of each row and project with
    :meth:`~repro.core.norms.Norm.closest_point_on_hyperplane` row by row.
    """
    p, r, n = coefficients.shape
    flat = coefficients.reshape(p * r, n)
    values = (flat @ load).reshape(p, r)
    gaps = limits - values
    if isinstance(norm, L2Norm):
        duals = np.linalg.norm(flat, axis=1).reshape(p, r)
    else:
        duals = np.array([norm.dual(row) for row in flat]).reshape(p, r)
    radii = signed_distances(gaps, duals)
    binding = radii.argmin(axis=1)
    mappings = np.arange(p)
    normals = coefficients[mappings, binding]  # (P, n)
    bounds = limits[binding]
    if isinstance(norm, L2Norm):
        # Stacked (1, n) @ (n, 1) products: the same per-row dot as ``c @ c``.
        cc = (normals[:, None, :] @ normals[:, :, None])[:, 0, 0]
        cx = (normals[:, None, :] @ load)[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (bounds - cx) / cc
        boundaries = np.where((cc > 0)[:, None], load + step[:, None] * normals, load)
    else:
        boundaries = np.array(
            [
                norm.closest_point_on_hyperplane(c, float(b), load) if np.any(c != 0) else load
                for c, b in zip(normals, bounds)
            ]
        ).reshape(p, n)
    return HyperplaneRows(values, radii, binding, radii[mappings, binding], boundaries)


def boundary_load(system: HiperDSystem, mapping: Mapping, load_orig) -> np.ndarray:
    """The binding boundary load vector ``lambda*`` (Table 2's
    ``lambda_1*, lambda_2*, lambda_3*`` row)."""
    return robustness(system, mapping, load_orig, apply_floor=False).boundary


def fepia_analysis(
    system: HiperDSystem, mapping: Mapping, load_orig
) -> MetricResult:
    """Derive the same metric through the generic FePIA framework.

    Builds one affine feature per constraint row of Eq. 9 and analyzes; used
    as a cross-check of the vectorized fast path (and the extension point
    for nonlinear complexity functions — swap the affine impacts for
    :class:`~repro.core.impact.CallableImpact` and the numeric solver takes
    over).
    """
    cs = build_constraints(system, mapping)
    analysis = FePIAAnalysis("hiperd").with_perturbation(
        "lambda",
        np.asarray(load_orig, dtype=float),
        discrete=True,
        component_names=[s.name for s in system.sensors],
    )
    for name, coeff, limit, kind in zip(cs.names, cs.coefficients, cs.limits, cs.kinds):
        analysis.add_feature(name, impact=coeff, upper=float(limit), meta={"kind": kind})
    return analysis.analyze()
