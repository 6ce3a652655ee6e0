"""Closed-form robustness radii for affine impact functions.

For an affine impact ``f(pi) = c . pi + b`` the boundary set
``{pi : f(pi) = beta}`` is the hyperplane ``{pi : c . pi = beta - b}``, and
the minimum-norm displacement from ``pi_orig`` to it is the classic
point-to-plane distance (paper Eq. 5 -> Eq. 6, citing [23]):

    distance = (beta - f(pi_orig)) / ||c||_*      (signed)

where ``||.||_*`` is the dual of the perturbation norm (for the paper's l2,
the dual is l2 itself, recovering Eq. 6's ``1/sqrt(#applications)`` factor
for 0/1 coefficient vectors).  The sign is positive while the origin is on
the robust side of the bound, negative once the bound is already violated —
so the metric "degenerates gracefully" for infeasible mappings instead of
raising.
"""

from __future__ import annotations

import numpy as np

from repro.core.boundary import Bound, BoundaryRelation
from repro.core.features import PerformanceFeature
from repro.core.impact import AffineImpact
from repro.core.norms import Norm, get_norm
from repro.exceptions import ValidationError

__all__ = [
    "affine_boundary_distance",
    "affine_radius",
    "batch_hyperplane_distances",
    "signed_distances",
]


def affine_boundary_distance(
    relation: BoundaryRelation,
    origin: np.ndarray,
    norm: Norm | str | None = None,
) -> tuple[float, np.ndarray | None]:
    """Signed distance from ``origin`` to one affine boundary relationship.

    Returns ``(distance, boundary_point)``.  ``distance`` is signed as
    described in the module docstring; ``boundary_point`` is the minimizing
    ``pi*`` on the boundary (``None`` when the boundary set is empty, i.e.
    the impact is constant and never meets ``beta`` — distance ``+/-inf``).
    """
    impact = relation.feature.impact
    if not isinstance(impact, AffineImpact):
        raise ValidationError(
            "analytic solver requires an AffineImpact; use boundary_min_norm instead"
        )
    norm = get_norm(norm)
    origin = np.asarray(origin, dtype=float)
    c = impact.coefficients
    # Hyperplane c . pi = beta - intercept
    d = relation.beta - impact.intercept
    dual = norm.dual(c)
    gap = relation.value_gap(origin)  # positive on the robust side
    if dual == 0.0:
        # Constant impact: boundary set empty unless the constant equals beta.
        if relation.residual(origin) == 0.0:
            return 0.0, origin.copy()
        return (np.inf if gap > 0 else -np.inf), None
    distance = gap / dual
    point = norm.closest_point_on_hyperplane(c, d, origin)
    return float(distance), point


def affine_radius(
    feature: PerformanceFeature,
    origin: np.ndarray,
    norm: Norm | str | None = None,
) -> tuple[float, np.ndarray | None, str | None]:
    """Signed robustness radius of an affine-impact feature (Eq. 1, affine case).

    Takes the minimum signed distance over the feature's finite bounds.

    Returns ``(radius, boundary_point, binding_bound)`` where
    ``binding_bound`` is ``"lower"``/``"upper"`` (``None`` when the feature
    has no finite bound that its impact can reach — radius ``inf``).
    """
    from repro.core.boundary import boundary_relations

    best: float = np.inf
    best_point: np.ndarray | None = None
    best_bound: str | None = None
    for rel in boundary_relations(feature):
        dist, point = affine_boundary_distance(rel, origin, norm)
        if dist < best:
            best, best_point, best_bound = dist, point, rel.bound
    if best_bound is None and best == np.inf:
        return np.inf, None, None
    return float(best), best_point, best_bound


def batch_hyperplane_distances(
    coefficients: np.ndarray,
    limits: np.ndarray,
    origin: np.ndarray,
) -> np.ndarray:
    """Vectorized signed l2 distances for many upper-bound hyperplanes.

    Parameters
    ----------
    coefficients:
        Array of shape ``(m, n)`` — row ``k`` holds the affine coefficients of
        constraint ``k`` (intercepts must already be folded into ``limits``).
    limits:
        Length-``m`` upper bounds ``beta_k``.
    origin:
        The operating point ``pi_orig`` (length ``n``).

    Returns
    -------
    Signed distances of shape ``(m,)``; rows with all-zero coefficients give
    ``+inf`` (never-violated constant constraints) or ``-inf`` (constant
    already above its limit).

    This is the hot path of the 1000-mapping experiments: one matrix-vector
    product instead of ``m`` scalar solves.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    limits = np.asarray(limits, dtype=float)
    origin = np.asarray(origin, dtype=float)
    if coefficients.ndim != 2:
        raise ValidationError("coefficients must be 2-D (m, n)")
    if limits.shape != (coefficients.shape[0],):
        raise ValidationError("limits must have one entry per coefficient row")
    if origin.shape != (coefficients.shape[1],):
        raise ValidationError("origin dimension must match coefficient columns")
    gaps = limits - coefficients @ origin
    return signed_distances(gaps, np.linalg.norm(coefficients, axis=1))


def signed_distances(gaps: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``gaps / norms`` elementwise, for rows ``beta - c . pi_orig`` with
    (dual) normal norms; a zero-normal row is constant: ``+inf`` below its
    limit, ``-inf`` above it, ``0`` on it."""
    degenerate = np.where(gaps > 0, np.inf, np.where(gaps < 0, -np.inf, 0.0))
    return np.where(norms > 0, gaps / np.where(norms > 0, norms, 1.0), degenerate)
