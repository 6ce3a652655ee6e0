"""Monte-Carlo estimation and empirical validation of robustness radii.

The robustness radius has an operational meaning (Section 2): *no*
perturbation of norm at most ``r`` may push any feature outside its bounds.
Every sampling check in the library (here, :mod:`repro.faults.validate` and
:mod:`repro.sim.validate`) draws from one batched sampler —
:func:`sample_directions`, :func:`sample_ball` and :func:`ray_crossings`,
which bisects every ray at once.  This module provides

- :func:`estimate_radius_mc` — a sampling estimator of the radius: the minimum
  crossing over random directions from ``pi_orig``.  For star-shaped robust
  regions (all convex regions qualify) this converges to the true radius from
  above as the number of directions grows.
- :func:`validate_radius` — empirical verification that a *claimed* radius is
  sound (no sampled perturbation strictly inside the ball violates any
  feature) and tight (some perturbation of norm ``r (1 + tol)`` violates, if
  a violating boundary point is supplied or can be found by ray search).

These are the basis of the E4 validation benchmark (see DESIGN.md): the
closed-form Eq. 6 radii are checked against brute-force perturbation
sampling.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.features import FeatureSet
from repro.core.norms import Norm, get_norm
from repro.exceptions import ValidationError
from repro.utils.rng import ensure_rng

__all__ = [
    "sample_directions",
    "sample_ball",
    "ray_crossings",
    "estimate_radius_mc",
    "validate_radius",
    "RadiusValidation",
]

#: rows drawn at a time where the sample count is unbounded (``certify`` with
#: a tiny ``eps`` asks for millions), so memory stays bounded
SAMPLE_CHUNK = 4096


def sample_directions(
    rng: np.random.Generator, n: int, dim: int, norm: Norm | str | None = None
) -> np.ndarray:
    """``(n, dim)`` matrix of random unit directions in ``norm``.

    Gaussian rows are normalized in l2, then rescaled to unit ``norm`` size,
    so a scale along a row is a perturbation size in that norm.  The first
    ``k`` rows of a seeded draw equal a seeded draw of ``k`` rows.
    """
    d = rng.standard_normal((n, dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d / get_norm(norm).rows(d)[:, None]


def sample_ball(
    rng: np.random.Generator, n: int, dim: int, radius: float, norm: Norm | str | None = None
) -> np.ndarray:
    """``(n, dim)`` perturbations strictly inside the ``norm`` ball: directions
    times ``radius * u**(1/dim)``, ``u ~ U[0, 1)``, so the whole interior is
    exercised, not just the shell."""
    d = sample_directions(rng, n, dim, norm)
    return d * (radius * rng.random(n) ** (1.0 / dim))[:, None]


def ray_crossings(
    satisfied: Callable[[np.ndarray], np.ndarray],
    origin: np.ndarray,
    directions: np.ndarray,
    *,
    max_scale: float,
    tol: float,
) -> np.ndarray:
    """Distance along each row of ``directions`` at which ``satisfied`` (a
    ``(k, dim)`` -> ``(k,)`` bool map) first fails; ``inf`` if not by ``max_scale``.

    All rays double the scale ``1, 2, 4, ...`` together, then bisect until the
    bracket is ``tol * max(1, hi)`` wide; finished rays leave the active set.
    Returns ``hi``, the *violating* end of each bracket: never below the true
    crossing, so the Monte-Carlo estimate stays an over-estimate for tiny radii.
    ``tol`` must be positive and finite, or the bisection would never stop.
    """
    if not (tol > 0 and np.isfinite(tol)):
        raise ValidationError(f"tol must be positive and finite, got {tol!r}")
    origin = np.asarray(origin, dtype=float)
    directions = np.asarray(directions, dtype=float)
    lo = np.zeros(directions.shape[0])
    hi = np.full(directions.shape[0], np.inf)
    active = np.arange(directions.shape[0])
    scale = 1.0
    while scale <= max_scale and active.size:
        ok = satisfied(origin + scale * directions[active])
        hi[active[~ok]] = scale
        lo[active[ok]] = scale
        active = active[ok]
        scale *= 2.0
    active = np.flatnonzero(np.isfinite(hi))
    while True:
        active = active[hi[active] - lo[active] > tol * np.maximum(1.0, hi[active])]
        if not active.size:
            return hi
        mid = 0.5 * (lo[active] + hi[active])
        ok = satisfied(origin + mid[:, None] * directions[active])
        lo[active[ok]] = mid[ok]
        hi[active[~ok]] = mid[~ok]


def estimate_radius_mc(
    features: FeatureSet,
    origin: np.ndarray,
    *,
    n_directions: int = 256,
    norm: Norm | str | None = None,
    seed: int | np.random.Generator | None = None,
    max_scale: float = 1e9,
    tol: float = 1e-9,
) -> float:
    """Estimate the robustness radius by random ray search.

    Always an *over*-estimate of the true radius for star-shaped robust
    regions (it can only miss the worst direction, never find a
    better-than-possible one), so tests assert ``estimate >= exact`` and
    convergence from above.
    """
    origin = np.asarray(origin, dtype=float)
    if origin.ndim != 1:
        raise ValidationError("origin must be a vector")
    if not features.all_satisfied_at(origin):
        raise ValidationError(
            "origin violates the robustness requirement; MC estimation assumes "
            "a feasible starting point"
        )
    directions = sample_directions(ensure_rng(seed), n_directions, origin.size, norm)
    crossings = ray_crossings(
        features.satisfied_rows, origin, directions, max_scale=max_scale, tol=tol
    )
    return float(crossings.min(initial=np.inf))


@dataclass(frozen=True)
class RadiusValidation:
    """Report of an empirical radius validation."""

    radius: float
    n_samples: int
    #: number of sampled interior perturbations (all must be violation-free)
    interior_violations: int
    #: smallest ray-crossing distance found (>= radius for a sound radius)
    min_crossing: float
    sound: bool
    tight: bool


def validate_radius(
    features: FeatureSet,
    origin: np.ndarray,
    radius: float,
    *,
    n_samples: int = 512,
    norm: Norm | str | None = None,
    seed: int | np.random.Generator | None = None,
    slack: float = 1e-9,
    tightness_factor: float = 1.05,
    boundary_point: np.ndarray | None = None,
) -> RadiusValidation:
    """Empirically validate a claimed robustness radius.

    Soundness: samples ``n_samples`` perturbations with norm strictly below
    ``radius`` — none may violate any feature.  Tightness: either a known
    ``boundary_point`` (the minimizing ``pi*`` from a solver) demonstrates a
    crossing at distance ``~radius`` along its direction, or ray search must
    find a crossing at distance at most ``radius * tightness_factor`` in some
    sampled direction (so the claimed radius is not a gross under-estimate —
    with random directions only, this may require many samples in high
    dimension).
    """
    norm = get_norm(norm)
    origin = np.asarray(origin, dtype=float)
    radius = float(radius)
    if radius < 0 or not np.isfinite(radius):
        raise ValidationError(f"radius must be finite and non-negative, got {radius}")
    rng = ensure_rng(seed)
    satisfied = features.satisfied_rows
    min_crossing = np.inf
    if boundary_point is not None:
        disp = np.asarray(boundary_point, dtype=float) - origin
        size = norm(disp)
        if size > 0:
            (min_crossing,) = ray_crossings(
                satisfied, origin, [disp / size], max_scale=max(size * 16.0, 1.0), tol=1e-9
            )
    interior = origin + sample_ball(rng, n_samples, origin.size, radius * (1.0 - slack), norm)
    interior_violations = int(np.count_nonzero(~satisfied(interior)))
    directions = sample_directions(rng, n_samples, origin.size, norm)
    crossings = ray_crossings(
        satisfied, origin, directions, max_scale=max(radius * 16.0, 1.0), tol=1e-9
    )
    min_crossing = min(min_crossing, crossings.min(initial=np.inf))
    return RadiusValidation(
        radius=radius,
        n_samples=n_samples,
        interior_violations=interior_violations,
        min_crossing=float(min_crossing),
        sound=interior_violations == 0,
        tight=bool(min_crossing <= radius * tightness_factor),
    )
