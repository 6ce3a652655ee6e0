"""Handling of discrete perturbation parameters.

Step 4 of the FePIA procedure notes that when ``pi_j`` is discrete, "the
boundary values correspond to the closest values that bracket each boundary
relationship".  Section 3.2 uses the pragmatic alternative for the sensor
loads: treat the parameter continuously and take the floor of the final
metric (the number of possible discrete values is infinite).  Both tools are
provided here:

- :func:`floor_radii` / :func:`floor_radius` — the Section 3.2 flooring of
  continuous radii (array / scalar).
- :func:`bracket_boundary_1d` — the step-4 bracketing for a scalar discrete
  parameter: the two closest integers around the boundary crossing.
- :func:`lattice_radius` — exact smallest-integer-displacement radius for an
  affine constraint on a small integer lattice (exhaustive ball search),
  useful for validating the flooring approximation in tests.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable

import numpy as np

from repro.core.impact import AffineImpact
from repro.exceptions import SolverError, ValidationError

__all__ = ["floor_radii", "floor_radius", "bracket_boundary_1d", "lattice_radius"]


def floor_radii(radii: np.ndarray | float) -> np.ndarray:
    """Floor continuous radii for an integer-valued parameter, elementwise.

    Follows Section 3.2: "because rho should not have fractional values, one
    can take the floor of the right hand side in Equation 11."  Negative radii
    (already-violated bounds) are floored toward zero magnitude (ceil) so the
    reported violation distance is not exaggerated; infinities and NaN pass
    through.
    """
    radii = np.asarray(radii, dtype=float)
    with np.errstate(invalid="ignore"):
        # Snap values within float-roundoff of an integer (round half to
        # even) before flooring, so a radius that is mathematically integral
        # (common for calibrated systems) is not knocked down by an epsilon.
        nearest = np.round(radii)
        snapped = np.where(
            np.abs(radii - nearest) <= 1e-9 * np.maximum(1.0, np.abs(radii)),
            nearest,
            radii,
        )
        floored = np.where(snapped >= 0, np.floor(snapped), np.ceil(snapped)) + 0.0
    return np.where(np.isfinite(radii), floored, radii)


def floor_radius(radius: float) -> float:
    """Scalar :func:`floor_radii`: the Section 3.2 floor of one radius."""
    return float(floor_radii(radius))


def bracket_boundary_1d(
    func: Callable[[float], float],
    beta: float,
    origin: int,
    *,
    direction: int = 1,
    max_steps: int = 10_000_000,
) -> tuple[int, int]:
    """Bracket the boundary ``func(x) = beta`` with consecutive integers.

    Walks from ``origin`` in ``direction`` (+1/-1) until ``func`` crosses
    ``beta``; returns ``(inside, outside)`` — the last integer on the origin
    side of the boundary and the first one beyond it.  Uses geometric stride
    doubling followed by bisection, so the cost is logarithmic in the
    crossing distance.

    Raises
    ------
    SolverError
        If no crossing is found within ``max_steps`` of the origin.
    """
    if direction not in (1, -1):
        raise ValidationError("direction must be +1 or -1")
    origin = int(origin)
    f0 = float(func(origin))
    side0 = f0 <= beta
    # Geometric search for a sign change.
    stride = 1
    prev = origin
    while stride <= max_steps:
        cand = origin + direction * stride
        if (float(func(cand)) <= beta) != side0:
            break
        prev = cand
        stride *= 2
    else:
        raise SolverError(
            f"no boundary crossing within {max_steps} steps from {origin} "
            f"in direction {direction:+d}"
        )
    lo, hi = prev, origin + direction * stride
    # Bisect (lo on origin side, hi beyond).
    while abs(hi - lo) > 1:
        mid = (lo + hi) // 2
        if (float(func(mid)) <= beta) == side0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def lattice_radius(
    impact: AffineImpact,
    beta: float,
    origin: np.ndarray,
    *,
    max_radius: float,
) -> float:
    """Exact minimum l2 length of an *integer* displacement ``delta`` with
    ``impact(origin + delta)`` beyond ``beta`` (upper-bound sense).

    Exhaustively searches the integer ball of radius ``max_radius`` (suitable
    for low dimensions / small radii; used to validate :func:`floor_radius`
    against ground truth in tests).  Returns ``inf`` when no such
    displacement exists within the ball.
    """
    origin = np.asarray(origin, dtype=float)
    n = origin.size
    if n > 4:
        raise ValidationError("lattice_radius is exhaustive; use dimension <= 4")
    if not np.isfinite(max_radius) or max_radius < 0:
        raise ValidationError("max_radius must be finite and non-negative")
    r_int = int(math.floor(max_radius))
    best = np.inf
    rng = range(-r_int, r_int + 1)
    for delta in itertools.product(rng, repeat=n):
        d = np.asarray(delta, dtype=float)
        length = float(np.linalg.norm(d))
        if length > max_radius or length >= best or length == 0.0:
            continue
        if impact(origin + d) > beta:
            best = length
    return best
