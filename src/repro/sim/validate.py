"""Empirical validation of the allocation robustness metric via simulation.

For a mapping with robustness ``rho`` (Eq. 7), the guarantee is: any actual
computation-time vector within Euclidean distance ``rho`` of the estimates
produces a makespan of at most ``tau * M_orig``.  This module samples error
vectors inside the ball (must all pass), simulates the boundary vector
``C*`` (must sit exactly on ``tau * M_orig``), and steps just beyond it
(must violate) — closing the loop between the closed-form geometry and an
actual execution.  The error vectors come from the one batched sampler,
:func:`~repro.core.solvers.montecarlo.sample_ball`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alloc.mapping import Mapping
from repro.alloc.robustness import boundary_etc_vector, robustness
from repro.core.solvers.montecarlo import sample_ball
from repro.sim.tasksim import simulate_mapping
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int

__all__ = ["MakespanValidation", "validate_allocation_robustness"]


@dataclass(frozen=True)
class MakespanValidation:
    """Report of a simulation-based robustness validation."""

    robustness: float
    tau: float
    makespan_orig: float
    n_samples: int
    #: simulated makespans of the interior samples
    interior_makespans: np.ndarray
    #: count of interior samples that violated tau * M_orig (0 for soundness)
    interior_violations: int
    #: simulated makespan at the boundary vector C*
    boundary_makespan: float
    #: simulated makespan just beyond the boundary
    beyond_makespan: float
    sound: bool
    tight: bool


def validate_allocation_robustness(
    mapping: Mapping,
    etc,
    tau: float,
    *,
    n_samples: int = 200,
    seed: "int | None | np.random.Generator" = 0,
    slack: float = 1e-9,
) -> MakespanValidation:
    """Simulate perturbed executions to validate the Eq. 7 metric.

    Samples ``n_samples`` error vectors with l2 norm up to
    ``rho * (1 - slack)`` (negative errors clipped so actual times stay
    non-negative — clipping only shrinks the perturbation norm, preserving
    the guarantee), simulates each, and checks the makespan.  Then simulates
    the boundary vector and a point just beyond it.

    Every stochastic choice draws from the single ``seed``-derived
    generator, so the report is deterministic by default (``seed=0``); pass
    ``None`` explicitly to opt into fresh entropy.
    """
    n_samples = check_positive_int(n_samples, "n_samples")
    rng = ensure_rng(seed)
    etc = np.asarray(etc, dtype=float)
    res = robustness(mapping, etc, tau)
    c_orig = mapping.executed_times(etc)
    limit = res.tau * res.makespan

    deltas = sample_ball(rng, n_samples, mapping.n_tasks, res.value * (1.0 - slack))
    # The simulator is what this module validates, so each row runs through it.
    interior = np.array(
        [simulate_mapping(mapping, c).makespan for c in np.maximum(c_orig + deltas, 0.0)]
    )
    violations = int(np.count_nonzero(interior > limit * (1 + 1e-12)))

    c_star = boundary_etc_vector(mapping, etc, tau)
    boundary_ms = simulate_mapping(mapping, np.maximum(c_star, 0.0)).makespan
    # Step slightly beyond the boundary along the binding direction.
    direction = c_star - c_orig
    nrm = np.linalg.norm(direction)
    if nrm > 0:
        beyond = np.maximum(c_orig + direction * (1.0 + 1e-6), 0.0)
    else:  # zero radius: any increase on the critical machine violates
        beyond = c_orig.copy()
        beyond[mapping.tasks_on(res.critical_machine)] += 1e-9
    beyond_ms = simulate_mapping(mapping, beyond).makespan

    sound = violations == 0
    tight = bool(
        np.isclose(boundary_ms, limit, rtol=1e-9) and beyond_ms > limit * (1 - 1e-12)
    )
    return MakespanValidation(
        robustness=res.value,
        tau=res.tau,
        makespan_orig=res.makespan,
        n_samples=n_samples,
        interior_makespans=interior,
        interior_violations=violations,
        boundary_makespan=float(boundary_ms),
        beyond_makespan=float(beyond_ms),
        sound=sound,
        tight=tight,
    )
