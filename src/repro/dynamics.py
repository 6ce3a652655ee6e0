"""Dynamic load drift, online monitoring and adaptive remapping.

The paper's motivation is *dynamic* distributed systems: loads drift away
from the assumed operating point, and the robustness metric quantifies how
much drift a mapping absorbs before a QoS violation.  This module closes the
loop:

- :func:`random_walk_loads` — a seeded sensor-load trajectory (random walk
  with optional drift, clipped non-negative);
- :func:`monitor` — evaluate robustness and slack along the trajectory and
  locate the first violation.  The defining guarantee holds pointwise: no
  violation can occur while the Euclidean displacement from the anchor stays
  below the anchor's (unfloored) robustness;
- :func:`adaptive_remap` — a threshold policy: whenever the current
  mapping's remaining robustness (re-anchored at the live load) falls below
  a threshold, search a batch of candidate mappings and switch to the most
  robust one.  The E2-style systems show the policy sustaining QoS far
  longer than a static mapping (tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alloc.mapping import Mapping
from repro.core.solvers.analytic import signed_distances
from repro.hiperd.constraints import build_constraints
from repro.hiperd.model import HiperDSystem
from repro.hiperd.robustness import robustness
from repro.hiperd.slack import slack_from_constraints
from repro.utils.rng import ensure_rng
from repro.utils.validation import as_1d_float_array, check_positive_int

__all__ = [
    "random_walk_loads",
    "MonitorResult",
    "monitor",
    "RemapEvent",
    "AdaptiveRunResult",
    "adaptive_remap",
]


def random_walk_loads(
    load0,
    n_steps: int,
    *,
    step_scale: float = 10.0,
    drift=None,
    seed=None,
) -> np.ndarray:
    """A sensor-load trajectory: Gaussian random walk plus optional drift.

    Returns an ``(n_steps + 1, n_sensors)`` array whose first row is
    ``load0``; loads are clipped at zero (objects per data set cannot be
    negative).
    """
    load0 = as_1d_float_array(load0, "load0")
    n_steps = check_positive_int(n_steps, "n_steps")
    rng = ensure_rng(seed)
    drift_vec = (
        np.zeros_like(load0) if drift is None else as_1d_float_array(drift, "drift")
    )
    if drift_vec.shape != load0.shape:
        raise ValueError("drift must have one entry per sensor")
    steps = rng.normal(scale=step_scale, size=(n_steps, load0.size)) + drift_vec
    traj = np.vstack([load0, load0 + np.cumsum(steps, axis=0)])
    return np.maximum(traj, 0.0)


@dataclass(frozen=True)
class MonitorResult:
    """Per-step telemetry of a mapping under a load trajectory."""

    loads: np.ndarray
    #: unfloored robustness re-anchored at each step's load
    robustness: np.ndarray
    #: system-wide slack at each step
    slack: np.ndarray
    #: per-step QoS violation flag
    violated: np.ndarray
    #: first violating step index, or -1 if none
    first_violation: int
    #: the anchor robustness (at loads[0])
    anchor_robustness: float


def monitor(system: HiperDSystem, mapping: Mapping, loads) -> MonitorResult:
    """Evaluate robustness/slack/violation along a load trajectory.

    The constraint set depends only on the mapping, so it is built once and
    evaluated vectorially over all steps.
    """
    loads = np.asarray(loads, dtype=float)
    if loads.ndim != 2 or loads.shape[1] != system.n_sensors:
        raise ValueError(f"loads must be (n_steps, {system.n_sensors})")
    cs = build_constraints(system, mapping)
    values = loads @ cs.coefficients.T  # (n_steps, n_constraints)
    frac = values / cs.limits
    slack = 1.0 - frac.max(axis=1)
    violated = slack < 0
    norms = np.linalg.norm(cs.coefficients, axis=1)
    rho = signed_distances(cs.limits[None, :] - values, norms).min(axis=1)
    first = int(np.argmax(violated)) if violated.any() else -1
    return MonitorResult(
        loads=loads,
        robustness=rho,
        slack=slack,
        violated=violated,
        first_violation=first,
        anchor_robustness=float(rho[0]),
    )


@dataclass(frozen=True)
class RemapEvent:
    """One remapping decision."""

    step: int
    old_robustness: float
    new_robustness: float


@dataclass(frozen=True)
class AdaptiveRunResult:
    """Outcome of the threshold remapping policy over a trajectory."""

    robustness: np.ndarray
    violated: np.ndarray
    events: tuple[RemapEvent, ...]
    final_mapping: Mapping

    @property
    def violation_steps(self) -> int:
        return int(self.violated.sum())


def adaptive_remap(
    system: HiperDSystem,
    initial_mapping: Mapping,
    loads,
    *,
    threshold: float,
    n_candidates: int = 64,
    seed=None,
) -> AdaptiveRunResult:
    """Threshold policy: remap whenever remaining robustness drops below
    ``threshold``.

    Candidates are uniform random mappings (plus the incumbent); the most
    robust at the live load wins.  A production system would use the
    robustness-aware heuristics in :mod:`repro.alloc.heuristics`; random
    search keeps this policy self-contained and still demonstrates the
    value of monitoring the metric online.
    """
    loads = np.asarray(loads, dtype=float)
    rng = ensure_rng(seed)
    mapping = initial_mapping
    rho_t = np.empty(loads.shape[0])
    violated = np.empty(loads.shape[0], dtype=bool)
    events: list[RemapEvent] = []
    for t in range(loads.shape[0]):
        res = robustness(system, mapping, loads[t], apply_floor=False)
        rho_t[t] = res.raw_value
        violated[t] = not res.feasible_at_origin
        if res.raw_value < threshold:
            best_rho = res.raw_value
            best_map = mapping
            for _ in range(n_candidates):
                cand = Mapping(
                    rng.integers(0, system.n_machines, size=system.n_apps),
                    system.n_machines,
                )
                cand_res = robustness(system, cand, loads[t], apply_floor=False)
                if cand_res.raw_value > best_rho:
                    best_rho = cand_res.raw_value
                    best_map = cand
            if best_map is not mapping:
                events.append(
                    RemapEvent(
                        step=t,
                        old_robustness=float(res.raw_value),
                        new_robustness=float(best_rho),
                    )
                )
                mapping = best_map
                rho_t[t] = best_rho
                violated[t] = best_rho < 0
    return AdaptiveRunResult(
        robustness=rho_t,
        violated=violated,
        events=tuple(events),
        final_mapping=mapping,
    )
