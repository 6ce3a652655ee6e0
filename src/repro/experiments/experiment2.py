"""Experiment 2 (paper Section 4.3 / Figure 4 / Table 2): HiPer-D.

A generated Section-4.3 system (19 paths, 3 sensors, 20 applications, 5
machines), 1000 random mappings, each evaluated for robustness (Eq. 11) and
system-wide percentage slack at the initial loads (962, 380, 240).

Helpers reproduce the paper's two headline observations:

- :func:`find_ab_pair` — the Table-2 phenomenon: two mappings with nearly
  equal slack whose robustness differs by a large factor;
- :func:`find_flat_band` — the Figure-4 phenomenon: a set of mappings with a
  wide range of slack values but (nearly) the same robustness, i.e. slack
  cannot distinguish them while the metric pins them to one binding
  constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alloc.generators import random_assignments
from repro.engine import RobustnessEngine
from repro.hiperd.generators import PAPER_INITIAL_LOAD, generate_system
from repro.hiperd.model import HiperDSystem
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_positive_int

__all__ = [
    "ExperimentTwoResult",
    "run_experiment_two",
    "find_ab_pair",
    "find_flat_band",
]


@dataclass(frozen=True)
class ExperimentTwoResult:
    """All per-mapping measurements of the Figure 4 experiment."""

    system: HiperDSystem
    assignments: np.ndarray
    initial_load: np.ndarray
    #: robustness metric (Eq. 11, floored) per mapping
    robustness: np.ndarray
    #: system-wide percentage slack per mapping
    slack: np.ndarray
    #: name of each mapping's binding constraint
    binding_names: tuple[str, ...]
    #: kind of each mapping's binding constraint ("comp"/"comm"/"latency")
    binding_kinds: tuple[str, ...]

    @property
    def feasible(self) -> np.ndarray:
        """Mask of mappings satisfying all QoS constraints at the initial load."""
        return self.slack > 0

    @property
    def n_mappings(self) -> int:
        return self.assignments.shape[0]


def run_experiment_two(
    *,
    n_mappings: int = 1000,
    initial_load=PAPER_INITIAL_LOAD,
    seed=None,
    backend=None,
    **system_kwargs,
) -> ExperimentTwoResult:
    """Run the Section 4.3 experiment.

    ``backend`` selects the engine's execution backend (closed-form HiPer-D
    evaluation never fans out, so it is a forward-compatibility hook).
    Extra keyword arguments are forwarded to
    :func:`repro.hiperd.generators.generate_system` (e.g. ``n_paths``,
    ``target_fraction``).
    """
    n_mappings = check_positive_int(n_mappings, "n_mappings")
    rng_sys, rng_maps = spawn_rngs(seed, 2)
    system = generate_system(seed=rng_sys, **system_kwargs)
    # The draw random_hiperd_mappings makes, kept as one matrix.
    assignments = random_assignments(
        n_mappings, system.n_apps, system.n_machines, seed=rng_maps
    )
    load = np.asarray(initial_load, dtype=float)

    batch = RobustnessEngine(backend=backend).evaluate_hiperd(system, assignments, load)

    return ExperimentTwoResult(
        system=system,
        assignments=assignments,
        initial_load=load,
        robustness=batch.values,
        slack=batch.slacks,
        binding_names=batch.binding_names,
        binding_kinds=batch.binding_kinds,
    )


@dataclass(frozen=True)
class ABPair:
    """A Table-2-style pair: similar slack, very different robustness."""

    index_a: int
    index_b: int
    robustness_a: float
    robustness_b: float
    slack_a: float
    slack_b: float

    @property
    def ratio(self) -> float:
        return self.robustness_b / self.robustness_a


def _first_max(x: np.ndarray) -> int:
    """The index a ``best = x[0]; best = x[k] if x[k] > best`` sweep keeps:
    the first maximum (a NaN wins only in first place)."""
    if np.isnan(x[0]):
        return 0
    return int(np.argmax(np.where(np.isnan(x), -np.inf, x)))


def find_ab_pair(
    result: ExperimentTwoResult,
    *,
    slack_tolerance: float = 0.01,
    min_robustness: float = 1.0,
) -> ABPair:
    """Find the feasible pair with the largest robustness ratio among pairs
    whose slacks differ by at most ``slack_tolerance`` (B is the more robust
    of the pair, as in the paper's Table 2).

    Candidates are sorted by slack; ``(i, i + d)`` is a pair when
    ``slack[i + d] - slack[i] <= slack_tolerance``, and the scan stops at the
    first offset ``d`` with no pair (the differences grow with ``d``).  Ties
    go to the first pair in ``(i, d)`` order; within a pair, equal
    robustness makes the lower-slack mapping A.
    """
    feas = np.flatnonzero(result.feasible & (result.robustness >= min_robustness))
    if feas.size < 2:
        raise ValueError("not enough feasible mappings to form a pair")
    order = feas[np.argsort(result.slack[feas])]
    sl = result.slack[order]
    rho = result.robustness[order]
    n = order.size
    ratios = []  # column d - 1: ratio of pair (i, i + d), -inf outside the window
    with np.errstate(divide="ignore", invalid="ignore"):
        for d in range(1, n):
            inside = sl[d:] - sl[:-d] <= slack_tolerance
            if not inside.any():
                break
            first, second = rho[:-d], rho[d:]
            col = np.full(n, -np.inf)
            col[: n - d] = np.where(
                inside,
                np.where(first <= second, second / first, first / second),
                -np.inf,
            )
            ratios.append(col)
    if not ratios:
        raise ValueError(f"no two feasible mappings within slack {slack_tolerance}")
    # Row-major order of the (i, d - 1) matrix is the sweep order.
    i, col = divmod(_first_max(np.stack(ratios, axis=1).ravel()), len(ratios))
    a, b = order[i], order[i + col + 1]
    lo, hi = (a, b) if result.robustness[a] <= result.robustness[b] else (b, a)
    return ABPair(
        index_a=int(lo),
        index_b=int(hi),
        robustness_a=float(result.robustness[lo]),
        robustness_b=float(result.robustness[hi]),
        slack_a=float(result.slack[lo]),
        slack_b=float(result.slack[hi]),
    )


@dataclass(frozen=True)
class FlatBand:
    """A set of mappings with (nearly) equal robustness across a slack range."""

    indices: np.ndarray
    robustness: float
    slack_min: float
    slack_max: float
    binding_name: str

    @property
    def size(self) -> int:
        return self.indices.size

    @property
    def slack_range(self) -> float:
        return self.slack_max - self.slack_min


def find_flat_band(
    result: ExperimentTwoResult,
    *,
    min_size: int = 5,
) -> FlatBand:
    """Find the Figure-4 flat band: the group of feasible mappings with
    *identical* robustness (Eq. 11 is floored, so ties are exact) spanning
    the widest slack range.

    This is the paper's "set of mappings with slack values ranging from
    approximately 0.2 to approximately 0.5, but ... the same robustness
    value": the binding constraint pins the metric while the rest of the
    mapping — and hence the slack — varies.
    """
    feas = np.flatnonzero(result.feasible)
    if feas.size == 0:
        raise ValueError("no feasible mappings to form a band")
    values = result.robustness[feas]
    # Groups of equal robustness, numbered by first occurrence.
    _, first, inverse, sizes = np.unique(
        values, return_index=True, return_inverse=True, return_counts=True
    )
    rank = np.argsort(first)
    groups = np.argsort(rank)[inverse]  # group of each feasible mapping
    sizes = sizes[rank]
    members = np.argsort(groups, kind="stable")  # grouped, ascending within
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    slack = result.slack[feas[members]]
    ranges = np.maximum.reduceat(slack, starts) - np.minimum.reduceat(slack, starts)
    ranges = np.where(sizes >= min_size, ranges, -np.inf)
    g = _first_max(ranges)
    if sizes[g] < min_size:
        raise ValueError(f"no robustness group of size >= {min_size}")
    idx = feas[members[starts[g] : starts[g] + sizes[g]]]
    # The dominant binding constraint; a count tie goes to the lowest row.
    row_of = {name: r for r, name in enumerate(result.system.compiled.names)}
    rows = np.array([row_of[result.binding_names[k]] for k in idx])
    return FlatBand(
        indices=idx,
        robustness=float(result.robustness[idx[0]]),
        slack_min=float(result.slack[idx].min()),
        slack_max=float(result.slack[idx].max()),
        binding_name=result.system.compiled.names[int(np.argmax(np.bincount(rows)))],
    )
