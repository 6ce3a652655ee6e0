"""E4 (extension) — empirical validation of the robustness radius.

Not a paper figure; validates Eq. 1's operational semantics end-to-end:
perturbations strictly inside the robustness ball never violate the
requirement (checked by discrete-event simulation for the allocation system
and by constraint evaluation for HiPer-D), the boundary point sits exactly
on the requirement, and a step beyond violates.  The throughput row times
the two sampled-perturbation validators of ``repro.faults`` at 10^4 samples.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.alloc.generators import random_mapping
from repro.core.solvers.montecarlo import sample_directions
from repro.etcgen import cvb_etc_matrix
from repro.faults import validate_allocation_radius, validate_hiperd_radius
from repro.hiperd.constraints import build_constraints
from repro.hiperd.generators import generate_system, random_hiperd_mappings
from repro.hiperd.robustness import robustness as hiperd_robustness
from repro.hiperd.table2 import build_table2_system
from repro.sim.validate import validate_allocation_robustness
from repro.utils.tables import format_table

SEED = 99
TAU = 1.2


@pytest.fixture(scope="module")
def allocation_reports():
    out = []
    for k in range(5):
        etc = cvb_etc_matrix(20, 5, seed=SEED + k)
        mapping = random_mapping(20, 5, seed=SEED + 50 + k)
        out.append(
            validate_allocation_robustness(
                mapping, etc, TAU, n_samples=200, seed=SEED + 100 + k
            )
        )
    return out


def test_validation_report(allocation_reports, save_report):
    rows = [
        [
            k,
            r.robustness,
            r.makespan_orig,
            r.interior_violations,
            r.boundary_makespan,
            r.tau * r.makespan_orig,
            r.beyond_makespan,
        ]
        for k, r in enumerate(allocation_reports)
    ]
    save_report(
        "validation",
        format_table(
            [
                "instance",
                "rho",
                "M_orig",
                "interior violations",
                "makespan at C*",
                "tau*M_orig",
                "makespan beyond",
            ],
            rows,
            title="=== E4 — simulated validation of the allocation robustness radius ===",
        ),
    )


def test_allocation_radius_sound_and_tight(allocation_reports):
    for r in allocation_reports:
        assert r.sound
        assert r.tight


def test_hiperd_radius_sound(save_report):
    """Loads within the (unfloored) radius never violate any QoS constraint;
    the floored metric is a conservative integer statement of the same."""
    system = generate_system(seed=SEED)
    lam0 = np.array([962.0, 380.0, 240.0])
    rng = np.random.default_rng(SEED)
    checked = 0
    for m in random_hiperd_mappings(system, 20, seed=SEED + 1):
        r = hiperd_robustness(system, m, lam0, apply_floor=False)
        if r.raw_value <= 0:
            continue
        cs = build_constraints(system, m)
        for d in sample_directions(rng, 100, 3):
            assert cs.satisfied_at(lam0 + 0.999 * r.raw_value * d, tol=1e-9)
        # Beyond the boundary along the binding direction: violation.
        direction = r.boundary - lam0
        n = np.linalg.norm(direction)
        if n > 0:
            assert not cs.satisfied_at(lam0 + direction * (1 + 1e-9) )
        checked += 1
    assert checked >= 10


def test_bench_validation_simulation(benchmark):
    """Time one 200-sample simulated validation (the E4 workload unit)."""
    etc = cvb_etc_matrix(20, 5, seed=SEED)
    mapping = random_mapping(20, 5, seed=SEED + 50)

    report = benchmark(
        validate_allocation_robustness, mapping, etc, TAU, n_samples=200, seed=7
    )
    assert report.sound


def _best_seconds(fn, repeats: int = 5) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        report = fn()
        best = min(best, time.perf_counter() - start)
        assert report.sound and report.tight
    return best


def test_validation_throughput(save_report):
    """Validations/s of the two ``repro.faults`` validators at 10^4 interior
    samples each: Eq. 6 on a 20x5 CVB instance and HiPer-D on Table 2's
    mapping A (best of 5 runs, one validation per run)."""
    n = 10_000
    etc = cvb_etc_matrix(20, 5, seed=2003)
    mapping = random_mapping(20, 5, seed=2004)
    inst = build_table2_system()
    cases = {
        "Eq. 6 allocation (20x5, tau=1.2)": lambda: validate_allocation_radius(
            mapping, etc, TAU, n_samples=n, seed=7
        ),
        "HiPer-D (Table 2, mapping A)": lambda: validate_hiperd_radius(
            inst.system, inst.mapping_a, inst.initial_load, n_samples=n, seed=5
        ),
    }
    rows = []
    for name, fn in cases.items():
        seconds = _best_seconds(fn)
        rows.append([name, n, seconds * 1e3, 1.0 / seconds])
    save_report(
        "validation_throughput",
        format_table(
            ["validator", "samples", "ms per validation", "validations/s"],
            rows,
            title="=== E4 — sampled-perturbation validation throughput ===",
        ),
    )
