"""Engine benchmark — batched population evaluation vs the per-mapping loop.

Workload: a GA-sized population of 1000 random mappings (20 applications x
5 machines, CVB-Gamma ETCs, tau = 1.2), the Figure 3 scale.  The engine
evaluates the whole population in one ``(P, m)`` vectorized pass; the
baseline calls the scalar Eq. 6/7 path once per mapping, which is what every
objective evaluation cost before the engine existed.

Claims checked:

- the batched result is *bit-for-bit* equal to the scalar loop;
- the engine is at least 10x faster than the loop on the 1000-mapping
  population (measured min-of-repeats with ``time.perf_counter``; in
  practice the gap is two to three orders of magnitude);
- the HiPer-D stacked pass beats its scalar loop as well (same experiment
  scale as Figure 4);
- both execution backends (serial / process) produce bit-for-bit identical
  radii on a 10k numeric-solve population, and the process backend's
  chunked dispatch beats the same backend submitting one future per task.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.alloc.generators import random_assignments
from repro.alloc.mapping import Mapping
from repro.alloc.robustness import robustness as alloc_robustness
from repro.core import (
    CallableImpact,
    FeatureBounds,
    PerformanceFeature,
    PerturbationParameter,
    SolverConfig,
)
from repro.engine import RobustnessEngine
from repro.engine.backends import BACKEND_NAMES
from repro.engine.fault import solve_radius_tasks_isolated
from repro.etcgen.cvb import cvb_etc_matrix
from repro.hiperd.generators import (
    PAPER_INITIAL_LOAD,
    generate_system,
    random_hiperd_mappings,
)
from repro.hiperd.robustness import robustness as hiperd_robustness

OUT_DIR = Path(__file__).parent / "out"

SEED = 424242
N_MAPPINGS = 1000
N_TASKS = 20
N_MACHINES = 5
TAU = 1.2
MIN_SPEEDUP = 10.0

BACKEND_POP = 10_000
BACKEND_POOL = 2
MIN_BATCHED_OVER_PER_TASK = 1.05


def _update_bench_json(**fields) -> None:
    """Merge *fields* into ``out/BENCH_engine.json`` without clobbering the
    rows other tests in this module may already have written."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_engine.json"
    payload = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    payload.update(fields)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def population():
    etc = cvb_etc_matrix(N_TASKS, N_MACHINES, seed=SEED)
    assignments = random_assignments(N_MAPPINGS, N_TASKS, N_MACHINES, seed=SEED + 1)
    return etc, assignments


def _scalar_loop(assignments, etc, tau):
    return np.array(
        [
            alloc_robustness(Mapping(a, N_MACHINES), etc, tau).value
            for a in assignments
        ]
    )


def _best_of(repeats: int, fn, *args):
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_engine_matches_scalar_loop_bit_for_bit(population):
    etc, assignments = population
    engine = RobustnessEngine()
    batch = engine.evaluate_allocation(assignments, etc, TAU)
    assert np.array_equal(batch.values, _scalar_loop(assignments, etc, TAU))


def test_engine_speedup_on_ga_population(population, save_report):
    """The headline claim: >= 10x over the per-mapping loop at P = 1000."""
    etc, assignments = population
    engine = RobustnessEngine()
    # Warm both paths (imports, allocator) before timing.
    engine.evaluate_allocation(assignments[:10], etc, TAU)
    _scalar_loop(assignments[:10], etc, TAU)

    t_loop, loop_values = _best_of(3, _scalar_loop, assignments, etc, TAU)
    t_engine, batch = _best_of(
        3, engine.evaluate_allocation, assignments, etc, TAU
    )
    speedup = t_loop / t_engine
    save_report(
        "engine_speedup",
        "Engine benchmark: 1000-mapping GA population (Eq. 7)\n"
        f"per-mapping loop : {t_loop * 1e3:9.2f} ms\n"
        f"batched engine   : {t_engine * 1e3:9.2f} ms\n"
        f"speedup          : {speedup:9.1f}x (floor {MIN_SPEEDUP}x)",
    )
    _update_bench_json(
        n_mappings=N_MAPPINGS,
        loop_seconds=round(t_loop, 4),
        engine_seconds=round(t_engine, 4),
        speedup=round(speedup, 2),
        repeats=3,
    )
    assert np.array_equal(batch.values, loop_values)
    assert speedup >= MIN_SPEEDUP, (
        f"engine speedup {speedup:.1f}x below the {MIN_SPEEDUP}x floor "
        f"(loop {t_loop:.4f}s vs engine {t_engine:.4f}s)"
    )


def test_hiperd_engine_faster_than_loop():
    system = generate_system(seed=SEED + 2)
    mappings = random_hiperd_mappings(system, 200, seed=SEED + 3)
    load = np.asarray(PAPER_INITIAL_LOAD, dtype=float)
    engine = RobustnessEngine()
    engine.evaluate_hiperd(system, mappings[:5], load)  # warm up

    def loop():
        return np.array([hiperd_robustness(system, m, load).value for m in mappings])

    t_loop, loop_values = _best_of(3, loop)
    t_engine, batch = _best_of(3, engine.evaluate_hiperd, system, mappings, load)
    assert np.array_equal(batch.values, loop_values)
    # Constraint building dominates both paths; the stacked radii/slack pass
    # still has to win clearly.
    assert t_engine < t_loop


def _quad(x):
    return float(np.dot(x, x))


def _quad_grad(x):
    return 2.0 * np.asarray(x, dtype=float)


def _numeric_tasks(n: int, config: SolverConfig) -> list:
    """*n* cheap numeric radius tasks with distinct perturbation origins so
    the radius cache cannot deduplicate them into a single solve."""
    rng = np.random.default_rng(SEED + 4)
    feature = PerformanceFeature(
        "quad",
        CallableImpact(_quad, grad=_quad_grad, name="quad"),
        FeatureBounds.upper_only(4.0),
    )
    return [
        (feature, PerturbationParameter(f"pi_{i}", rng.uniform(0.2, 0.8, 2)), None, config)
        for i in range(n)
    ]


def test_backend_rows_on_numeric_population(save_report):
    """Time both execution backends on the same 10k numeric-solve population.

    Both backends must agree bit-for-bit, and the process backend's chunked
    dispatch must beat the same backend run one future per task (a per-task
    deadline, ``task_timeout``, disables chunking) — that win is the reason
    the backend dispatches in chunks, so it is asserted, not just reported.
    """
    config = SolverConfig(solver="numeric", n_starts=1, seed=SEED, pool_size=BACKEND_POOL)
    tasks = _numeric_tasks(BACKEND_POP, config)
    for name in BACKEND_NAMES:  # warm pools + imports outside the timed runs
        solve_radius_tasks_isolated(tasks[:32], config, backend=name)

    rows: dict[str, float] = {}
    reference = None
    for name in BACKEND_NAMES:
        t0 = time.perf_counter()
        results, records = solve_radius_tasks_isolated(tasks, config, backend=name)
        rows[name] = round(time.perf_counter() - t0, 4)
        assert not records, f"{name}: unexpected failures {records[:3]}"
        radii = [r.radius for r in results]
        if reference is None:
            reference = radii
        else:
            assert radii == reference, f"{name} diverged from serial radii"

    t0 = time.perf_counter()
    per_task_config = config.replace(task_timeout=600.0)
    results, _ = solve_radius_tasks_isolated(tasks, per_task_config, backend="process")
    per_task = round(time.perf_counter() - t0, 4)
    assert [r.radius for r in results] == reference, "per-task process diverged"

    batched_speedup = round(per_task / rows["process"], 2)
    _update_bench_json(
        backend_population=BACKEND_POP,
        backend_pool_size=BACKEND_POOL,
        backends=rows,
        process_per_task_seconds=per_task,
        batched_speedup_over_per_task=batched_speedup,
    )
    lines = "\n".join(f"{name:8s}: {rows[name] * 1e3:10.1f} ms" for name in BACKEND_NAMES)
    save_report(
        "engine_backends",
        f"Backend rows: {BACKEND_POP} numeric solves, pool_size={BACKEND_POOL}\n"
        f"{lines}\n"
        f"process, one future per task: {per_task * 1e3:10.1f} ms\n"
        f"chunked over per-task : {batched_speedup:.2f}x "
        f"(floor {MIN_BATCHED_OVER_PER_TASK}x)",
    )
    assert batched_speedup >= MIN_BATCHED_OVER_PER_TASK, (
        f"chunked process dispatch no longer beats per-task submission "
        f"({rows['process']:.3f}s vs {per_task:.3f}s)"
    )


def test_bench_engine_allocation(population, benchmark):
    """pytest-benchmark timing of the batched path (for the saved report)."""
    etc, assignments = population
    engine = RobustnessEngine()
    batch = benchmark(engine.evaluate_allocation, assignments, etc, TAU)
    assert batch.values.shape == (N_MAPPINGS,)
