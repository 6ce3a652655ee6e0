"""Observability overhead benchmark — the <2% disabled-cost budget.

Observability is off by default, so its entire steady-state cost is the
guard that every instrumentation point pays: an ``enabled()`` flag read or a
``maybe_span()`` call that returns the shared null span.  This benchmark

- proves disabled instrumentation is *bit-for-bit inert*: enabling and
  disabling tracing around the same numeric population leaves every radius
  unchanged;
- measures the per-guard cost directly and scales it by a deliberately
  pessimistic count of guards per radius solve, asserting the implied
  overhead fraction stays under the 2% budget from docs/OBSERVABILITY.md;
- measures the enabled-mode cost for the record (not asserted — tracing is
  opt-in, so its cost is a documented price, not a regression);
- lands the numbers in ``benchmarks/out/BENCH_obs.json`` for the regression
  gate.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.config import SolverConfig
from repro.core.features import FeatureBounds, PerformanceFeature
from repro.core.impact import CallableImpact
from repro.core.perturbation import PerturbationParameter
from repro.engine import RobustnessEngine
from repro.obs import trace as obs_trace

OUT_DIR = Path(__file__).parent / "out"

N_PROBLEMS = 12
GUARD_CALLS = 200_000
REPEATS = 3
MAX_OVERHEAD_FRACTION = 0.02
#: deliberately pessimistic guards-per-solve: the serial path pays roughly
#: half a dozen enabled()/maybe_span() checks per task; we budget for 4x that.
GUARDS_PER_SOLVE = 24

PARAM = PerturbationParameter("pi", np.array([0.5, 0.5]))


def _quad(pi):
    return float(pi @ pi)


def _quad_grad(pi):
    return 2.0 * pi


def _problems(n: int):
    return [
        (
            [
                PerformanceFeature(
                    f"q_{i}",
                    CallableImpact(_quad, grad=_quad_grad, name="quad"),
                    FeatureBounds.upper_only(4.0 + 0.01 * i),
                )
            ],
            PARAM,
        )
        for i in range(n)
    ]


def _engine() -> RobustnessEngine:
    return RobustnessEngine(
        config=SolverConfig(pool_size=0, cache_size=0)
    )


def _radii(batch) -> list[float]:
    return [r.radius for m in batch for r in m.radii]


def _best_of(repeats: int, fn):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    obs.disable()
    obs.reset_metrics()


def test_disabled_observability_is_bit_for_bit_inert():
    problems = _problems(N_PROBLEMS)
    baseline = _radii(_engine().evaluate_population(problems))
    with obs.observed():
        enabled = _radii(_engine().evaluate_population(problems))
    after = _radii(_engine().evaluate_population(problems))
    assert baseline == enabled == after  # exact float equality


def test_disabled_guard_cost_within_budget():
    problems = _problems(N_PROBLEMS)
    engine = _engine()
    engine.evaluate_population(problems[:2])  # warm numpy/scipy paths

    t_solve, batch = _best_of(
        REPEATS, lambda: engine.evaluate_population(problems)
    )
    assert batch.ok
    per_solve_s = t_solve / N_PROBLEMS

    def guards():
        for _ in range(GUARD_CALLS):
            obs_trace.enabled()
            with obs.maybe_span("bench.guard"):
                pass

    t_guard, _ = _best_of(REPEATS, guards)
    per_guard_s = t_guard / (2 * GUARD_CALLS)

    overhead_fraction = (GUARDS_PER_SOLVE * per_guard_s) / per_solve_s

    with obs.observed():
        t_enabled, _ = _best_of(
            REPEATS, lambda: _engine().evaluate_population(problems)
        )
    enabled_fraction = max(0.0, t_enabled / t_solve - 1.0)

    OUT_DIR.mkdir(exist_ok=True)
    payload = {
        "n_problems": N_PROBLEMS,
        "per_solve_ms": round(per_solve_s * 1e3, 4),
        "per_guard_ns": round(per_guard_s * 1e9, 1),
        "guards_per_solve_budget": GUARDS_PER_SOLVE,
        "disabled_overhead_fraction": round(overhead_fraction, 6),
        "enabled_overhead_fraction": round(enabled_fraction, 4),
        "max_overhead_fraction": MAX_OVERHEAD_FRACTION,
        "repeats": REPEATS,
    }
    out = OUT_DIR / "BENCH_obs.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(
        f"\nobs overhead: guard {per_guard_s * 1e9:.0f} ns, solve "
        f"{per_solve_s * 1e3:.2f} ms, disabled fraction "
        f"{overhead_fraction:.5f} (budget {MAX_OVERHEAD_FRACTION})\n"
        f"[report saved to {out}]"
    )
    assert overhead_fraction < MAX_OVERHEAD_FRACTION, payload
