"""Benchmark regression gate — tolerance-checked comparison against
committed baselines.

The repo's headline performance wins (the batched engine's order-of-
magnitude speedup over the scalar loop, the lint summary cache's warm-run
speedup, the observability layer's near-zero disabled cost) are recorded as
JSON baselines under ``benchmarks/baselines/``.  The producing benchmarks
write fresh measurements to ``benchmarks/out/BENCH_*.json``; this module
compares the two with generous tolerances so a real regression fails loudly
while ordinary machine-to-machine noise does not.

Run after the producing benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_engine.py \
        benchmarks/test_bench_lint.py benchmarks/test_bench_obs.py \
        benchmarks/test_bench_regression.py

A missing ``out`` file skips its comparison (the producer did not run);
a missing *baseline* is an error — the gate exists to be non-optional.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

BASE_DIR = Path(__file__).parent / "baselines"
OUT_DIR = Path(__file__).parent / "out"

#: (file, metric, direction, tolerance_factor)
#: "higher": fresh >= baseline * factor — protects speedup wins.
#: "lower":  fresh <= max(baseline / factor, absolute_floor) — protects
#: cost budgets without failing on a tiny-but-noisy baseline.
CHECKS = [
    ("BENCH_engine.json", "speedup", "higher", 0.4),
    ("BENCH_engine.json", "batched_speedup_over_per_task", "higher", 0.7),
    ("BENCH_lint.json", "speedup", "higher", 0.4),
    ("BENCH_lint.json", "concur_files_per_second", "higher", 0.4),
    ("BENCH_obs.json", "disabled_overhead_fraction", "lower", 0.02),
    ("BENCH_resilience.json", "steps_per_second", "higher", 0.3),
    ("BENCH_serve.json", "rps_64", "higher", 0.2),
    # tolerance doubles as the absolute ceiling: the micro-batcher must keep
    # coalescing >2 requests per engine call at 64 clients (the service bar)
    ("BENCH_serve.json", "batching_efficiency_ratio", "lower", 0.5),
]


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    ("name", "metric", "direction", "tolerance"),
    CHECKS,
    ids=[f"{c[0].removesuffix('.json')}-{c[1]}" for c in CHECKS],
)
def test_benchmark_has_not_regressed(name, metric, direction, tolerance):
    baseline_path = BASE_DIR / name
    assert baseline_path.is_file(), (
        f"missing committed baseline {baseline_path} — regenerate it from a "
        f"known-good run and commit it"
    )
    out_path = OUT_DIR / name
    if not out_path.is_file():
        pytest.skip(f"{out_path} absent: run the producing benchmark first")

    baseline = _load(baseline_path)[metric]
    fresh = _load(out_path)[metric]

    if direction == "higher":
        floor = baseline * tolerance
        assert fresh >= floor, (
            f"{name}: {metric} regressed to {fresh} "
            f"(baseline {baseline}, floor {floor:.2f})"
        )
    else:
        # tolerance doubles as the absolute budget for cost-style metrics
        ceiling = max(baseline * 3.0, tolerance)
        assert fresh <= ceiling, (
            f"{name}: {metric} grew to {fresh} "
            f"(baseline {baseline}, ceiling {ceiling:.4f})"
        )


def test_baselines_are_well_formed():
    for name, metric, _, _ in CHECKS:
        doc = _load(BASE_DIR / name)
        assert metric in doc, f"{name} baseline lacks {metric!r}"
        assert doc[metric] > 0
