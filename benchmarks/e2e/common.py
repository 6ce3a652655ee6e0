"""Definitions shared by every part of the end-to-end benchmark.

The benchmark runs the program from the checkout it lives in: ``src/`` two
levels up holds the ``repro`` package, and every process the benchmark
starts imports it from there.  Nothing here imports ``repro``; the modules
that need it call :func:`require_source` first, so a copy of the benchmark
without the program fails fast instead of measuring something else.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("serve_alloc", "serve_numeric", "population_numeric", "paper_figs")
SERVED = ("serve_alloc", "serve_numeric")

#: end-to-end metrics (tracing off), emitted for every workload
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "radii_per_s": "radii/s",
}

#: layers whose self time is reported as a share of the traced end-to-end
#: time, in the order a request or operation passes through them
SHARE_LAYERS = (
    "gen.backlog",
    "serve.server.other",
    "serve.protocol.parse",
    "serve.batcher.queue_wait",
    "serve.batch",
    "serve.protocol.serialize",
    "experiments.fig3",
    "experiments.fig4",
    "experiments.table2",
    "experiments.report",
    "engine.evaluate_allocation",
    "engine.evaluate_population",
    "engine.evaluate_hiperd",
    "hiperd.build_constraints",
    "engine.fault",
    "core.radius",
    "core.solvers.numeric",
    "core.solvers.numeric.minimize",
    "bench.harness",
)

#: per-layer metrics (tracing on), emitted for every workload; a layer a
#: workload never enters reads 0
PER_LAYER_UNITS = {
    **{f"{layer}.self_pct": "%" for layer in SHARE_LAYERS},
    "serve.batcher.batch_size": "requests",
    "serve.batcher.flushes_full": "count",
    "serve.batcher.flushes_deadline": "count",
    "serve.batcher.flushes_drain": "count",
    "serve.batching_ratio": "ratio",
    "serve.server.rejected": "count",
    "engine.cache.hit_ratio": "ratio",
    "engine.solves_per_radius": "ratio",
    "engine.fault.failure_records": "count",
    "core.solvers.numeric.minimize_calls_per_solve": "ratio",
    "core.solvers.numeric.converged_frac": "ratio",
}


def require_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or exit with 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts.

    ``REPRO_BACKEND`` is removed so the program runs with its own default
    backend, and output is unbuffered so readiness lines arrive at once.
    """
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def run_metadata(seed: int) -> dict:
    """Seed, program revision and the versions a result depends on."""
    import platform

    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "seed": seed,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
