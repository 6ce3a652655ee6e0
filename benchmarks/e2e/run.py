"""End-to-end benchmark of the robustness service, library and paper runs.

One command runs every workload, each in a fresh process, prints every
metric by name with its unit, checks that every output is correct, and
prints one JSON result as its last line::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--scale full|smoke] [--out FILE]
        [--inject-slowdown LAYER=F]

The program is imported from ``src/`` of the checkout the script sits in;
``PYTHONPATH`` is not needed.  ``--trace`` (or ``--trace 1``) replaces the
end-to-end metrics by the per-layer ones of a traced run.  The exit status
is 0 when every check passed, 1 when an output was wrong, 2 when the
program cannot be found.  ``benchmarks/e2e/README.md`` describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from common import (
    E2E_UNITS,
    HERE,
    OUT,
    PER_LAYER_UNITS,
    ROOT,
    SERVED,
    WORKLOADS,
    child_env,
    metric,
    percentile,
    require_source,
    run_metadata,
)

RUN_SECONDS = 20
#: processes started per run; each is one set-up sample and measures an
#: equal share of the run
INSTANCES = {"full": 3, "smoke": 1}
#: fewest operations (GA passes / paper regenerations) per worker process
MIN_OPS = {
    "population_numeric": {"full": 1, "smoke": 1},
    "paper_figs": {"full": 5, "smoke": 2},
}
SMOKE_GENERATIONS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", action="extend", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", choices=tuple(INSTANCES), default="full")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--inject-slowdown",
        default=None,
        metavar="LAYER=F",
        help="stretch every call of one traced layer by factor F (sensitivity check)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- in-process workloads: worker processes -------------------------------------


def start_worker(workload: str, argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Spawn ``worker.py``; returns it once it printed READY, with the time."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, *argv],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(120.0, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker for {workload} did not start: {line!r}")
    return proc, time.perf_counter() - start


def finish_worker(proc: subprocess.Popen, timeout: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def worker_argv(args, workload: str, seconds: float) -> list[str]:
    argv = [
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--min-ops", str(MIN_OPS[workload][args.scale]),
    ]
    if args.scale == "smoke":
        argv += ["--generations", str(SMOKE_GENERATIONS)]
    if args.inject_slowdown:
        argv += ["--inject-slowdown", args.inject_slowdown]
    return argv


def trace_in_process(args, workload: str) -> dict:
    """One worker, half untraced and half traced (see ``worker.py``)."""
    trace_file = OUT / f"trace-{workload}-seed{args.seed}.json"
    argv = worker_argv(args, workload, args.seconds) + ["--trace-out", str(trace_file)]
    proc, _ = start_worker(workload, argv)
    part = finish_worker(proc, timeout=170.0)
    part.pop("peak_rss_mb")
    return {**part, "trace_file": str(trace_file.relative_to(ROOT))}


def run_in_process(args, workload: str) -> dict:
    """Measure ``population_numeric`` or ``paper_figs`` over worker processes."""
    instances = INSTANCES[args.scale]
    argv = worker_argv(args, workload, args.seconds / instances)
    setups, parts = [], []
    for _ in range(instances):
        proc, setup_s = start_worker(workload, argv)
        setups.append(setup_s)
        parts.append(finish_worker(proc, timeout=150.0))
    op_times = [t for p in parts for t in p["op_times"]]
    ops_ms = [t * 1e3 for t in op_times]
    rates = [r for p in parts for r in p["rates"]]
    return {
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in parts), "MB"),
            "latency_p50_ms": metric(percentile(ops_ms, 50), "ms"),
            "radii_per_s": metric(statistics.median(rates), "radii/s"),
        },
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "checks": {
            key: sum(p["checks"][key] for p in parts) for key in ("sampled", "mismatches")
        },
        "samples": {
            "setup_s": setups,
            "radii_per_s": rates,
            "latency_p90_ms": percentile(ops_ms, 90),
            "operation_ms": [[t * 1e3 for t in p["op_times"]] for p in parts],
        },
    }


# -- one workload / several workloads ---------------------------------------------


def run_workload(args, workload: str) -> dict:
    if workload in SERVED:
        import served

        if args.trace:
            body = served.run_traced(workload, args.seed, args.seconds, args.inject_slowdown)
        else:
            body = served.run(
                workload, args.seed, args.seconds, INSTANCES[args.scale], args.inject_slowdown
            )
    elif args.trace:
        body = trace_in_process(args, workload)
    else:
        body = run_in_process(args, workload)
    if body.get("trace_problems"):
        raise RuntimeError(f"invalid Chrome trace: {body['trace_problems'][:5]}")
    return {
        "workload": workload,
        "trace": bool(args.trace),
        "scale": args.scale,
        "seconds": args.seconds,
        "meta": run_metadata(args.seed),
        "correct": body["checks"]["mismatches"] == 0,
        "fail_ratio": body["failed"] / max(1, body["attempted"]),
        **body,
    }


def run_each(args) -> list[dict]:
    """Run every requested workload in a fresh ``run.py`` process."""
    results = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for workload in args.workload:
            out = Path(tmp) / f"{workload}.json"
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--scale", args.scale,
                "--out", str(out),
            ]
            if args.inject_slowdown:
                cmd += ["--inject-slowdown", args.inject_slowdown]
            subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600)
            results.append(json.loads(out.read_text()))
    return results


def summary_line(results: list[dict]) -> dict:
    """The last output line: checks, counts and every metric of the run."""
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): value
        for r in results
        for name, value in r["metrics"].items()
    }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def print_table(results: list[dict]) -> None:
    for r in results:
        checks = r["checks"]
        print(
            f"{r['workload']}: correct={r['correct']} attempted={r['attempted']} "
            f"failed={r['failed']} checks={checks['sampled'] - checks['mismatches']}"
            f"/{checks['sampled']}"
        )
        valid = True
        for step in r.get("steps", []):
            valid = valid and step["valid"]
            note = "" if step["valid"] else "  INVALID: generator ran late"
            print(
                f"  step {step['requests']} requests, generator lateness "
                f"p{step['gen_lag_pct']:.0f} {step['gen_lag_ms']:.3f} ms ({step['sched']}){note}"
            )
        for name, value in r["metrics"].items():
            if not valid and name.startswith("latency_"):
                print(f"  {name:48s} {'invalid':>14s} {value['unit']}")
            else:
                print(f"  {name:48s} {value['value']:14.4f} {value['unit']}")
        if "layers" in r:
            print_layers(r)


def print_layers(r: dict) -> None:
    """The traced run's self-time table and the tracing overhead."""
    print(f"  self time by span ({r['traced_ms']:.1f} ms traced end to end):")
    print(f"    {'span':34s} {'calls':>8s} {'total ms':>11s} {'self ms':>11s} {'self us/call':>13s}")
    rows = sorted(r["layers"].items(), key=lambda kv: -kv[1]["self_ms"])
    for name, row in rows:
        print(
            f"    {name:34s} {row['calls']:8d} {row['total_ms']:11.2f} "
            f"{row['self_ms']:11.2f} {row['self_us_per_call']:13.2f}"
        )
    print(
        f"  tracing overhead: {r['trace_overhead_pct']:+.1f}% of the untraced "
        f"end-to-end time; trace written to {r['trace_file']}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    OUT.mkdir(exist_ok=True)
    args.workload = list(dict.fromkeys(args.workload or WORKLOADS))
    if len(args.workload) == 1:
        results = [run_workload(args, args.workload[0])]
    else:
        results = run_each(args)
    expected = PER_LAYER_UNITS if args.trace else E2E_UNITS
    for r in results:
        missing = set(expected) - set(r["metrics"])
        if missing:
            raise RuntimeError(f"{r['workload']}: metrics not measured: {sorted(missing)}")
    if args.out is not None:
        doc = results[0] if len(results) == 1 else {"runs": results}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print_table(results)
    line = summary_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
