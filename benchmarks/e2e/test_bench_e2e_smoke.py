"""Smoke test of the end-to-end benchmark at ``--scale smoke``.

Runs every workload briefly, one traced workload, one rerun and one
injected slowdown, and checks the benchmark's own contract: every metric of
``BENCHMARK.json`` is emitted with its unit, every output check passes, the
Chrome trace validates, a rerun of the same code compares within bound,
and a 1.5x slowdown of the numeric solver is caught on the served numeric
workload but not on the closed-form paper regeneration.

    python -m pytest benchmarks/e2e/test_bench_e2e_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(out: Path, *args: str, seconds: str = "1.5") -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--seconds", seconds,
         "--out", str(out), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> tuple[Path, dict]:
    out = tmp_path_factory.mktemp("e2e") / "baseline.json"
    return out, bench(out)


def test_every_metric_is_emitted_with_its_unit_and_checks_pass(baseline):
    _, line = baseline
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for workload in WORKLOADS:
        for spec in SPEC["end_to_end"]:
            value = line["metrics"][f"{workload}.{spec['name']}"]
            assert value["unit"] == spec["unit"]
            assert value["value"] > 0


def test_numeric_slowdown_is_caught_only_where_the_solver_runs(baseline, tmp_path):
    # paper_figs runs first, right after the baseline's paper_figs, so that
    # drift of the machine's speed between the two stays small
    slowed = tmp_path / "slowed.json"
    bench(
        slowed, "--workload", "paper_figs", "serve_numeric",
        "--inject-slowdown", "core.solvers.numeric=1.5",
    )
    verdicts = {
        (r["workload"], r["metric"]): (r["verdict"], r.get("change_pct"))
        for r in compare.rows([baseline[0]], [slowed])
    }
    assert verdicts["serve_numeric", "latency_p50_ms"][0] == "worse", verdicts
    # at smoke scale setup_s rests on one start, which does not repeat
    # within its bound
    paper = {m: v for (w, m), (v, _) in verdicts.items() if w == "paper_figs" and m != "setup_s"}
    assert paper and all(v == "within bound" for v in paper.values()), verdicts


def test_trace_validates_and_a_rerun_compares_within_bound(baseline, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs import validate_chrome_trace

    traced = bench(tmp_path / "traced.json", "--workload", "serve_numeric", "--trace", seconds="1")
    assert traced["correct"]
    for spec in SPEC["per_layer"]:
        assert traced["metrics"][spec["name"]]["unit"] == spec["unit"]
    result = json.loads((tmp_path / "traced.json").read_text())
    trace = json.loads((ROOT / result["trace_file"]).read_text())
    assert validate_chrome_trace(trace) == []
    assert {"client.request", "serve.batch", "core.solvers.numeric"} <= {
        e["name"] for e in trace["traceEvents"]
    }

    # the served allocation workload waits mostly on the batcher's deadline,
    # so even a short rerun repeats within the bounds; setup_s is left out
    # because at smoke scale it rests on a single start
    bench(tmp_path / "again.json", "--workload", "serve_alloc")
    rows = compare.rows([baseline[0]], [tmp_path / "again.json"])
    verdicts = {r["metric"]: (r["verdict"], r.get("change_pct")) for r in rows}
    del verdicts["setup_s"]
    assert verdicts and all(v == "within bound" for v, _ in verdicts.values()), verdicts
