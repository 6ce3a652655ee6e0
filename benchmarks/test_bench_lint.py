"""Lint benchmark — incremental summary cache vs a cold full analysis.

Workload: the shipped ``src/repro`` tree (~95 modules) under the full rule
registry, including the interprocedural dataflow rules.  The cold run
parses, summarizes and lints every file; the warm run replays the per-file
work from the :class:`~repro.analysis.dataflow.SummaryStore` and re-runs
only the project propagation phase.

Claims checked:

- the warm run re-analyzes **zero** modules;
- warm and cold runs produce identical findings and suppression counts;
- the warm run is measurably faster (at least 1.25x on min-of-repeats);
- the concurrency family (R110, R111, R113, R114) alone costs no more
  than a full cold run — its facts ride the same single parse/summary pass;
- the measured times land in ``benchmarks/out/BENCH_lint.json`` so CI can
  chart the cache's effect over time.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import repro
from repro.analysis import SummaryStore, lint_paths

OUT_DIR = Path(__file__).parent / "out"
SRC_TREE = Path(repro.__file__).resolve().parent
REPEATS = 3
MIN_SPEEDUP = 1.25
CONCUR_RULES = ["R110", "R111", "R113", "R114"]


def _time_lint(cache_path: Path):
    best = float("inf")
    report = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        report = lint_paths([SRC_TREE], cache=SummaryStore(cache_path))
        best = min(best, time.perf_counter() - t0)
    return best, report


@pytest.fixture(scope="module")
def timings(tmp_path_factory):
    cache_path = tmp_path_factory.mktemp("lint-cache") / "cache.json"
    # cold: time a single run against an empty store (repeats would hit the
    # cache the first run just wrote, so cold is one measurement by nature)
    t0 = time.perf_counter()
    cold_report = lint_paths([SRC_TREE], cache=SummaryStore(cache_path))
    cold = time.perf_counter() - t0
    warm, warm_report = _time_lint(cache_path)
    # family-only runs: select bypasses the cache, so every repeat is cold
    concur = float("inf")
    concur_report = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        concur_report = lint_paths([SRC_TREE], select=CONCUR_RULES)
        concur = min(concur, time.perf_counter() - t0)
    return cold, cold_report, warm, warm_report, concur, concur_report


class TestIncrementalCacheBenchmark:
    def test_warm_run_reanalyzes_nothing(self, timings):
        _, cold_report, _, warm_report = timings[:4]
        assert cold_report.n_reanalyzed == cold_report.files_checked
        assert warm_report.n_reanalyzed == 0
        assert warm_report.files_cached == warm_report.files_checked

    def test_findings_identical_cold_vs_warm(self, timings):
        _, cold_report, _, warm_report = timings[:4]
        assert warm_report.findings == cold_report.findings
        assert warm_report.n_suppressed == cold_report.n_suppressed
        assert warm_report.files_checked == cold_report.files_checked

    def test_concur_family_not_costlier_than_full_registry(self, timings):
        cold, cold_report = timings[0], timings[1]
        concur, concur_report = timings[4], timings[5]
        assert concur_report.clean
        assert concur_report.files_checked == cold_report.files_checked
        # parse+summaries dominate and are shared: four extra rules must
        # not cost more than the whole registry does (generous 1.5x slack
        # because `cold` is a single measurement, `concur` min-of-repeats)
        assert concur <= cold * 1.5, (concur, cold)

    def test_warm_is_faster_and_recorded(self, timings):
        cold, cold_report, warm, warm_report, concur, concur_report = timings
        speedup = cold / warm if warm > 0 else float("inf")
        concur_fps = concur_report.files_checked / concur if concur > 0 else float("inf")
        OUT_DIR.mkdir(exist_ok=True)
        payload = {
            "files": cold_report.files_checked,
            "cold_seconds": round(cold, 4),
            "warm_seconds": round(warm, 4),
            "speedup": round(speedup, 2),
            "warm_reanalyzed": warm_report.n_reanalyzed,
            "concur_seconds": round(concur, 4),
            "concur_files_per_second": round(concur_fps, 1),
            "repeats": REPEATS,
        }
        out = OUT_DIR / "BENCH_lint.json"
        out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"\nlint cache: cold {cold:.3f}s, warm {warm:.3f}s "
              f"({speedup:.1f}x); concur-only {concur:.3f}s\n"
              f"[report saved to {out}]")
        assert speedup >= MIN_SPEEDUP, payload
