"""Compare two sets of benchmark results, or summarise one set.

Each result file is what ``run.py --out FILE`` wrote: one workload's result,
or ``{"runs": [...]}`` for several.  Bounds and directions come from
``BENCHMARK.json`` at the root of the checkout.

    # one row per workload x end-to-end metric, with a verdict
    python3 benchmarks/e2e/compare.py --parent P1.json P2.json ... --change C1.json ...

    # median, quartiles and spread of one set (bound calibration)
    python3 benchmarks/e2e/compare.py --parent R1.json R2.json ...

    # run N alternating parent/change pairs first (same seed within a pair),
    # each checkout with its own benchmarks/e2e/run.py, then compare
    python3 benchmarks/e2e/compare.py --run-pairs PARENT_DIR CHANGE_DIR \
        [--pairs 10] [--workload NAME ...] [--seconds S] [--results DIR]

Verdicts, per workload and metric:

- ``unresolved`` -- the runs' own spread (quartile distance over median, on
  either side) is wider than the bound, and not every change run reads
  better than every parent run (then ``better``);
- ``worse`` -- the change's median is worse than the parent's by more than
  the bound;
- ``better`` -- the change won at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the parent's
  quartile distance;
- ``within bound`` -- otherwise.

``better`` needs at least ten pairs; with fewer, a gain is never claimed.

Files are paired in the order given.  Served runs whose generator ran late
(an invalid step) do not count for their latency metrics.  The exit status
is 1 when any row is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from common import OUT, ROOT, WORKLOADS, quartiles

LATENCY = ("latency_p50_ms",)
PAIR_SEED = 1000
#: a gain is never claimed from fewer pairs than this
MIN_PAIRS_FOR_GAIN = 10


def load(paths) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values``, in file order."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for path in paths:
        doc = json.loads(Path(path).read_text())
        for result in doc.get("runs", [doc]):
            valid = all(step["valid"] for step in result.get("steps", []))
            for name, metric in result["metrics"].items():
                if valid or name not in LATENCY:
                    values[result["workload"], name].append(metric["value"])
    return values


def bounds() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - pm) / abs(pm)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    pairs = list(zip(parent, change))
    won = sum(sign * (c - p) < 0 for p, c in pairs)
    enough = len(pairs) >= MIN_PAIRS_FOR_GAIN
    if spread > bound:
        everywhere = all(sign * (c - p) < 0 for p in parent for c in change)
        label = "better" if enough and everywhere else "unresolved"
    elif worse_by > bound:
        label = "worse"
    elif enough and won >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1:
        label = "better"
    else:
        label = "within bound"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "change_pct": 100.0 * (cm - pm) / abs(pm),
        "spread": spread,
        "pairs_won": f"{won}/{len(pairs)}",
        "verdict": label,
    }


def _q(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def rows(parent_files, change_files) -> list[dict]:
    """One verdict per end-to-end metric of each workload both sides ran."""
    parent, change, spec = load(parent_files), load(change_files), bounds()
    both = {w for w, _ in parent} & {w for w, _ in change}
    out = []
    for workload in (w for w in WORKLOADS if w in both):
        for name, m in spec.items():
            p, c = parent.get((workload, name)), change.get((workload, name))
            if p and c:
                out.append({"workload": workload, "metric": name, "bound": m["bound"],
                            **verdict(p, c, m["bound"], m["better"])})
            else:
                out.append({"workload": workload, "metric": name, "verdict": "invalid"})
    return out


def compare(parent_files, change_files) -> int:
    print(
        f"{'workload':19s} {'metric':15s} {'parent median [q1, q3]':>30s} "
        f"{'change median [q1, q3]':>30s} {'change':>8s} {'bound':>6s} {'won':>6s}  verdict"
    )
    table = rows(parent_files, change_files)
    for row in table:
        head = f"{row['workload']:19s} {row['metric']:15s}"
        if row["verdict"] == "invalid":
            print(f"{head} {'(no valid runs on one side)':>62s}  invalid")
            continue
        print(
            f"{head} {_q(row['parent']):>30s} {_q(row['change']):>30s} "
            f"{row['change_pct']:+7.1f}% {row['bound']:6.2f} {row['pairs_won']:>6s}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in table) else 0


def summarise(files) -> int:
    values, spec = load(files), bounds()
    print(f"{'workload':19s} {'metric':15s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for workload in WORKLOADS:
        for name, m in spec.items():
            v = values.get((workload, name))
            if v:
                q1, med, q3 = quartiles(v)
                print(
                    f"{workload:19s} {name:15s} {len(v):3d} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                    f"{(q3 - q1) / abs(med):7.3f} {m['bound']:6.2f}"
                )
    return 0


def run_pairs(args) -> tuple[list[Path], list[Path]]:
    """Alternate parent and change runs; returns their result files."""
    results = args.results or OUT / "pairs"
    results.mkdir(parents=True, exist_ok=True)
    sides = {"parent": Path(args.run_pairs[0]).resolve(), "change": Path(args.run_pairs[1]).resolve()}
    files: dict[str, list[Path]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            out = results / f"{side}-{i:02d}.json"
            cmd = [
                sys.executable, str(sides[side] / "benchmarks" / "e2e" / "run.py"),
                "--seed", str(PAIR_SEED + i), "--out", str(out),
            ]
            if args.workload:
                cmd += ["--workload", *args.workload]
            if args.seconds:
                cmd += ["--seconds", str(args.seconds)]
            print(f"pair {i + 1}/{args.pairs}: {side}", flush=True)
            subprocess.run(cmd, cwd=sides[side], stdout=subprocess.DEVNULL, check=True)
            files[side].append(out)
    return files["parent"], files["change"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, default=[])
    parser.add_argument("--change", nargs="+", type=Path, default=[])
    parser.add_argument("--run-pairs", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--results", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.run_pairs:
        args.parent, args.change = run_pairs(args)
    if not args.parent:
        parser.error("give --parent files (and --change files to compare), or --run-pairs")
    return compare(args.parent, args.change) if args.change else summarise(args.parent)


if __name__ == "__main__":
    sys.exit(main())
