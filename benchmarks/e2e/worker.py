"""Worker process of the in-process workloads (``population_numeric``,
``paper_figs``).

Started fresh by ``run.py``.  It imports ``repro`` and builds the default
``RobustnessEngine`` -- the set-up a library user pays -- and prints
``READY``; the parent times spawn to ``READY`` as ``setup_s``.  It then
repeats the workload's operation until its share of the run's seconds is
spent, checks the outputs outside the timed region, and prints one JSON
line with the operation times, radii rates, failures, check results and
its own ``VmHWM``.

With ``--trace-out`` it spends half its time untraced and half with the
layer wrappers recording, writes the Chrome trace there, and reports the
per-layer metrics and the tracing overhead instead.

Usage (normally only through ``run.py``)::

    python benchmarks/e2e/worker.py WORKLOAD --seed N --seconds S
        [--min-ops K] [--generations G] [--trace-out FILE]
        [--inject-slowdown LAYER=F]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time

import numpy as np

import inputs
import tracing
from common import HERE, peak_rss_mb, require_source

GOLDEN = HERE / "golden"
PAPER_MAPPINGS = 1000
PAPER_CHECK_SAMPLES = 50
#: the CLI's default seeds.  The paper's figures are fixed inputs; other
#: seeds would generate HiPer-D systems of 77 to 88 constraint rows and move
#: the regeneration time with the seed alone.
FIG3_SEED, FIG4_SEED = 2003, 7


class OpClock:
    """Times each operation; opens a ``bench.op`` root span when tracing."""

    def __init__(self, deadline: float, min_ops: int, tracer=None) -> None:
        self.deadline, self.min_ops, self.tracer = deadline, min_ops, tracer
        self.times: list[float] = []

    def more(self, done: int) -> bool:
        return done < self.min_ops or time.perf_counter() < self.deadline

    @contextlib.contextmanager
    def op(self):
        span = self.tracer.open("bench.op") if self.tracer else None
        start = time.perf_counter()
        try:
            yield
        finally:
            self.times.append(time.perf_counter() - start)
            if span is not None:
                self.tracer.close(span)

    def stop(self) -> None:
        """End the measured part: later calls (the checks) are not traced."""
        if self.tracer is not None:
            self.tracer.recording = False


# -- population_numeric ---------------------------------------------------------


def _members(specs) -> list[tuple]:
    from repro.serve.protocol import decode_problem

    return [(p.features, p.parameter) for p in map(decode_problem, specs)]


def population_numeric(args, clock: OpClock) -> dict:
    """GA passes on the default engine, each from an empty cache: every
    generation keeps the best survivors, clones some of them (the same
    objects) and adds new problems.  Passes replay one seeded schedule, so
    they are equal work."""
    from repro.core.config import SolverConfig
    from repro.engine import RobustnessEngine

    first, added, clones = inputs.population_plan(args.seed)
    radii_per_pass = inputs.POP_SIZE * inputs.FEPIA_FEATURES * args.generations
    engine = RobustnessEngine()
    rates, failures, passes = [], 0, 0
    while clock.more(passes):
        engine.cache.clear()
        members = _members(first)
        for g in range(args.generations):
            with clock.op():
                batch = engine.evaluate_population(members, on_error="record")
            failures += len({f.problem_index for f in batch.failures})
            if g + 1 < args.generations:
                order = np.argsort([-m.value for m in batch], kind="stable")
                survivors = [members[i] for i in order[: inputs.POP_SURVIVORS]]
                members = survivors + [survivors[i] for i in clones[g]] + _members(added[g])
        rates.append(radii_per_pass / sum(clock.times[-args.generations :]))
        passes += 1
    clock.stop()
    # the last generation, cached across generations, equals a cache-free engine
    fresh = RobustnessEngine(config=SolverConfig(cache_size=0)).evaluate_population(
        members, on_error="record"
    )
    mismatches = sum(a.to_dict() != b.to_dict() for a, b in zip(batch, fresh))
    return {
        "rates": rates,
        "attempted": passes * args.generations * inputs.POP_SIZE + len(members),
        "failed": failures + mismatches,
        "checks": {"sampled": len(members), "mismatches": mismatches},
    }


# -- paper_figs -------------------------------------------------------------------


def regenerate():
    """Fig. 3, Fig. 4 and Table 2 with their reports, as the CLI makes them."""
    from repro import cli, experiments

    fig3 = experiments.run_experiment_one(n_mappings=PAPER_MAPPINGS, seed=FIG3_SEED)
    text3 = experiments.report_figure3(fig3)
    fig4 = experiments.run_experiment_two(n_mappings=PAPER_MAPPINGS, seed=FIG4_SEED)
    text4 = experiments.report_figure4(fig4)
    table2 = io.StringIO()
    with contextlib.redirect_stdout(table2):
        cli._cmd_table2(argparse.Namespace(out=None))
    texts = {"figure3": text3 + "\n", "figure4": text4 + "\n", "table2": table2.getvalue()}
    return fig3, fig4, texts


def radii_per_regeneration(fig3, fig4) -> int:
    """Eq. 6 radii (one per machine) plus Eq. 10 radii (one per constraint
    row) of both figures and of Table 2's two mappings."""
    from repro.alloc.mapping import Mapping
    from repro.hiperd import build_constraints, build_table2_system

    mapping = Mapping(fig4.assignments[0], fig4.system.n_machines)
    rows4 = len(build_constraints(fig4.system, mapping))
    inst = build_table2_system()
    rows2 = len(build_constraints(inst.system, inst.mapping_a))
    return int(fig3.robustness.size * fig3.etc.shape[1] + fig4.n_mappings * rows4 + 2 * rows2)


def check_paper(seed: int, fig3, fig4) -> int:
    """Mismatches of a seeded sample of both figures' mappings against the
    scalar ``alloc``/``hiperd`` loops."""
    from repro.alloc.mapping import Mapping
    from repro.alloc.robustness import robustness as alloc_robustness
    from repro.hiperd.robustness import robustness as hiperd_robustness

    mismatches = 0
    pick = inputs.rng(seed, "sample")
    for k in pick.choice(fig3.n_mappings, PAPER_CHECK_SAMPLES, replace=False):
        mapping = Mapping(fig3.assignments[k], fig3.etc.shape[1])
        mismatches += int(alloc_robustness(mapping, fig3.etc, fig3.tau).value != fig3.robustness[k])
    for k in pick.choice(fig4.n_mappings, PAPER_CHECK_SAMPLES, replace=False):
        mapping = Mapping(fig4.assignments[k], fig4.system.n_machines)
        scalar = hiperd_robustness(fig4.system, mapping, fig4.initial_load)
        mismatches += int(scalar.value != fig4.robustness[k])
    return mismatches


def paper_figs(args, clock: OpClock) -> dict:
    """Full regenerations of Fig. 3, Fig. 4 and Table 2 at paper sizes.

    Every regeneration's reports must equal the goldens -- byte for byte
    what ``python -m repro fig3`` / ``fig4`` / ``table2`` print -- and
    ``--seed`` picks the mappings checked against the scalar loops."""
    seen = set()
    while clock.more(len(clock.times)):
        with clock.op():
            fig3, fig4, texts = regenerate()
        seen.add(tuple(sorted(texts.items())))
    clock.stop()
    radii = radii_per_regeneration(fig3, fig4)
    golden = tuple(sorted((name, (GOLDEN / f"{name}.txt").read_text()) for name in texts))
    mismatches = sum(reports != golden for reports in seen) + check_paper(args.seed, fig3, fig4)
    checked = 1 + 2 * PAPER_CHECK_SAMPLES
    return {
        "rates": [radii * len(clock.times) / sum(clock.times)],
        "attempted": len(clock.times) + checked,
        "failed": mismatches,
        "checks": {"sampled": checked, "mismatches": mismatches},
    }


def warm_up(args) -> None:
    """One untimed operation, so lazy imports and first-call costs stay out
    of the measured ones."""
    if args.workload == "paper_figs":
        regenerate()
    else:
        from repro.engine import RobustnessEngine

        gen = inputs.rng(args.seed, "warmup")
        problems = [inputs.fepia_problem(gen) for _ in range(8)]
        RobustnessEngine().evaluate_population(_members(problems), on_error="record")


WORKLOADS = {"population_numeric": population_numeric, "paper_figs": paper_figs}


def traced(args, run) -> dict:
    """Half the time untraced, half traced; per-layer metrics and overhead."""
    tracer = tracing.Tracer(pid=os.getpid())
    tracer.recording = False
    tracing.install(tracer, args.inject_slowdown)
    half = args.seconds / 2
    plain = OpClock(time.perf_counter() + half, args.min_ops)
    run(args, plain)
    tracer.recording = True
    clock = OpClock(time.perf_counter() + half, args.min_ops, tracer)
    result = run(args, clock)
    spans = tracer.spans
    metrics, table, traced_ms = tracing.closed_loop_layers(spans)
    problems = tracing.write_chrome_trace(spans, args.trace_out)
    return {
        **result,
        "metrics": metrics,
        "layers": table,
        "traced_ms": traced_ms,
        "trace_overhead_pct": 100.0 * (
            statistics.fmean(clock.times) / statistics.fmean(plain.times) - 1.0
        ),
        "trace_problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--generations", type=int, default=inputs.POP_GENERATIONS)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--inject-slowdown", default=None, metavar="LAYER=F")
    args = parser.parse_args(argv)
    require_source()
    from repro.engine import RobustnessEngine  # importing repro is the set-up

    RobustnessEngine()
    print("READY", flush=True)
    run = WORKLOADS[args.workload]
    warm_up(args)
    if args.trace_out:
        result = traced(args, run)
    else:
        if args.inject_slowdown:
            tracing.install(None, args.inject_slowdown)
        clock = OpClock(time.perf_counter() + args.seconds, args.min_ops)
        result = {**run(args, clock), "op_times": clock.times}
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
