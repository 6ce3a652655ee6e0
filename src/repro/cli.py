"""Command-line interface: regenerate the paper's experiments from a shell.

Usage::

    python -m repro fig3      [--seed N] [--n-mappings N] [--tau X] [--out FILE]
    python -m repro fig4      [--seed N] [--n-mappings N] [--out FILE]
    python -m repro table2    [--out FILE]
    python -m repro validate  [--seed N] [--samples N] [--tau X]
    python -m repro heuristics [--seed N] [--tau X]
    python -m repro monitor   [--seed N] [--steps N] [--threshold X]
    python -m repro faults    [--seed N] [--tau X] [--eps X] [--confidence X]
    python -m repro resilience [--seed N] [--tau X] [--n-steps N] [--experiment]
    python -m repro lint      [--format text|json] [--select CODES] [--changed[=REF]] PATHS...
    python -m repro trace run [--profile] [--trace-out FILE] SUBCOMMAND ...
    python -m repro trace check TRACE_FILE [--schema FILE]

Each subcommand prints the regenerated table/figure report (and optionally
writes it to ``--out``).  Exit status is 0 on success, 2 on bad arguments;
``lint`` (and the pass/fail validation commands) exit 1 when findings /
violations are present.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def _add_backend_argument(p: argparse.ArgumentParser) -> None:
    from repro.engine.backends import BACKEND_NAMES

    p.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="execution backend for the robustness engine "
        "(default: REPRO_BACKEND env var, then automatic)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Robustness metric for resource allocation (IPPS 2003) — "
        "experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p3 = sub.add_parser("fig3", help="Figure 3: robustness vs makespan")
    p3.add_argument("--seed", type=int, default=2003)
    p3.add_argument("--n-mappings", type=int, default=1000)
    p3.add_argument("--tau", type=float, default=1.2)
    p3.add_argument("--out", type=Path, default=None)
    _add_backend_argument(p3)

    p4 = sub.add_parser("fig4", help="Figure 4: robustness vs slack (HiPer-D)")
    p4.add_argument("--seed", type=int, default=7)
    p4.add_argument("--n-mappings", type=int, default=1000)
    p4.add_argument("--out", type=Path, default=None)
    _add_backend_argument(p4)

    pt = sub.add_parser("table2", help="Table 2: mappings A and B")
    pt.add_argument("--out", type=Path, default=None)

    pv = sub.add_parser("validate", help="simulated validation of the radius (E4)")
    pv.add_argument("--seed", type=int, default=99)
    pv.add_argument("--samples", type=int, default=200)
    pv.add_argument("--tau", type=float, default=1.2)

    ph = sub.add_parser("heuristics", help="heuristic sweep under the metric (E5)")
    ph.add_argument("--seed", type=int, default=42)
    ph.add_argument("--tau", type=float, default=1.2)

    pm = sub.add_parser(
        "monitor", help="online robustness monitoring under load drift"
    )
    pm.add_argument("--seed", type=int, default=8)
    pm.add_argument("--steps", type=int, default=150)
    pm.add_argument("--threshold", type=float, default=200.0)

    pf = sub.add_parser(
        "faults",
        help="radius certification + machine-failure scenario (fault suite)",
    )
    pf.add_argument("--seed", type=int, default=2003)
    pf.add_argument("--tau", type=float, default=1.2)
    pf.add_argument("--eps", type=float, default=0.01)
    pf.add_argument("--confidence", type=float, default=0.99)
    pf.add_argument("--fail-fraction", type=float, default=0.5)

    pr = sub.add_parser(
        "resilience",
        help="temporal resilience: run a mapping through a perturbation "
        "schedule, or sweep the radius-vs-recovery correlation",
    )
    pr.add_argument("--seed", type=int, default=2003)
    pr.add_argument("--tau", type=float, default=1.2)
    pr.add_argument("--n-steps", type=int, default=200)
    pr.add_argument("--n-events", type=int, default=8)
    pr.add_argument("--horizon", type=float, default=100.0)
    pr.add_argument(
        "--experiment",
        action="store_true",
        help="run the radius-vs-resilience population sweep instead of a "
        "single schedule run",
    )
    pr.add_argument("--n-mappings", type=int, default=200)
    pr.add_argument("--out", type=Path, default=None)
    pr.add_argument(
        "--json-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the serialized result (repro.io JSON codec)",
    )
    _add_backend_argument(pr)

    pl = sub.add_parser(
        "lint",
        help="static analysis: determinism / pickle-safety / numeric contracts",
    )
    pl.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directory trees to lint (required unless --list-rules)",
    )
    pl.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    pl.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all rules)",
    )
    pl.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    pl.add_argument(
        "--exclude",
        action="append",
        default=None,
        metavar="GLOB",
        help="directory-name glob to skip during discovery (repeatable; "
        "default: fixtures)",
    )
    pl.add_argument(
        "--changed",
        nargs="?",
        const=True,
        default=None,
        metavar="REF",
        help="lint only files reported changed by git (staged, unstaged "
        "and untracked); with REF (e.g. --changed=origin/main) files "
        "committed in REF...HEAD are included too; positional paths "
        "become optional",
    )
    pl.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental module-summary cache",
    )
    pl.add_argument(
        "--cache-file",
        type=Path,
        default=None,
        metavar="PATH",
        help="incremental cache location (default: .repro-lint-cache.json)",
    )

    ps = sub.add_parser(
        "serve",
        help="serve robustness evaluations over HTTP (asyncio, micro-batched)",
    )
    ps.add_argument("--host", default="127.0.0.1")
    ps.add_argument("--port", type=int, default=8471)
    ps.add_argument(
        "--batch-size",
        type=int,
        default=16,
        metavar="N",
        help="flush a coalescing group at N requests (default 16)",
    )
    ps.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        metavar="N",
        help="waiting-request bound before 429 backpressure (default 1024)",
    )
    ps.add_argument(
        "--rate",
        type=float,
        default=0.0,
        metavar="R",
        help="per-client requests/second quota (0 disables, the default)",
    )
    ps.add_argument(
        "--burst",
        type=float,
        default=8.0,
        metavar="B",
        help="per-client token-bucket burst capacity (default 8)",
    )
    _add_backend_argument(ps)

    ptr = sub.add_parser(
        "trace",
        help="observability: run a subcommand traced, or validate a trace file",
    )
    tsub = ptr.add_subparsers(dest="trace_command", required=True)
    tr_run = tsub.add_parser(
        "run", help="run another repro subcommand with tracing/metrics enabled"
    )
    tr_run.add_argument(
        "--profile",
        action="store_true",
        help="print the per-stage cost breakdown after the run",
    )
    tr_run.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the spans as Chrome trace_event JSON (chrome://tracing)",
    )
    tr_run.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the metrics registry after the run",
    )
    tr_run.add_argument(
        "--metrics-format",
        choices=("json", "prometheus"),
        default="json",
        help="format of --metrics-out (default: json)",
    )
    tr_run.add_argument(
        "argv",
        nargs=argparse.REMAINDER,
        help="the repro subcommand to run, e.g. 'heuristics --seed 1'",
    )
    tr_check = tsub.add_parser(
        "check", help="validate a Chrome trace JSON file against a golden schema"
    )
    tr_check.add_argument("trace_file", type=Path)
    tr_check.add_argument(
        "--schema",
        type=Path,
        default=None,
        metavar="FILE",
        help="schema description (default: the built-in trace schema)",
    )

    return parser


def _emit(text: str, out: Path | None) -> None:
    print(text)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n", encoding="utf-8")
        print(f"[written to {out}]")


def _cmd_fig3(args) -> int:
    from repro.experiments import report_figure3, run_experiment_one

    result = run_experiment_one(
        n_mappings=args.n_mappings, tau=args.tau, seed=args.seed, backend=args.backend
    )
    _emit(report_figure3(result), args.out)
    return 0


def _cmd_fig4(args) -> int:
    from repro.experiments import report_figure4, run_experiment_two

    result = run_experiment_two(
        n_mappings=args.n_mappings, seed=args.seed, backend=args.backend
    )
    _emit(report_figure4(result), args.out)
    return 0


def _cmd_table2(args) -> int:
    from repro.experiments import report_table2
    from repro.hiperd import PAPER_TABLE2, build_table2_system, robustness, slack

    inst = build_table2_system()
    measured = {}
    for which, mapping in (("A", inst.mapping_a), ("B", inst.mapping_b)):
        r = robustness(inst.system, mapping, inst.initial_load)
        measured[which] = {
            "robustness": r.value,
            "slack": slack(inst.system, mapping, inst.initial_load),
            "lambda_star": tuple(r.boundary),
        }
    _emit(report_table2(measured, PAPER_TABLE2), args.out)
    return 0


def _cmd_validate(args) -> int:
    from repro.alloc.generators import random_mapping
    from repro.etcgen import cvb_etc_matrix
    from repro.sim import validate_allocation_robustness

    etc = cvb_etc_matrix(20, 5, seed=args.seed)
    mapping = random_mapping(20, 5, seed=args.seed + 1)
    report = validate_allocation_robustness(
        mapping, etc, args.tau, n_samples=args.samples, seed=args.seed + 2
    )
    limit = report.tau * report.makespan_orig
    print(f"robustness rho        : {report.robustness:.4f}")
    print(f"predicted makespan    : {report.makespan_orig:.4f} (limit {limit:.4f})")
    print(f"interior samples      : {report.n_samples}, violations {report.interior_violations}")
    print(f"makespan at C*        : {report.boundary_makespan:.4f}")
    print(f"makespan beyond C*    : {report.beyond_makespan:.4f}")
    print(f"sound: {report.sound}, tight: {report.tight}")
    return 0 if (report.sound and report.tight) else 1


def _cmd_heuristics(args) -> int:
    from repro.alloc import load_balance_index
    from repro.alloc.heuristics import HEURISTICS
    from repro.engine import RobustnessEngine
    from repro.etcgen import cvb_etc_matrix
    from repro.utils.tables import format_table

    etc = cvb_etc_matrix(20, 5, seed=args.seed)
    names = sorted(HEURISTICS)
    mappings = [HEURISTICS[name](etc, seed=0) for name in names]
    batch = RobustnessEngine().evaluate_allocation(mappings, etc, args.tau)
    rows = [
        [
            name,
            float(batch.makespans[k]),
            float(batch.values[k]),
            load_balance_index(mapping, etc),
        ]
        for k, (name, mapping) in enumerate(zip(names, mappings))
    ]
    print(
        format_table(
            ["heuristic", "makespan", f"robustness (tau={args.tau})", "load balance"],
            rows,
        )
    )
    return 0


def _cmd_monitor(args) -> int:
    from repro.dynamics import adaptive_remap, monitor, random_walk_loads
    from repro.hiperd import generate_system, random_hiperd_mappings, robustness

    load0 = np.array([962.0, 380.0, 240.0])
    system = generate_system(seed=args.seed)
    mapping = max(
        random_hiperd_mappings(system, 20, seed=args.seed + 1),
        key=lambda m: robustness(system, m, load0, apply_floor=False).raw_value,
    )
    traj = random_walk_loads(
        load0, args.steps, step_scale=5.0, drift=[18.0, 8.0, 5.0], seed=args.seed + 2
    )
    static = monitor(system, mapping, traj)
    adaptive = adaptive_remap(
        system, mapping, traj, threshold=args.threshold, seed=args.seed + 3
    )
    print(f"anchor robustness       : {static.anchor_robustness:.1f}")
    print(f"static first violation  : step {static.first_violation}")
    print(f"static violating steps  : {int(static.violated.sum())} / {len(traj)}")
    print(f"adaptive violating steps: {adaptive.violation_steps} / {len(traj)}")
    print(f"remap events            : {len(adaptive.events)}")
    for ev in adaptive.events:
        print(
            f"  step {ev.step:3d}: {ev.old_robustness:8.1f} -> {ev.new_robustness:8.1f}"
        )
    return 0


def _cmd_faults(args) -> int:
    from repro.alloc.generators import random_mapping
    from repro.etcgen import cvb_etc_matrix
    from repro.faults import certify, machine_failure_scenario, validate_hiperd_radius
    from repro.hiperd import build_table2_system

    etc = cvb_etc_matrix(20, 5, seed=args.seed)
    mapping = random_mapping(20, 5, seed=args.seed + 1)

    cert = certify(
        mapping,
        etc,
        args.tau,
        eps=args.eps,
        confidence=args.confidence,
        seed=args.seed + 2,
    )
    print(f"allocation radius     : {cert.radius:.4f}")
    print(
        f"certificate           : holds={cert.holds} "
        f"({cert.n_samples} samples, {cert.violations} violations, "
        f"eps={cert.eps}, confidence={cert.confidence})"
    )

    inst = build_table2_system()
    hv = validate_hiperd_radius(
        inst.system, inst.mapping_a, inst.initial_load, seed=args.seed + 3
    )
    print(
        f"HiPer-D radius        : {hv.radius:.4f} "
        f"(sound={hv.sound}, tight={hv.tight})"
    )

    mf = machine_failure_scenario(
        mapping, etc, args.tau, fail_fraction=args.fail_fraction
    )
    print(
        f"machine failure       : machine {mf.failed_machine} at "
        f"t={mf.fail_time:.2f}, makespan {mf.baseline_makespan:.2f} -> "
        f"{mf.makespan:.2f} (x{mf.degradation:.3f})"
    )
    print(
        f"reassigned            : {len(mf.reassigned)} applications, "
        f"within tau*M_orig: {mf.within_tolerance}"
    )
    return 0 if cert.holds and hv.sound and hv.tight else 1


def _cmd_resilience(args) -> int:
    from repro.alloc.generators import random_mapping
    from repro.etcgen import cvb_etc_matrix
    from repro.faults import PerturbationSchedule
    from repro.io import save_result
    from repro.resilience import (
        evaluate_resilience,
        report_experiment,
        report_resilience,
        run_resilience_experiment,
    )

    if args.experiment:
        result = run_resilience_experiment(
            n_mappings=args.n_mappings,
            tau=args.tau,
            n_events=args.n_events,
            n_steps=args.n_steps,
            horizon=args.horizon,
            seed=args.seed,
            backend=args.backend,
        )
        _emit(report_experiment(result), args.out)
    else:
        etc = cvb_etc_matrix(20, 5, seed=args.seed)
        mapping = random_mapping(20, 5, seed=args.seed + 1)
        schedule = PerturbationSchedule.generate(
            args.n_events, 20, 5, horizon=args.horizon, seed=args.seed + 2
        )
        result = evaluate_resilience(
            mapping, etc, schedule, args.tau, n_steps=args.n_steps
        )
        _emit(report_resilience(result), args.out)
    if args.json_out is not None:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        save_result(result, args.json_out)
        print(f"[result written to {args.json_out}]")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import (
        SummaryStore,
        all_rules,
        changed_python_files,
        lint_paths,
        render_json,
        render_text,
        rule_catalog,
    )
    from repro.utils.tables import format_table

    if args.list_rules:
        rows = [list(row) for row in rule_catalog()]
        print(format_table(["code", "name", "severity", "description"], rows))
        return 0
    paths = list(args.paths)
    if args.changed is not None:
        # --changed alone diffs the work tree; --changed=REF also includes
        # files committed in REF...HEAD.  A value that exists on disk is
        # almost certainly a positional path that swallowed the flag's
        # optional argument — reject it rather than hand it to git.
        ref = None if args.changed is True else str(args.changed)
        if ref is not None and Path(ref).exists():
            print(
                f"repro lint: --changed={ref} looks like a path, not a git "
                "ref; put paths before --changed or use --changed=REF with "
                "a commit-ish",
                file=sys.stderr,
            )
            return 2
        try:
            changed = changed_python_files(exclude=args.exclude, ref=ref)
        except RuntimeError as err:
            # Not a git work tree (tarball checkout, exported sources):
            # --changed cannot know what changed, so degrade gracefully to a
            # full lint of the requested paths instead of erroring out.
            paths = paths if paths else [Path(".")]
            print(
                f"repro lint: --changed unavailable ({err}); "
                "falling back to a full lint of "
                + " ".join(str(p) for p in paths),
                file=sys.stderr,
            )
        else:
            if not changed:
                print("0 findings in 0 files (no changed python files)")
                return 0
            roots = [p.resolve() for p in paths]
            if roots:
                changed = [
                    f
                    for f in changed
                    if any(r == f or r in f.resolve().parents for r in roots)
                ]
            paths = changed
            if not paths:
                print(
                    "0 findings in 0 files (no changed python files under the given paths)"
                )
                return 0
    elif not paths:
        print(
            "repro lint: at least one path is required "
            "(or --changed / --list-rules)",
            file=sys.stderr,
        )
        return 2
    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
        if not select:
            print(
                f"repro lint: --select={args.select!r} names no rule codes; "
                "expected a comma-separated list like R001,R110",
                file=sys.stderr,
            )
            return 2
        unknown = sorted(set(select) - set(all_rules()))
        if unknown:
            print(
                "repro lint: unknown rule code"
                + ("s" if len(unknown) > 1 else "")
                + " "
                + ", ".join(unknown)
                + "; valid codes: "
                + ", ".join(sorted(all_rules())),
                file=sys.stderr,
            )
            return 2
    cache = None
    if not args.no_cache and select is None:
        store = SummaryStore(args.cache_file) if args.cache_file else SummaryStore()
        cache = store
    try:
        report = lint_paths(paths, select=select, exclude=args.exclude, cache=cache)
    except KeyError as err:
        print(f"repro lint: unknown rule code {err.args[0]!r}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"repro lint: no such path: {err.args[0]}", file=sys.stderr)
        return 2
    render = render_json if args.format == "json" else render_text
    print(
        render(
            report.findings,
            files_checked=report.files_checked,
            n_suppressed=report.n_suppressed,
            n_reanalyzed=report.n_reanalyzed if cache is not None else None,
        )
    )
    return 0 if report.clean else 1


def _cmd_trace_check(args) -> int:
    import json

    from repro import obs

    try:
        doc = json.loads(args.trace_file.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        print(f"repro trace check: cannot read {args.trace_file}: {err}", file=sys.stderr)
        return 2
    schema = None
    if args.schema is not None:
        try:
            schema = json.loads(args.schema.read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            print(
                f"repro trace check: cannot read schema {args.schema}: {err}",
                file=sys.stderr,
            )
            return 2
    problems = obs.validate_chrome_trace(doc, schema)
    if problems:
        for p in problems:
            print(f"INVALID {p}")
        return 1
    print(f"ok: {args.trace_file} ({len(doc['traceEvents'])} events)")
    return 0


def _cmd_trace(args) -> int:
    from repro import obs

    if args.trace_command == "check":
        return _cmd_trace_check(args)

    inner = list(args.argv)
    if inner and inner[0] == "--":
        inner = inner[1:]
    if not inner:
        print(
            "repro trace run: give the subcommand to run, e.g. "
            "'repro trace run --profile heuristics'",
            file=sys.stderr,
        )
        return 2
    if inner[0] == "trace":
        print("repro trace run: nesting trace is not supported", file=sys.stderr)
        return 2
    if inner[0] not in _COMMANDS:
        print(f"repro trace run: unknown subcommand {inner[0]!r}", file=sys.stderr)
        return 2
    inner_args = build_parser().parse_args(inner)
    obs.reset_metrics()
    with obs.observed() as tracer:
        with tracer.span(f"cli.{inner[0]}"):
            status = _COMMANDS[inner_args.command](inner_args)
    spans = tracer.spans()
    if args.profile:
        print()
        print(obs.render_breakdown(spans))
    if args.trace_out is not None:
        obs.write_chrome_trace(spans, args.trace_out)
        print(f"[trace written to {args.trace_out}]")
    if args.metrics_out is not None:
        registry = obs.get_registry()
        text = (
            registry.render_prometheus()
            if args.metrics_format == "prometheus"
            else registry.render_json() + "\n"
        )
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_out.write_text(text, encoding="utf-8")
        print(f"[metrics written to {args.metrics_out}]")
    return status


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import RobustnessServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.batch_size,
        max_pending=args.max_pending,
        rate=args.rate,
        burst=args.burst,
        backend=args.backend,
    )
    server = RobustnessServer(config)

    async def run() -> None:
        await server.start()
        print(
            f"repro serve: listening on http://{config.host}:{server.port} "
            f"(batch={config.max_batch}, backend={server.backend_name})"
        )
        try:
            while True:
                await asyncio.sleep(3600)
        except asyncio.CancelledError:
            pass
        finally:
            print("repro serve: draining...")
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


_COMMANDS = {
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "table2": _cmd_table2,
    "validate": _cmd_validate,
    "heuristics": _cmd_heuristics,
    "monitor": _cmd_monitor,
    "serve": _cmd_serve,
    "faults": _cmd_faults,
    "resilience": _cmd_resilience,
    "lint": _cmd_lint,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    np.set_printoptions(legacy=False)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
