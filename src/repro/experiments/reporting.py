"""Plain-text reports regenerating the paper's figures and tables.

The paper's Figures 3 and 4 are scatter plots; here they are rendered as the
underlying series (binned summary rows) plus an ASCII scatter, so the
benchmark harness can "print the same rows/series the paper reports" without
a plotting stack.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.experiment1 import ExperimentOneResult, cluster_analysis
from repro.experiments.experiment2 import (
    ExperimentTwoResult,
    find_ab_pair,
    find_flat_band,
)
from repro.utils.tables import ascii_scatter, format_table

__all__ = ["report_figure3", "report_figure4", "report_table2"]


def _binned_rows(x: np.ndarray, y: np.ndarray, n_bins: int = 8) -> list[list]:
    """Summary rows: per x-bin, the count and the y min/median/max."""
    edges = np.quantile(x, np.linspace(0, 1, n_bins + 1))
    rows = []
    for b in range(n_bins):
        lo, hi = edges[b], edges[b + 1]
        sel = (x >= lo) & (x <= hi if b == n_bins - 1 else x < hi)
        if not sel.any():
            continue
        ys = y[sel]
        rows.append(
            [f"[{lo:.4g}, {hi:.4g}]", int(sel.sum()), float(ys.min()),
             float(np.median(ys)), float(ys.max())]
        )
    return rows


def report_figure3(result: ExperimentOneResult) -> str:
    """Figure 3: robustness against makespan, plus the cluster structure."""
    lines = [
        "=== Figure 3 — robustness vs makespan "
        f"({result.n_mappings} random mappings, tau={result.tau}) ===",
        "",
        format_table(
            ["makespan bin", "n", "rho min", "rho median", "rho max"],
            _binned_rows(result.makespans, result.robustness),
            title="series: robustness by makespan bin",
        ),
        "",
    ]
    ca = cluster_analysis(result)
    rows = [
        [int(x), int(n1), float(res), int(nout)]
        for x, n1, res, nout in zip(
            ca.xs, ca.s1_sizes, ca.s1_max_residual, ca.outlier_sizes
        )
    ]
    lines.append(
        format_table(
            ["x = n(m(C_orig))", "|S1(x)|", "max |rho - line|", "outliers"],
            rows,
            title="cluster structure: rho = (tau-1) M / sqrt(x) on S1(x)",
        )
    )
    lines.append(f"all outliers on/below their x-line: {ca.outliers_below_line}")
    lines.append("")
    # The companion view the paper describes but does not show: robustness
    # against the load-balance index.
    finite_lbi = np.isfinite(result.load_balance)
    lines.append(
        format_table(
            ["load-balance bin", "n", "rho min", "rho median", "rho max"],
            _binned_rows(
                result.load_balance[finite_lbi], result.robustness[finite_lbi], 6
            ),
            title='series: robustness by load-balance-index bin (the "not shown" plot)',
        )
    )
    lines.append("")
    lines.append(
        ascii_scatter(
            result.makespans,
            result.robustness,
            xlabel="makespan",
            ylabel="robustness",
        )
    )
    # The paper's companion observation: similar makespan, sharply different
    # robustness.
    rho = result.robustness[np.argsort(result.makespans)]
    window = max(result.n_mappings // 50, 2)
    # Windows starting at 0 .. n - window - 1.
    windows = np.lib.stride_tricks.sliding_window_view(rho, window)[:-1]
    spreads = windows.max(axis=1) / np.maximum(windows.min(axis=1), 1e-12)
    lines.append(
        f"max robustness ratio among mappings within a {window}-mapping "
        f"makespan window: {spreads.max():.2f}x"
    )
    return "\n".join(lines)


def report_figure4(result: ExperimentTwoResult) -> str:
    """Figure 4: robustness against slack, plus the A/B pair and flat band."""
    feas = result.feasible
    lines = [
        "=== Figure 4 — robustness vs slack "
        f"({result.n_mappings} random mappings; {int(feas.sum())} feasible) ===",
        "",
        format_table(
            ["slack bin", "n", "rho min", "rho median", "rho max"],
            _binned_rows(result.slack[feas], result.robustness[feas]),
            title="series: robustness by slack bin (feasible mappings)",
        ),
        "",
        ascii_scatter(
            result.slack[feas],
            result.robustness[feas],
            xlabel="slack",
            ylabel="robustness",
        ),
    ]
    try:
        pair = find_ab_pair(result)
        lines.append(
            format_table(
                ["", "mapping A", "mapping B"],
                [
                    ["robustness", pair.robustness_a, pair.robustness_b],
                    ["slack", pair.slack_a, pair.slack_b],
                ],
                title=f"Table-2-style pair (robustness ratio {pair.ratio:.2f}x at "
                f"|slack gap| = {abs(pair.slack_b - pair.slack_a):.4f})",
            )
        )
    except ValueError as exc:
        lines.append(f"Table-2-style pair: not found ({exc})")
    try:
        band = find_flat_band(result)
        lines.append(
            f"flat band: {band.size} mappings with identical robustness "
            f"~{band.robustness:.0f} (dominant binding constraint "
            f"{band.binding_name}) across slack "
            f"[{band.slack_min:.3f}, {band.slack_max:.3f}]"
        )
    except ValueError as exc:
        lines.append(f"flat band: not detected at this sample size ({exc})")
    return "\n".join(lines)


def report_table2(measured: dict, published: dict) -> str:
    """Table 2: paper-vs-measured comparison for mappings A and B.

    ``measured``/``published`` map "A"/"B" to dicts with keys
    ``robustness``, ``slack``, ``lambda_star``.
    """
    rows = []
    for which in ("A", "B"):
        pub, got = published[which], measured[which]
        rows.append([f"{which} robustness", pub["robustness"], got["robustness"]])
        rows.append([f"{which} slack", pub["slack"], round(got["slack"], 4)])
        rows.append(
            [
                f"{which} lambda*",
                str(tuple(round(float(v)) for v in pub["lambda_star"])),
                str(tuple(round(float(v), 1) for v in got["lambda_star"])),
            ]
        )
    ratio_pub = published["B"]["robustness"] / published["A"]["robustness"]
    ratio_got = measured["B"]["robustness"] / measured["A"]["robustness"]
    rows.append(["robustness ratio B/A", round(ratio_pub, 3), round(ratio_got, 3)])
    return format_table(
        ["quantity", "paper", "measured"],
        rows,
        title="=== Table 2 — mappings A and B (paper vs reconstruction) ===",
    )
