"""Nonlinear (convex) complexity functions for HiPer-D systems.

Section 3.2 is explicit that the linear model of the experiments is *not*
part of the metric's formulation: "the computation times of different
applications ... are likely to be of different complexities with respect to
lambda", and the analysis only needs each boundary minimization to be a
convex program (``x^p`` for ``p >= 1`` is among the paper's examples of
convex complexity functions).

This module generalizes the linear model to per-(application, sensor) power
laws:

    T^c_i(lambda) = mtf(m(i)) * sum_z b[i, m(i), z] * |lambda_z|^{p[i, z]}

with exponents ``p >= 1`` (convex; the absolute value extends the model
evenly to negative loads, which keeps the numeric solver's exploration
domain-safe without changing values on the physical domain
``lambda >= 0``).  Path latencies are the corresponding sums along the
chain (communication still linear, as declared on the system).  The metric
is computed through the generic FePIA framework with the SLSQP boundary
solver; for ``p == 1`` everywhere it reproduces the linear fast path
exactly (property-tested).
"""

from __future__ import annotations

import numpy as np

from repro.alloc.mapping import Mapping
from repro.core.fepia import FePIAAnalysis
from repro.core.impact import CallableImpact
from repro.core.metric import MetricResult
from repro.exceptions import ValidationError
from repro.hiperd.model import HiperDSystem
from repro.hiperd.timing import computation_coefficients

__all__ = ["power_law_analysis", "power_law_robustness"]


def _power_impact(coeff: np.ndarray, exps: np.ndarray, name: str) -> CallableImpact:
    """``f(lam) = sum_z coeff_z |lam_z|^{exps_z}`` with its gradient."""

    def f(lam: np.ndarray) -> float:
        return float(np.sum(coeff * np.abs(lam) ** exps))

    def grad(lam: np.ndarray) -> np.ndarray:
        a = np.abs(lam)
        # d/dlam |lam|^p = p |lam|^{p-1} sign(lam); guard 0^{p-1} for p=1.
        with np.errstate(divide="ignore", invalid="ignore"):
            base = np.where(
                a > 0,
                a ** (exps - 1.0),
                # exps holds caller-specified exponents, so the linear case
                # really is the exact literal 1.0, not a computed value
                np.where(exps == 1.0, 1.0, 0.0),
            )
        return coeff * exps * base * np.where(lam >= 0, 1.0, -1.0)

    return CallableImpact(f, grad=grad, name=name, convex=True)


def power_law_analysis(
    system: HiperDSystem,
    mapping: Mapping,
    load_orig,
    exponents,
) -> FePIAAnalysis:
    """Build the FePIA analysis for power-law complexity functions.

    Parameters
    ----------
    exponents:
        ``(n_apps, n_sensors)`` array of per-term exponents, all >= 1.
        Entries for sensors without a route are ignored (their coefficients
        are zero).
    """
    load_orig = np.asarray(load_orig, dtype=float)
    if load_orig.shape != (system.n_sensors,):
        raise ValidationError(f"load_orig must have shape ({system.n_sensors},)")
    exps = np.asarray(exponents, dtype=float)
    if exps.shape != (system.n_apps, system.n_sensors):
        raise ValidationError(
            f"exponents must have shape ({system.n_apps}, {system.n_sensors})"
        )
    if np.any(exps < 1.0):
        raise ValidationError("exponents must be >= 1 (convexity, Section 3.2)")

    comp = computation_coefficients(system, mapping)  # mtf folded in
    rates = system.effective_rates()

    analysis = FePIAAnalysis("hiperd-power-law").with_perturbation(
        "lambda", load_orig, discrete=True
    )

    on_paths = set(map(int, system.apps_on_paths()))
    for i in sorted(on_paths):
        analysis.add_feature(
            f"T_c[a{i}]",
            impact=_power_impact(comp[i], exps[i], f"T_c[a{i}]"),
            upper=1.0 / rates[i],
            meta={"kind": "comp", "app": i},
        )

    # Communication constraints stay linear (affine impacts).
    seen: set[tuple[int, int]] = set()
    for path in system.paths:
        edges = path.edges()
        kind, idx = path.terminal
        if kind == "app" and path.apps:
            edges.append((path.apps[-1], idx))
        for i, p in edges:
            if (i, p) in seen:
                continue
            seen.add((i, p))
            vec = system.comm_coeffs.get((i, p))
            if vec is None:
                continue  # zero transfer time: never binds
            analysis.add_feature(
                f"T_n[a{i}->a{p}]",
                impact=np.asarray(vec, dtype=float),
                upper=1.0 / rates[i],
                meta={"kind": "comm"},
            )

    for k, path in enumerate(system.paths):
        apps = list(path.apps)

        def latency(lam, _apps=tuple(apps)):
            return float(
                sum(np.sum(comp[a] * np.abs(lam) ** exps[a]) for a in _apps)
            )

        def latency_grad(lam, _apps=tuple(apps)):
            a_ = np.abs(lam)
            g = np.zeros_like(lam)
            for a in _apps:
                with np.errstate(divide="ignore", invalid="ignore"):
                    base = np.where(
                        a_ > 0,
                        a_ ** (exps[a] - 1.0),
                        # same exact-literal dispatch as _power_impact above
                        np.where(exps[a] == 1.0, 1.0, 0.0),
                    )
                g = g + comp[a] * exps[a] * base
            return g * np.where(lam >= 0, 1.0, -1.0)

        # Fold linear comm terms of the chain into the latency.
        comm_vec = np.zeros(system.n_sensors)
        edges = path.edges()
        kind, idx = path.terminal
        if kind == "app" and apps:
            edges.append((apps[-1], idx))
        for e in edges:
            vec = system.comm_coeffs.get(e)
            if vec is not None:
                comm_vec = comm_vec + vec
        if np.any(comm_vec != 0):
            base_latency = latency
            base_grad = latency_grad

            def latency(lam, _b=base_latency, _c=comm_vec):
                return _b(lam) + float(_c @ lam)

            def latency_grad(lam, _g=base_grad, _c=comm_vec):
                return _g(lam) + _c

        analysis.add_feature(
            f"L[{k}]",
            impact=CallableImpact(latency, grad=latency_grad, name=f"L[{k}]", convex=True),
            upper=float(system.latency_limits[k]),
            meta={"kind": "latency", "path": k},
        )
    return analysis


def power_law_robustness(
    system: HiperDSystem,
    mapping: Mapping,
    load_orig,
    exponents,
    *,
    config: "SolverConfig | dict | None" = None,
    solver_options: dict | None = None,
) -> MetricResult:
    """The robustness metric under power-law complexity functions.

    Floored (the load is discrete), computed with the numeric convex solver;
    with all exponents 1 this equals the linear closed form.  ``config``
    takes a :class:`~repro.core.config.SolverConfig`; the removed
    ``solver_options`` keyword raises ``ValidationError``.
    """
    from repro.core.config import resolve_config

    cfg = resolve_config(config, solver_options)
    analysis = power_law_analysis(system, mapping, load_orig, exponents)
    return analysis.analyze(config=cfg)
