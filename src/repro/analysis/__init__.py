"""Static analysis of the repro codebase itself — ``repro lint``.

The engine relies on invariants that ordinary tests can only sample:
bit-for-bit scalar/batched parity requires that no library code touches
global RNG state (seeded retry replay); the process-pool fan-out requires
that every submitted callable pickles under spawn; the fault-tolerant layer
requires that no failure is silently swallowed.  This package enforces
those contracts *mechanically*, as an AST lint pass over the source tree,
so the invariants are checkable properties of the program rather than
conventions.  It is development tooling: only ``repro lint`` imports it,
never the runtime.

Rule codes (see :mod:`repro.analysis.checks` and ``docs/ANALYSIS.md``):

====  =========================  ==============================================
R001  legacy-global-rng          global-state RNG breaks seeded replay
R002  unseeded-default-rng       library RNGs must flow from an explicit seed
R004  unpicklable-pool-payload   lambdas/closures across the pool boundary
R008  frozen-field-mutation      ``object.__setattr__`` outside ``__post_init__``
R101  seed-provenance-taint      RNG seed not derivable from config/constants
R102  pool-shared-state-race     pool task reads state the submitter mutates
R104  unrecorded-failure-path    handler drops errors without a FailureRecord
R110  blocking-call-in-async     sleep/result/IO inside ``async def`` stalls loop
R111  await-straddle-race        shared state RMW across await / from pool task
R113  fire-and-forget-task       discarded create_task handle loses exceptions
R114  context-propagation-gap    obs context not carried across executor hop
W000  stale-suppression          ``noqa[CODE]`` marker that no longer fires
====  =========================  ==============================================

R1xx rules are *interprocedural*: they run on per-module dataflow
summaries joined into a project call graph
(:mod:`repro.analysis.dataflow`), so a hazard threaded through helper
functions or across modules is still caught.  Invariants the runtime can
enforce on every backend are checked there instead, not here: impacts see
a read-only ``pi`` (:class:`~repro.core.impact.CallableImpact`), every
engine batch passes the post-conditions of :mod:`repro.engine.sanitize`
(no silent NaN radius, no negative radius at a feasible origin, metric =
minimum radius), and ``tests/test_exceptions.py`` round-trips every
``ReproError`` through pickle and a process pool.

Suppress a deliberate violation inline with ``# repro: noqa[CODE]`` plus a
justification.  Programmatic use::

    from repro.analysis import lint_paths
    report = lint_paths([Path("src")])
    assert report.clean, report.findings
"""

from __future__ import annotations

from repro.analysis.dataflow import ProjectContext, SummaryStore
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import (
    ProjectRule,
    Rule,
    all_rules,
    get_rules,
    register,
    rule_catalog,
)
from repro.analysis.reporters import render_json, render_text
from repro.analysis.runner import (
    DEFAULT_EXCLUDES,
    LintReport,
    changed_python_files,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.suppressions import suppressed_codes

__all__ = [
    "Finding",
    "Severity",
    "Rule",
    "ProjectRule",
    "register",
    "all_rules",
    "get_rules",
    "rule_catalog",
    "LintReport",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "changed_python_files",
    "DEFAULT_EXCLUDES",
    "ProjectContext",
    "SummaryStore",
    "render_text",
    "render_json",
    "suppressed_codes",
]
