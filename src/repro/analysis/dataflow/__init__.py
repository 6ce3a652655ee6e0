"""Interprocedural dataflow layer of :mod:`repro.analysis`.

The syntactic rules (R00x) look at one statement at a time.  This
subpackage adds a project-wide view in two phases:

1. **Summary phase** (:mod:`repro.analysis.dataflow.summaries`) — each
   module is reduced to a serializable :class:`ModuleSummary`: per-function
   facts about parameters, RNG creation sites and their seed provenance,
   call records, captured globals / ``self`` attributes, pool submissions
   and except-handler shapes.
2. **Propagation phase** (:mod:`repro.analysis.dataflow.project`) — a
   :class:`ProjectContext` indexes every summary, builds the call graph and
   runs small monotone fixpoints (seed derivation of return values,
   transitive ``FailureRecord`` creation, transitive global capture) that
   power the cross-function rules R101, R102 and R104 in
   :mod:`repro.analysis.checks.interproc`.

Summaries are content-addressed: :class:`~repro.analysis.dataflow.cache.
SummaryStore` persists them (plus each file's raw local findings) keyed by
a sha256 of the source, so an unchanged file is never re-parsed — only the
cheap propagation phase re-runs.
"""

from __future__ import annotations

from repro.analysis.dataflow.cache import SummaryStore
from repro.analysis.dataflow.project import ProjectContext
from repro.analysis.dataflow.summaries import (
    FunctionSummary,
    ModuleSummary,
    module_name_for_path,
    summarize_module,
)

__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "ProjectContext",
    "SummaryStore",
    "module_name_for_path",
    "summarize_module",
]
