"""Interprocedural rules R101, R102 and R104 (project phase).

These rules consume the :class:`~repro.analysis.dataflow.project.
ProjectContext` built from every module summary in the run; they see
across call boundaries, which the syntactic R00x rules cannot.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.dataflow.project import ProjectContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import ProjectRule, register

__all__ = [
    "SeedProvenanceRule",
    "PoolSharedStateRule",
    "UnrecordedFailureRule",
]


@register
class SeedProvenanceRule(ProjectRule):
    """R101: an RNG is created from a seed that does not flow from a
    parameter, a ``SolverConfig``, a module constant or a ``utils.rng``
    helper — across function boundaries."""

    code = "R101"
    name = "seed-provenance-taint"
    description = (
        "RNG seed does not derive from a parameter, SolverConfig or "
        "utils.rng helper (interprocedural taint)"
    )
    severity = Severity.ERROR
    applies_to_tests = False

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for mod in project.modules:
            for f in mod.functions.values():
                for site in f.rng_sites:
                    if site.derived and not project.rng_site_tainted(site.depends):
                        continue
                    yield self.finding_at(
                        mod.path,
                        site.line,
                        site.col,
                        f"{site.api}({site.seed_repr}) seeded from a value "
                        "that does not derive from a parameter, SolverConfig, "
                        "module constant or utils.rng helper — the result is "
                        "not replayable",
                    )


@register
class PoolSharedStateRule(ProjectRule):
    """R102: a callable submitted to a pool captures mutable module globals
    (or ``self`` attributes) that the submitting path also writes."""

    code = "R102"
    name = "pool-shared-state-race"
    description = (
        "callable submitted to a pool captures mutable state also written "
        "on the submitting path"
    )
    severity = Severity.ERROR
    applies_to_tests = False

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for mod in project.modules:
            for f in mod.functions.values():
                for site in f.submit_sites:
                    if site.target is None:
                        continue
                    target = project.function(site.target)
                    if target is None:
                        continue
                    shared = project.transitive_global_reads(site.target) & set(
                        f.global_writes
                    )
                    if shared:
                        yield self.finding_at(
                            mod.path,
                            site.line,
                            site.col,
                            f"submits {site.target.rsplit('.', 1)[-1]} which "
                            f"reads mutable module global(s) "
                            f"{', '.join(sorted(shared))} written by the "
                            "submitting function — racy under pool fan-out",
                        )
                        continue
                    if site.target_kind == "self_attr" and f.is_method:
                        shared_self = set(target.self_reads) & set(f.self_writes)
                        if shared_self:
                            yield self.finding_at(
                                mod.path,
                                site.line,
                                site.col,
                                f"submits self.{site.target.rsplit('.', 1)[-1]}"
                                f" which reads self.{', self.'.join(sorted(shared_self))}"
                                " also written by the submitting method — racy"
                                " under pool fan-out",
                            )


@register
class UnrecordedFailureRule(ProjectRule):
    """R104: an except-path in fault-handling code can complete without
    producing a ``FailureRecord`` when ``on_error="record"``."""

    code = "R104"
    name = "unrecorded-failure-path"
    description = (
        "except path in on_error-aware code can swallow a failure without "
        "a FailureRecord"
    )
    severity = Severity.ERROR
    applies_to_tests = False

    #: exception families whose silent disappearance loses a task failure;
    #: plain ``Exception``/``ImportError`` catches are out of scope
    _INTERESTING = frozenset(
        {
            "ReproError",
            "SolverError",
            "SolverTimeoutError",
            "WorkerCrashError",
            "ValidationError",
            "InfeasibleAtOriginError",
            "BrokenProcessPool",
            "TimeoutError",
            "BaseException",
            "*bare*",
        }
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for mod in project.modules:
            for f in mod.functions.values():
                if not f.has_on_error:
                    continue
                for h in f.handlers:
                    caught = {c.rsplit(".", 1)[-1] for c in h.catches}
                    if not caught & self._INTERESTING:
                        continue
                    if h.safe_local:
                        continue
                    if project.call_creates_failure_record(h.calls):
                        continue
                    yield self.finding_at(
                        mod.path,
                        h.line,
                        h.col,
                        f"except clause catching {', '.join(sorted(caught))} "
                        "neither re-raises, stores the exception, nor reaches "
                        "a FailureRecord — a task failure can vanish under "
                        "on_error='record'",
                    )
