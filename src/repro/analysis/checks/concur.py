"""Concurrency & async-safety rules R110, R111, R113, R114 (project phase).

The family consumes the concurrency facts extracted into each
:class:`~repro.analysis.dataflow.summaries.FunctionSummary` (``async def``
boundaries, suspension points, lock regions, task spawns, blocking calls,
obs-context use) and the two concurrency fixpoints on
:class:`~repro.analysis.dataflow.project.ProjectContext`
(:attr:`blocking_roots`, :attr:`uses_obs_context`).  Like the rest of the
dataflow family the rules are shape-based and lean toward fewer false
positives: an unresolvable receiver or callee never fires.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.dataflow.project import ProjectContext
from repro.analysis.dataflow.summaries import FunctionSummary, ModuleSummary
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import ProjectRule, register

__all__ = [
    "BlockingInAsyncRule",
    "AwaitStraddleRule",
    "FireAndForgetTaskRule",
    "ContextPropagationGapRule",
]


@register
class BlockingInAsyncRule(ProjectRule):
    """R110: a blocking call (``time.sleep``, a synchronous ``.result()``/
    pool wait, file I/O) runs inside an ``async def`` — directly, or through
    a chain of sync helpers — stalling the whole event loop."""

    code = "R110"
    name = "blocking-call-in-async"
    description = (
        "blocking call (sleep/result/join/IO) inside async code, directly "
        "or through sync helpers — stalls the event loop"
    )
    severity = Severity.ERROR
    applies_to_tests = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        roots = project.blocking_roots
        for mod in project.modules:
            for f in mod.functions.values():
                if not f.is_async:
                    continue
                for bc in f.blocking_calls:
                    yield self.finding_at(
                        mod.path,
                        bc.line,
                        bc.col,
                        f"blocking call {bc.api} inside 'async def "
                        f"{f.name}' stalls the event loop — await an async "
                        "equivalent or hand it to run_in_executor",
                    )
                for rec in f.calls:
                    callee = project.function(rec.callee)
                    desc = roots.get(rec.callee)
                    if callee is None or callee.is_async or desc is None:
                        continue
                    yield self.finding_at(
                        mod.path,
                        rec.line,
                        rec.col,
                        f"'async def {f.name}' calls sync helper "
                        f"{rec.callee.rsplit('.', 1)[-1]}() which blocks: "
                        f"{desc} — the event loop stalls for the duration",
                    )


@register
class AwaitStraddleRule(ProjectRule):
    """R111: shared mutable state (``self`` attributes, mutable module
    globals) is read before a suspension point and written after it without
    a lock covering both — or a pool-submitted callable read-modify-writes
    shared state without any lock."""

    code = "R111"
    name = "await-straddle-race"
    description = (
        "shared state read-modify-written across an await point, or from a "
        "pool-submitted callable, without a lock"
    )
    severity = Severity.ERROR
    applies_to_tests = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for mod in project.modules:
            for f in mod.functions.values():
                if f.is_async:
                    yield from self._straddle_findings(mod, f)
                yield from self._submit_findings(project, mod, f)

    def _straddle_findings(
        self, mod: ModuleSummary, f: FunctionSummary
    ) -> Iterator[Finding]:
        reads: dict[str, list[int]] = {}
        writes: dict[str, list[int]] = {}
        for name, line, kind in f.shared_accesses:
            (reads if kind == "read" else writes).setdefault(name, []).append(line)
        flagged: set[tuple[str, int]] = set()
        for name, write_lines in writes.items():
            for b in write_lines:
                for a in reads.get(name, ()):
                    if a >= b:
                        continue
                    if not any(a < w <= b for w in f.await_lines):
                        continue
                    if any(
                        r.covers(a) and r.covers(b) for r in f.lock_regions
                    ):
                        continue
                    if (name, b) in flagged:
                        continue
                    flagged.add((name, b))
                    yield self.finding_at(
                        mod.path,
                        b,
                        0,
                        f"{name} is read (line {a}) and written (line {b}) "
                        "across an await point without a lock — another "
                        "task can interleave and the update is lost",
                    )

    def _submit_findings(
        self, project: ProjectContext, mod: ModuleSummary, f: FunctionSummary
    ) -> Iterator[Finding]:
        for site in f.submit_sites:
            if site.target is None:
                continue
            target = project.function(site.target)
            if target is None or target.lock_regions:
                continue
            shared = set(target.global_reads) & set(target.global_writes)
            if site.target_kind == "self_attr":
                shared |= set(target.self_reads) & set(target.self_writes)
            if shared:
                yield self.finding_at(
                    mod.path,
                    site.line,
                    site.col,
                    f"submits {site.target.rsplit('.', 1)[-1]} which "
                    f"read-modify-writes shared state "
                    f"({', '.join(sorted(shared))}) without a lock — "
                    "concurrent workers race on the update",
                )


@register
class FireAndForgetTaskRule(ProjectRule):
    """R113: the handle returned by ``asyncio.create_task``/
    ``ensure_future`` is discarded — the task may be garbage-collected
    mid-flight and its exception vanishes (async analogue of R104)."""

    code = "R113"
    name = "fire-and-forget-task"
    description = (
        "asyncio.create_task/ensure_future handle is discarded — the task "
        "can be collected mid-flight and its exception is lost"
    )
    severity = Severity.ERROR
    applies_to_tests = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for mod in project.modules:
            for f in mod.functions.values():
                for spawn in f.task_spawns:
                    if not spawn.discarded:
                        continue
                    what = (
                        spawn.target.rsplit(".", 1)[-1] + "(...)"
                        if spawn.target is not None
                        else "a coroutine"
                    )
                    yield self.finding_at(
                        mod.path,
                        spawn.line,
                        spawn.col,
                        f"{spawn.api}({what}) handle is discarded — keep a "
                        "reference (or await/gather it) so the task cannot "
                        "be collected and its exception cannot vanish",
                    )


@register
class ContextPropagationGapRule(ProjectRule):
    """R114: a callable that consumes ambient obs/contextvar state (spans,
    tracers, module-level ``ContextVar``\\ s) is handed across an executor
    boundary by code that never snapshots the current context — the state
    silently does not cross the boundary."""

    code = "R114"
    name = "context-propagation-gap"
    description = (
        "context-consuming callable crosses an executor boundary without a "
        "current_context()/copy_context() snapshot on the submitting path"
    )
    severity = Severity.ERROR
    applies_to_tests = False

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        uses = project.uses_obs_context
        for mod in project.modules:
            for f in mod.functions.values():
                if f.captures_context:
                    continue
                for site in f.submit_sites:
                    if site.target is None:
                        continue
                    if project.function(site.target) is None:
                        continue
                    if not uses.get(site.target, False):
                        continue
                    yield self.finding_at(
                        mod.path,
                        site.line,
                        site.col,
                        f"submits {site.target.rsplit('.', 1)[-1]} which "
                        "reads ambient obs/contextvar state, but the "
                        "submitting path never snapshots it "
                        "(current_context()/copy_context()) — the context "
                        "will not cross the executor boundary",
                    )
