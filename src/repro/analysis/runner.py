"""Lint driver: discovery, per-file phase, project phase, suppression.

A lint run has three phases:

1. **Per-file phase** — each file is parsed once; the local (syntactic)
   rules run against its :class:`~repro.analysis.context.FileContext` and a
   :class:`~repro.analysis.dataflow.summaries.ModuleSummary` is extracted.
   With a :class:`~repro.analysis.dataflow.cache.SummaryStore` attached,
   unchanged files skip this phase entirely: their raw findings, marker map
   and summary are served from the content-addressed cache.
2. **Project phase** — the summaries are combined into a
   :class:`~repro.analysis.dataflow.project.ProjectContext` and the
   registered :class:`~repro.analysis.registry.ProjectRule` subclasses
   (R101–R104) run across the whole set.  This phase is cheap and always
   runs, which is what keeps the incremental cache sound: cross-file facts
   are recomputed from summaries on every run.
3. **Suppression phase** — ``# repro: noqa[CODE]`` markers filter the
   combined findings; markers that suppressed nothing become W000
   stale-suppression findings.

Directory arguments are walked recursively for ``*.py`` files, skipping
``__pycache__`` and hidden directories always, plus anything matching the
exclude globs (default: ``fixtures`` — lint-rule test fixtures *contain
violations on purpose*).  File arguments are always analysed.
"""

from __future__ import annotations

import ast
import subprocess
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Sequence

from repro.analysis.context import FileContext, is_test_path
from repro.analysis.dataflow.cache import CACHE_VERSION, SummaryStore, content_hash
from repro.analysis.dataflow.project import ProjectContext
from repro.analysis.dataflow.summaries import ModuleSummary, summarize_module
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectRule, Rule, all_rules, get_rules
from repro.analysis.suppressions import collect_comment_markers

__all__ = [
    "LintReport",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "changed_python_files",
    "DEFAULT_EXCLUDES",
]

#: directory names never descended into, regardless of excludes
_SKIP_DIRS = frozenset({"__pycache__"})

#: default exclude globs (matched against any path component or the
#: whole path relative to the walked root)
DEFAULT_EXCLUDES: tuple[str, ...] = ("fixtures",)

#: code of the stale-suppression rule (produced here, not by a checker)
_STALE_CODE = "W000"


@dataclass
class LintReport:
    """Aggregate outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    n_suppressed: int = 0
    #: files that went through the full per-file phase (parse + rules +
    #: summary); with a warm cache this is the number of *changed* files
    n_reanalyzed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def files_cached(self) -> int:
        """Files served from the incremental cache."""
        return self.files_checked - self.n_reanalyzed

    def merge(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        self.files_checked += other.files_checked
        self.n_suppressed += other.n_suppressed
        self.n_reanalyzed += other.n_reanalyzed


@dataclass
class _FileAnalysis:
    """Everything the later phases need to know about one file."""

    path: str
    is_test: bool
    markers: dict[int, frozenset[str]]
    raw: list[Finding]
    ran_codes: frozenset[str]
    summary: ModuleSummary | None
    syntax_error: Finding | None = None
    from_cache: bool = False


def _matches_exclude(rel: Path, patterns: tuple[str, ...]) -> bool:
    rel_posix = rel.as_posix()
    for pat in patterns:
        if fnmatch(rel_posix, pat):
            return True
        if any(fnmatch(part, pat) for part in rel.parts):
            return True
    return False


def iter_python_files(
    path: Path, exclude: Sequence[str] | None = None
) -> list[Path]:
    """Python files under *path* (itself, if it is a file).

    *exclude* is a list of glob patterns matched against each candidate's
    path relative to *path* (as posix) and against every individual path
    component; ``None`` means :data:`DEFAULT_EXCLUDES`.  ``__pycache__``
    and hidden directories are always skipped.
    """
    if path.is_file():
        return [path]
    patterns = DEFAULT_EXCLUDES if exclude is None else tuple(exclude)
    found: list[Path] = []
    for candidate in sorted(path.rglob("*.py")):
        rel = candidate.relative_to(path)
        parts = rel.parts[:-1]
        if any(p in _SKIP_DIRS or p.startswith(".") for p in parts):
            continue
        if _matches_exclude(rel, patterns):
            continue
        found.append(candidate)
    return found


def changed_python_files(
    root: Path | None = None,
    exclude: Sequence[str] | None = None,
    ref: str | None = None,
) -> list[Path]:
    """Python files changed in the working tree — and, with *ref*, in history.

    Without *ref* this is ``git status --porcelain`` (staged, unstaged and
    untracked).  With *ref* (a commit-ish such as ``origin/main`` or
    ``HEAD~3``) the committed range ``ref...HEAD`` (``git diff --name-only``,
    merge-base semantics) is unioned in, so a pre-push lint of a feature
    branch covers commits that are no longer dirty.  Backs
    ``repro lint --changed[=REF]``.

    *exclude* applies the same discovery glob semantics as
    :func:`iter_python_files` (``None`` means :data:`DEFAULT_EXCLUDES`), so
    an edited fixture does not flood a pre-push lint run.

    Raises :class:`RuntimeError` when *root* is not inside a git work tree
    or *ref* does not resolve.
    """
    base = root if root is not None else Path.cwd()
    # -uall lists files inside untracked directories individually (the
    # default collapses them to "dir/", hiding every .py underneath)
    proc = subprocess.run(
        ["git", "status", "--porcelain", "-uall"],
        cwd=base,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"git status failed under {base}: {proc.stderr.strip() or 'not a git repository'}"
        )
    names: set[str] = set()
    for line in proc.stdout.splitlines():
        if len(line) < 4:
            continue
        entry = line[3:].strip()
        if " -> " in entry:  # rename: keep the new name
            entry = entry.split(" -> ", 1)[1]
        entry = entry.strip('"')
        if entry.endswith(".py"):
            names.add(entry)
    if ref is not None:
        # status paths are relative to cwd; diff paths to the repo top level.
        # Resolve the top level once so the two name spaces agree.
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=base,
            capture_output=True,
            text=True,
        )
        diff = subprocess.run(
            ["git", "diff", "--name-only", "--diff-filter=d", f"{ref}...HEAD"],
            cwd=base,
            capture_output=True,
            text=True,
        )
        if top.returncode != 0 or diff.returncode != 0:
            detail = (diff.stderr or top.stderr).strip() or f"cannot diff against {ref!r}"
            raise RuntimeError(f"git diff failed under {base}: {detail}")
        topdir = Path(top.stdout.strip())
        for entry in diff.stdout.splitlines():
            entry = entry.strip().strip('"')
            if not entry.endswith(".py"):
                continue
            try:
                names.add(str((topdir / entry).relative_to(base.resolve())))
            except ValueError:
                continue  # changed outside *root* — not ours to lint
    patterns = DEFAULT_EXCLUDES if exclude is None else tuple(exclude)
    files = [
        base / name
        for name in sorted(names)
        if not _matches_exclude(Path(name), patterns)
    ]
    return [f for f in files if f.exists()]


# --------------------------------------------------------------------------
# rule selection
# --------------------------------------------------------------------------


def _resolve_rules(
    select: list[str] | None, rules: list[Rule] | None
) -> tuple[list[Rule], set[str] | None, bool]:
    """(rules to run, emission filter, stale-pass active).

    Selecting W000 forces the full registry to run internally — staleness
    is judged against the rules that ran — while the emission filter keeps
    the output limited to the requested codes.
    """
    if rules is not None:
        return rules, None, any(r.code == _STALE_CODE for r in rules)
    chosen = get_rules(select)
    stale_active = any(r.code == _STALE_CODE for r in chosen)
    if select is None:
        return chosen, None, stale_active
    emit = {r.code for r in chosen}
    if stale_active:
        return get_rules(None), emit, True
    return chosen, emit, stale_active


def _fingerprint() -> str:
    return f"v{CACHE_VERSION}:" + ",".join(sorted(all_rules()))


# --------------------------------------------------------------------------
# per-file phase
# --------------------------------------------------------------------------


def _analyze(
    path: str, source: str, is_test: bool | None, local_rules: list[Rule]
) -> _FileAnalysis:
    """Parse one source string and run the local rules (may raise
    :class:`SyntaxError`)."""
    if is_test is None:
        is_test = is_test_path(path)
    tree = ast.parse(source, filename=path)
    ctx = FileContext(path=path, source=source, tree=tree, is_test=is_test)
    raw: list[Finding] = []
    ran: set[str] = set()
    for rule in local_rules:
        if ctx.is_test and not rule.applies_to_tests:
            continue
        raw.extend(rule.check(ctx))
        ran.add(rule.code)
    return _FileAnalysis(
        path=path,
        is_test=ctx.is_test,
        markers=collect_comment_markers(source),
        raw=raw,
        ran_codes=frozenset(ran),
        summary=summarize_module(ctx),
    )


def _syntax_error_analysis(path: str, err: SyntaxError) -> _FileAnalysis:
    finding = Finding(
        code="R000",
        name="syntax-error",
        message=f"file does not parse: {err.msg}",
        path=path,
        line=err.lineno or 1,
        col=(err.offset or 1) - 1,
    )
    return _FileAnalysis(
        path=path,
        is_test=is_test_path(path),
        markers={},
        raw=[],
        ran_codes=frozenset(),
        summary=None,
        syntax_error=finding,
    )


def _analyze_file(
    file: Path, local_rules: list[Rule], cache: SummaryStore | None
) -> _FileAnalysis:
    data = file.read_bytes()
    key = str(file.resolve())
    digest = content_hash(data) if cache is not None else ""
    if cache is not None:
        entry = cache.get(key, digest)
        if entry is not None:
            return _FileAnalysis(
                path=str(file),
                is_test=bool(entry["is_test"]),
                markers=SummaryStore.entry_markers(entry),
                raw=SummaryStore.entry_findings(entry),
                ran_codes=frozenset(entry["ran_codes"]),
                summary=SummaryStore.entry_summary(entry),
                from_cache=True,
            )
    try:
        analysis = _analyze(str(file), data.decode("utf-8"), None, local_rules)
    except SyntaxError as err:
        return _syntax_error_analysis(str(file), err)
    if cache is not None and analysis.summary is not None:
        cache.put(
            key,
            digest,
            raw_findings=analysis.raw,
            markers=analysis.markers,
            is_test=analysis.is_test,
            ran_codes=sorted(analysis.ran_codes),
            summary=analysis.summary,
        )
    return analysis


# --------------------------------------------------------------------------
# project + suppression phases
# --------------------------------------------------------------------------


def _project_phase(
    analyses: list[_FileAnalysis], project_rules: list[ProjectRule]
) -> list[Finding]:
    if not project_rules:
        return []
    summaries = [a.summary for a in analyses if a.summary is not None]
    if not summaries:
        return []
    project = ProjectContext(summaries)
    test_paths = {a.path for a in analyses if a.is_test}
    findings: list[Finding] = []
    for rule in project_rules:
        for f in rule.check_project(project):
            if f.path in test_paths and not rule.applies_to_tests:
                continue
            findings.append(f)
    return findings


def _apply_markers(
    findings: list[Finding], markers: dict[int, frozenset[str]]
) -> tuple[list[Finding], int, set[tuple[int, str]]]:
    """(kept, n_suppressed, (line, code) markers that earned their keep)."""
    kept: list[Finding] = []
    n_suppressed = 0
    used: set[tuple[int, str]] = set()
    for f in findings:
        codes = markers.get(f.line, frozenset())
        fc = f.code.upper()
        if "*" in codes or fc in codes:
            n_suppressed += 1
            if fc in codes:
                used.add((f.line, fc))
        else:
            kept.append(f)
    return kept, n_suppressed, used


def _stale_findings(
    analysis: _FileAnalysis,
    ran: set[str],
    used: set[tuple[int, str]],
) -> list[Finding]:
    from repro.analysis.checks.stale import StaleSuppressionRule

    rule = StaleSuppressionRule()
    known = set(all_rules())
    out: list[Finding] = []
    for line, codes in sorted(analysis.markers.items()):
        for code in sorted(codes):
            if code in ("*", _STALE_CODE):
                continue
            if (line, code) in used:
                continue
            if code not in known:
                is_known = False
            elif code in ran:
                is_known = True
            else:
                continue
            out.append(rule.stale_finding(analysis.path, line, code, known=is_known))
    return out


def _finalize(
    analyses: list[_FileAnalysis],
    project_findings: list[Finding],
    project_rules: list[ProjectRule],
    emit: set[str] | None,
    stale_active: bool,
) -> LintReport:
    by_path: dict[str, list[Finding]] = {}
    for f in project_findings:
        by_path.setdefault(f.path, []).append(f)
    report = LintReport()
    for a in analyses:
        report.files_checked += 1
        if not a.from_cache:
            report.n_reanalyzed += 1
        if a.syntax_error is not None:
            report.findings.append(a.syntax_error)
            continue
        ran = set(a.ran_codes)
        for rule in project_rules:
            if not (a.is_test and not rule.applies_to_tests):
                ran.add(rule.code)
        file_findings = a.raw + by_path.get(a.path, [])
        kept, n_sup, used = _apply_markers(file_findings, a.markers)
        if stale_active:
            stale = _stale_findings(a, ran, used)
            s_kept, s_sup, _ = _apply_markers(stale, a.markers)
            kept.extend(s_kept)
            n_sup += s_sup
        if emit is not None:
            kept = [f for f in kept if f.code in emit]
        report.findings.extend(kept)
        report.n_suppressed += n_sup
    return report


def _run(
    analyses: list[_FileAnalysis],
    run_rules: list[Rule],
    emit: set[str] | None,
    stale_active: bool,
) -> LintReport:
    project_rules = [r for r in run_rules if isinstance(r, ProjectRule)]
    project_findings = _project_phase(analyses, project_rules)
    return _finalize(analyses, project_findings, project_rules, emit, stale_active)


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    is_test: bool | None = None,
    select: list[str] | None = None,
    rules: list[Rule] | None = None,
) -> LintReport:
    """Lint one source string (the file is its own one-module project).

    ``is_test=None`` infers test-ness from *path*; rule unit tests pass an
    explicit value so fixtures exercise the library-code behaviour
    regardless of where they live on disk.
    """
    run_rules, emit, stale_active = _resolve_rules(select, rules)
    local_rules = [r for r in run_rules if not isinstance(r, ProjectRule)]
    analysis = _analyze(path, source, is_test, local_rules)
    report = _run([analysis], run_rules, emit, stale_active)
    return report


def lint_file(
    path: Path,
    *,
    is_test: bool | None = None,
    select: list[str] | None = None,
    rules: list[Rule] | None = None,
) -> LintReport:
    """Lint one file on disk (syntax errors become a finding, not a crash)."""
    source = path.read_text(encoding="utf-8")
    try:
        return lint_source(
            source, path=str(path), is_test=is_test, select=select, rules=rules
        )
    except SyntaxError as err:
        analysis = _syntax_error_analysis(str(path), err)
        return LintReport(
            findings=[analysis.syntax_error] if analysis.syntax_error else [],
            files_checked=1,
            n_reanalyzed=1,
        )


def lint_paths(
    paths: list[Path],
    *,
    select: list[str] | None = None,
    exclude: Sequence[str] | None = None,
    cache: SummaryStore | None = None,
) -> LintReport:
    """Lint files and directory trees; the entry point behind ``repro lint``.

    *exclude* overrides the default discovery excludes (glob patterns, see
    :func:`iter_python_files`).  *cache* attaches an incremental
    :class:`~repro.analysis.dataflow.cache.SummaryStore`; it is only
    consulted for full-registry runs (``select=None``) so cached raw
    findings always correspond to the complete rule set.

    Raises :class:`FileNotFoundError` for a missing path and
    :class:`KeyError` for an unknown ``--select`` code — the CLI maps both
    to usage errors (exit status 2).
    """
    run_rules, emit, stale_active = _resolve_rules(select, None)
    local_rules = [r for r in run_rules if not isinstance(r, ProjectRule)]
    store = cache if (cache is not None and select is None) else None
    if store is not None:
        store.load(_fingerprint())
    analyses: list[_FileAnalysis] = []
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(str(path))
        for file in iter_python_files(path, exclude):
            analyses.append(_analyze_file(file, local_rules, store))
    report = _run(analyses, run_rules, emit, stale_active)
    if store is not None:
        store.save()
    return report
