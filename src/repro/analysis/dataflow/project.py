"""Propagation phase: project-wide fixpoints over module summaries.

A :class:`ProjectContext` indexes every :class:`~repro.analysis.dataflow.
summaries.FunctionSummary` by its fully-qualified name and runs three small
monotone fixpoints on the call graph:

- :attr:`returns_derived` — which functions provably return seed-derived
  values (pessimistic start: a function is underived until every project
  dependency of its return expressions is derived);
- :meth:`creates_failure_record` — whether a function can (transitively)
  construct a ``FailureRecord``;
- :meth:`transitive_global_reads` — mutable module globals captured
  directly or through callees (bounded BFS).

The concurrency rules add two more:

- :attr:`blocking_roots` — sync functions that (transitively) perform a
  blocking call, with a human-readable chain for the finding message (R110);
- :attr:`uses_obs_context` — whether a function (transitively) consumes
  ambient obs/contextvar state (R114).

All fixpoints are computed lazily on first use and cached for the lifetime
of the context, which is one lint run.
"""

from __future__ import annotations

from repro.analysis.dataflow.summaries import FunctionSummary, ModuleSummary

__all__ = ["ProjectContext"]

#: call-graph BFS depth bound (defence against pathological cycles; the
#: fixpoints themselves are iteration-capped as well)
_MAX_DEPTH = 12


class ProjectContext:
    """Cross-file view over every module summarized in one lint run."""

    def __init__(self, modules: list[ModuleSummary]) -> None:
        self.modules: list[ModuleSummary] = modules
        #: fully-qualified function name -> summary
        self.functions: dict[str, FunctionSummary] = {}
        #: fully-qualified function name -> owning module summary
        self.owner: dict[str, ModuleSummary] = {}
        for mod in modules:
            for fname, fsum in mod.functions.items():
                qual = f"{mod.module}.{fname}"
                self.functions[qual] = fsum
                self.owner[qual] = mod
        self._returns_derived: dict[str, bool] | None = None
        self._creates_fr: dict[str, bool] | None = None
        self._global_reads: dict[str, frozenset[str]] = {}
        self._blocking_roots: dict[str, str] | None = None
        self._uses_context: dict[str, bool] | None = None

    # -- resolution --------------------------------------------------------

    def function(self, qualname: str) -> FunctionSummary | None:
        """Summary for a fully-qualified name, or None when unknown."""
        return self.functions.get(qualname)

    # -- fixpoint: seed derivation of return values ------------------------

    @property
    def returns_derived(self) -> dict[str, bool]:
        """Function qualname -> "its return value is seed-derived"."""
        if self._returns_derived is None:
            status = {q: False for q in self.functions}
            for _ in range(_MAX_DEPTH):
                changed = False
                for qual, f in self.functions.items():
                    if status[qual] or not f.returns_derived:
                        continue
                    if all(status.get(dep, False) for dep in f.returns_depends):
                        status[qual] = True
                        changed = True
                if not changed:
                    break
            self._returns_derived = status
        return self._returns_derived

    def rng_site_tainted(self, site_depends: tuple[str, ...]) -> bool:
        """True when any dependency of an RNG site fails to derive."""
        table = self.returns_derived
        return any(not table.get(dep, False) for dep in site_depends)

    # -- fixpoint: transitive FailureRecord creation -----------------------

    @property
    def creates_failure_record(self) -> dict[str, bool]:
        """Function qualname -> "can construct a FailureRecord"."""
        if self._creates_fr is None:
            status: dict[str, bool] = {}
            for qual, f in self.functions.items():
                status[qual] = any(
                    name.rsplit(".", 1)[-1] == "FailureRecord"
                    for name in f.call_names
                )
            for _ in range(_MAX_DEPTH):
                changed = False
                for qual, f in self.functions.items():
                    if status[qual]:
                        continue
                    if any(status.get(c, False) for c in f.call_names):
                        status[qual] = True
                        changed = True
                if not changed:
                    break
            self._creates_fr = status
        return self._creates_fr

    def call_creates_failure_record(self, call_names: tuple[str, ...]) -> bool:
        """True when any of *call_names* is (or transitively reaches) a
        ``FailureRecord`` constructor."""
        table = self.creates_failure_record
        for name in call_names:
            if name.rsplit(".", 1)[-1] == "FailureRecord":
                return True
            if table.get(name, False):
                return True
        return False

    # -- bounded BFS: transitive mutable-global capture --------------------

    def transitive_global_reads(self, qualname: str) -> frozenset[str]:
        """Mutable module globals read by *qualname* or any callee."""
        cached = self._global_reads.get(qualname)
        if cached is not None:
            return cached
        seen: set[str] = set()
        reads: set[str] = set()
        frontier = [qualname]
        for _ in range(_MAX_DEPTH):
            if not frontier:
                break
            next_frontier: list[str] = []
            for name in frontier:
                if name in seen:
                    continue
                seen.add(name)
                f = self.functions.get(name)
                if f is None:
                    continue
                reads.update(f.global_reads)
                next_frontier.extend(f.call_names)
            frontier = next_frontier
        result = frozenset(reads)
        self._global_reads[qualname] = result
        return result

    # -- fixpoint: transitively-blocking sync functions (R110) -------------

    @property
    def blocking_roots(self) -> dict[str, str]:
        """Sync function qualname -> description of the blocking call it
        performs, directly or through sync callees.  Async functions are
        excluded: their own blocking sites are reported where they occur,
        and an ``await``-ed async callee never blocks the loop."""
        if self._blocking_roots is None:
            roots: dict[str, str] = {}
            for qual, f in self.functions.items():
                if f.is_async or not f.blocking_calls:
                    continue
                bc = f.blocking_calls[0]
                roots[qual] = f"{bc.api} (line {bc.line})"
            for _ in range(_MAX_DEPTH):
                changed = False
                for qual, f in self.functions.items():
                    if qual in roots or f.is_async:
                        continue
                    for rec in f.calls:
                        desc = roots.get(rec.callee)
                        callee = self.functions.get(rec.callee)
                        if desc is None or callee is None or callee.is_async:
                            continue
                        short = rec.callee.rsplit(".", 1)[-1]
                        roots[qual] = f"{short}() -> {desc}"
                        changed = True
                        break
                if not changed:
                    break
            self._blocking_roots = roots
        return self._blocking_roots

    # -- fixpoint: transitive obs-context consumption (R114) ---------------

    @property
    def uses_obs_context(self) -> dict[str, bool]:
        """Function qualname -> "consumes ambient obs/contextvar state"."""
        if self._uses_context is None:
            status = {q: f.uses_context for q, f in self.functions.items()}
            for _ in range(_MAX_DEPTH):
                changed = False
                for qual, f in self.functions.items():
                    if status[qual]:
                        continue
                    if any(status.get(c, False) for c in f.call_names):
                        status[qual] = True
                        changed = True
                if not changed:
                    break
            self._uses_context = status
        return self._uses_context
