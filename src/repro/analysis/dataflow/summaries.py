"""Module-summary phase of the interprocedural dataflow engine.

:func:`summarize_module` reduces one parsed module to a
:class:`ModuleSummary`: a serializable bundle of per-function facts that the
propagation phase (:mod:`repro.analysis.dataflow.project`) can combine
across files without re-reading any source.  The facts are deliberately
coarse — this is a linter, not a verifier — and every approximation leans
toward *fewer false positives*:

- **Seed derivation** is an optimistic local lattice: a value is *derived*
  when it flows from a constant, a parameter (or attribute of one — config
  objects travel as parameters), a module-level constant, a whitelisted
  pure builtin, a known seed conduit (``numpy.random.default_rng``,
  ``repro.utils.rng.ensure_rng``/``spawn_rngs``), a method call on a derived
  receiver (``root.spawn(n)``) or a call to a *project* function whose own
  return value is derived (resolved later by the project fixpoint).  Any
  other external call taints.
- **Handler shapes** record, for every ``except`` clause, what it catches
  and whether it locally raises / stores the bound exception / calls out —
  enough for R104 to decide if a failure can vanish.
- **Concurrency facts** (R110, R111, R113, R114) are shape-based: lock
  acquisition is a ``with``/``async with`` on a receiver whose name reads
  as a lock, a blocking call is a known-blocking API or a ``.result()``/
  ``.join()``-style wait on a future-ish receiver, and obs-context use is
  a call into the :mod:`repro.obs.trace` ambient-context helpers or a
  ``.get()``/``.set()`` on a module-level ``ContextVar``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Any

from repro.analysis.context import FileContext

__all__ = [
    "RngSite",
    "CallRecord",
    "SubmitSite",
    "HandlerInfo",
    "LockRegion",
    "TaskSpawn",
    "BlockingCall",
    "FunctionSummary",
    "ModuleSummary",
    "summarize_module",
    "module_name_for_path",
    "SEED_CONDUITS",
    "RNG_FACTORIES",
    "BLOCKING_CALLS",
]

#: calls that *produce* seeded randomness from their argument — a derived
#: argument makes the produced generator derived as well
SEED_CONDUITS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "repro.utils.rng.ensure_rng",
        "repro.utils.rng.spawn_rngs",
    }
)

#: RNG creation sites checked by R101 (resolved name -> api label)
RNG_FACTORIES = {
    "numpy.random.default_rng": "default_rng",
    "numpy.random.SeedSequence": "SeedSequence",
    "repro.utils.rng.ensure_rng": "ensure_rng",
    "repro.utils.rng.spawn_rngs": "spawn_rngs",
}

#: pure builtins through which a seed may flow without losing provenance
_SEED_BUILTINS = frozenset(
    {"abs", "int", "float", "hash", "round", "min", "max", "sum", "len", "tuple", "sorted"}
)

#: in-place ndarray/list mutator method names (shared-state writes, R111)
_MUTATORS = frozenset(
    {"fill", "sort", "partition", "put", "itemset", "setfield", "resize",
     "append", "extend", "insert", "pop", "remove", "clear", "update"}
)

#: resolved call names that block the calling thread (R110); a call that is
#: directly awaited is never counted — ``await`` hands the loop back
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.wait",
        "os.waitpid",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "socket.create_connection",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.put",
        "requests.delete",
        "requests.request",
        "concurrent.futures.wait",
        "concurrent.futures.as_completed",
        "open",
        "builtins.open",
        "input",
        "builtins.input",
    }
)

#: blocking *method* names, gated on a receiver whose name reads as the
#: matching kind of object — ``fut.result()`` blocks, ``row.result()`` is
#: just a method that happens to share the name
_BLOCKING_METHODS: dict[str, tuple[str, ...]] = {
    "result": ("fut", "future", "promise"),
    "join": ("thread", "proc", "process", "pool", "worker"),
    "acquire": ("lock", "mutex", "sem"),
    "get": ("queue",),
}

#: receiver-name fragments that read as a lock (regions for R111)
_LOCK_HINTS = ("lock", "mutex")

#: obs ambient-context consumers / producers (tails of resolved call names)
_CONTEXT_USE_TAILS = frozenset({"current_context", "get_tracer", "activate"})
_CONTEXT_CAPTURE_TAILS = frozenset({"current_context", "copy_context"})


def module_name_for_path(path: str) -> str:
    """Dotted module name for *path*: joined from the ``repro`` component
    when present (``src/repro/engine/fault.py`` -> ``repro.engine.fault``),
    otherwise the bare stem.  ``__init__`` maps to its package."""
    p = PurePath(path)
    parts = list(p.parts)
    stem = p.stem if p.suffix == ".py" else p.name
    if stem in ("", "<string>"):
        stem = "_module"
    if "repro" in parts[:-1]:
        i = parts.index("repro")
        dotted = [*parts[i:-1], stem]
        if dotted[-1] == "__init__":
            dotted = dotted[:-1]
        return ".".join(dotted)
    return stem


@dataclass(frozen=True)
class RngSite:
    """One RNG creation call and the provenance of its seed argument."""

    line: int
    col: int
    #: factory label (``default_rng`` / ``ensure_rng`` / ...)
    api: str
    #: seed expression is locally derived (possibly conditional on *depends*)
    derived: bool
    #: project functions whose return value must be derived for this site
    #: to stay derived
    depends: tuple[str, ...] = ()
    #: rendering of the seed expression for the finding message
    seed_repr: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "line": self.line, "col": self.col, "api": self.api,
            "derived": self.derived, "depends": list(self.depends),
            "seed_repr": self.seed_repr,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RngSite":
        return cls(
            line=d["line"], col=d["col"], api=d["api"], derived=d["derived"],
            depends=tuple(d["depends"]), seed_repr=d.get("seed_repr", ""),
        )


@dataclass(frozen=True)
class CallRecord:
    """One resolved call site."""

    #: qualified callee (``repro.engine.fault.solve_one`` or ``mod.Class.m``)
    callee: str
    line: int
    col: int

    def to_dict(self) -> dict[str, Any]:
        return {"callee": self.callee, "line": self.line, "col": self.col}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CallRecord":
        return cls(callee=d["callee"], line=d["line"], col=d["col"])


@dataclass(frozen=True)
class SubmitSite:
    """One ``executor.submit(fn, ...)``-style call."""

    line: int
    col: int
    #: qualified name of the submitted callable, or None when unresolvable
    target: str | None
    #: ``"func"`` for a module function / method name, ``"self_attr"`` for
    #: ``self.method`` passed as the callable
    target_kind: str | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "line": self.line, "col": self.col,
            "target": self.target, "target_kind": self.target_kind,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SubmitSite":
        return cls(
            line=d["line"], col=d["col"],
            target=d["target"], target_kind=d["target_kind"],
        )


@dataclass(frozen=True)
class HandlerInfo:
    """Shape of one ``except`` clause (for the R104 unrecorded-failure rule)."""

    line: int
    col: int
    #: resolved names of the caught exception types; ``("*bare*",)`` for a
    #: bare ``except:``
    catches: tuple[str, ...]
    #: the handler re-raises, or stores / forwards the bound exception —
    #: locally provably not a silent drop
    safe_local: bool
    #: qualified names called from the handler body (for the transitive
    #: FailureRecord-creation check)
    calls: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "line": self.line, "col": self.col, "catches": list(self.catches),
            "safe_local": self.safe_local, "calls": list(self.calls),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "HandlerInfo":
        return cls(
            line=d["line"], col=d["col"], catches=tuple(d["catches"]),
            safe_local=d["safe_local"], calls=tuple(d["calls"]),
        )


@dataclass(frozen=True)
class LockRegion:
    """One ``with <lock>:`` / ``async with <lock>:`` block."""

    #: qualified lock identity (``mod.Class._lock`` / ``mod.GLOBAL_LOCK``)
    name: str
    line: int
    col: int
    end_line: int
    is_async: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "line": self.line, "col": self.col,
            "end_line": self.end_line, "is_async": self.is_async,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "LockRegion":
        return cls(
            name=d["name"], line=d["line"], col=d["col"],
            end_line=d["end_line"], is_async=d["is_async"],
        )

    def covers(self, line: int) -> bool:
        return self.line <= line <= self.end_line


@dataclass(frozen=True)
class TaskSpawn:
    """One ``asyncio.create_task``/``ensure_future`` call."""

    line: int
    col: int
    #: ``"create_task"`` or ``"ensure_future"``
    api: str
    #: qualified coroutine function when resolvable
    target: str | None
    #: the returned handle is dropped (bare expression statement)
    discarded: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "line": self.line, "col": self.col, "api": self.api,
            "target": self.target, "discarded": self.discarded,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TaskSpawn":
        return cls(
            line=d["line"], col=d["col"], api=d["api"],
            target=d["target"], discarded=d["discarded"],
        )


@dataclass(frozen=True)
class BlockingCall:
    """One call that blocks the calling thread (R110)."""

    line: int
    col: int
    #: human-readable api label (``time.sleep`` / ``<fut>.result``)
    api: str

    def to_dict(self) -> dict[str, Any]:
        return {"line": self.line, "col": self.col, "api": self.api}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "BlockingCall":
        return cls(line=d["line"], col=d["col"], api=d["api"])


@dataclass(frozen=True)
class FunctionSummary:
    """Per-function facts feeding the project-level propagation phase."""

    #: qualname within the module (``func`` or ``Class.meth``)
    name: str
    #: declared parameter names, in order (``self`` included for methods)
    params: tuple[str, ...]
    is_method: bool
    line: int
    rng_sites: tuple[RngSite, ...] = ()
    calls: tuple[CallRecord, ...] = ()
    #: unique qualified callee names (superset of ``calls`` callees)
    call_names: tuple[str, ...] = ()
    #: mutable module globals this function reads / writes
    global_reads: tuple[str, ...] = ()
    global_writes: tuple[str, ...] = ()
    #: ``self`` attributes this function reads / writes
    self_reads: tuple[str, ...] = ()
    self_writes: tuple[str, ...] = ()
    submit_sites: tuple[SubmitSite, ...] = ()
    handlers: tuple[HandlerInfo, ...] = ()
    #: takes an ``on_error`` parameter, or is a method of a class that
    #: assigns ``self.on_error`` (scope of R104)
    has_on_error: bool = False
    #: every ``return`` expression is locally seed-derived ...
    returns_derived: bool = False
    #: ... conditional on these project functions also being derived
    returns_depends: tuple[str, ...] = ()
    #: declared ``async def``
    is_async: bool = False
    #: lines of suspension points (``await`` / ``async with`` / ``async for``)
    await_lines: tuple[int, ...] = ()
    blocking_calls: tuple[BlockingCall, ...] = ()
    lock_regions: tuple[LockRegion, ...] = ()
    task_spawns: tuple[TaskSpawn, ...] = ()
    #: (name, line, kind) accesses of shared state — ``self.attr`` or
    #: mutable module globals — recorded only for async functions (R111)
    shared_accesses: tuple[tuple[str, int, str], ...] = ()
    #: consumes ambient obs/contextvar state (``current_context``,
    #: ``get_tracer``, ``activate``, ``ContextVar.get/set``)
    uses_context: bool = False
    #: snapshots ambient context before handing work off
    #: (``current_context()`` / ``copy_context()``)
    captures_context: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "params": list(self.params),
            "is_method": self.is_method,
            "line": self.line,
            "rng_sites": [s.to_dict() for s in self.rng_sites],
            "calls": [c.to_dict() for c in self.calls],
            "call_names": list(self.call_names),
            "global_reads": list(self.global_reads),
            "global_writes": list(self.global_writes),
            "self_reads": list(self.self_reads),
            "self_writes": list(self.self_writes),
            "submit_sites": [s.to_dict() for s in self.submit_sites],
            "handlers": [h.to_dict() for h in self.handlers],
            "has_on_error": self.has_on_error,
            "returns_derived": self.returns_derived,
            "returns_depends": list(self.returns_depends),
            "is_async": self.is_async,
            "await_lines": list(self.await_lines),
            "blocking_calls": [b.to_dict() for b in self.blocking_calls],
            "lock_regions": [r.to_dict() for r in self.lock_regions],
            "task_spawns": [t.to_dict() for t in self.task_spawns],
            "shared_accesses": [list(a) for a in self.shared_accesses],
            "uses_context": self.uses_context,
            "captures_context": self.captures_context,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FunctionSummary":
        return cls(
            name=d["name"],
            params=tuple(d["params"]),
            is_method=d["is_method"],
            line=d["line"],
            rng_sites=tuple(RngSite.from_dict(s) for s in d["rng_sites"]),
            calls=tuple(CallRecord.from_dict(c) for c in d["calls"]),
            call_names=tuple(d["call_names"]),
            global_reads=tuple(d["global_reads"]),
            global_writes=tuple(d["global_writes"]),
            self_reads=tuple(d["self_reads"]),
            self_writes=tuple(d["self_writes"]),
            submit_sites=tuple(SubmitSite.from_dict(s) for s in d["submit_sites"]),
            handlers=tuple(HandlerInfo.from_dict(h) for h in d["handlers"]),
            has_on_error=d["has_on_error"],
            returns_derived=d["returns_derived"],
            returns_depends=tuple(d["returns_depends"]),
            is_async=d.get("is_async", False),
            await_lines=tuple(int(x) for x in d.get("await_lines", ())),
            blocking_calls=tuple(
                BlockingCall.from_dict(b) for b in d.get("blocking_calls", ())
            ),
            lock_regions=tuple(
                LockRegion.from_dict(r) for r in d.get("lock_regions", ())
            ),
            task_spawns=tuple(
                TaskSpawn.from_dict(t) for t in d.get("task_spawns", ())
            ),
            shared_accesses=tuple(
                (str(a), int(b), str(c)) for a, b, c in d.get("shared_accesses", ())
            ),
            uses_context=d.get("uses_context", False),
            captures_context=d.get("captures_context", False),
        )


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the propagation phase needs to know about one module."""

    path: str
    module: str
    is_test: bool
    #: module-level names bound to mutable values (lists, dicts, sets, ...)
    mutable_globals: tuple[str, ...] = ()
    #: module-level names bound to constants (usable as seed roots)
    constant_globals: tuple[str, ...] = ()
    #: classes that assign ``self.on_error`` somewhere (R104 scope)
    classes_with_on_error: tuple[str, ...] = ()
    #: module-level names bound to ``ContextVar(...)`` instances
    contextvar_globals: tuple[str, ...] = ()
    functions: dict[str, FunctionSummary] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "module": self.module,
            "is_test": self.is_test,
            "mutable_globals": list(self.mutable_globals),
            "constant_globals": list(self.constant_globals),
            "classes_with_on_error": list(self.classes_with_on_error),
            "contextvar_globals": list(self.contextvar_globals),
            "functions": {k: f.to_dict() for k, f in self.functions.items()},
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ModuleSummary":
        return cls(
            path=d["path"],
            module=d["module"],
            is_test=d["is_test"],
            mutable_globals=tuple(d["mutable_globals"]),
            constant_globals=tuple(d["constant_globals"]),
            classes_with_on_error=tuple(d["classes_with_on_error"]),
            contextvar_globals=tuple(d.get("contextvar_globals", ())),
            functions={
                k: FunctionSummary.from_dict(f) for k, f in d["functions"].items()
            },
        )


# --------------------------------------------------------------------------
# extraction helpers
# --------------------------------------------------------------------------

_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)
_Scoped = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _own_walk(func: ast.AST) -> list[ast.AST]:
    """Walk *func* without descending into nested function/class scopes."""
    out: list[ast.AST] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _Scoped):
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _param_names(args: ast.arguments) -> tuple[str, ...]:
    names = [a.arg for a in args.posonlyargs + args.args]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return tuple(names)


def _root_name(node: ast.expr) -> str | None:
    """Leftmost ``Name`` of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _qualify(resolved: str, ctx: FileContext, module: str, class_name: str | None) -> str:
    """Qualify a resolved call name against the defining module.

    Bare local names become ``module.name``; ``self.x``/``cls.x`` inside a
    class become ``module.Class.x``; already-dotted names (imports resolved
    by :meth:`FileContext.resolve`) pass through.
    """
    head, _, rest = resolved.partition(".")
    if head in ("self", "cls") and class_name is not None and rest:
        return f"{module}.{class_name}.{rest}"
    if "." not in resolved:
        return f"{module}.{resolved}"
    return resolved


class _SeedScope:
    """Optimistic local seed-derivation environment for one function.

    ``env`` maps a derived name to the set of project functions its
    derivation is conditional on; a name absent from ``env`` is tainted.
    """

    def __init__(
        self,
        ctx: FileContext,
        module: str,
        class_name: str | None,
        params: tuple[str, ...],
        module_constants: frozenset[str],
    ) -> None:
        self.ctx = ctx
        self.module = module
        self.class_name = class_name
        self.env: dict[str, frozenset[str]] = {p: frozenset() for p in params}
        for name in module_constants:
            self.env.setdefault(name, frozenset())

    def derive(self, expr: ast.expr) -> tuple[bool, frozenset[str]]:
        """(is-derived, project functions the verdict is conditional on)."""
        if isinstance(expr, ast.Constant):
            return True, frozenset()
        if isinstance(expr, ast.Name):
            if expr.id in self.env:
                return True, self.env[expr.id]
            return False, frozenset()
        if isinstance(expr, ast.Attribute):
            if expr.attr == "seed":
                return True, frozenset()
            root = _root_name(expr)
            if root is not None and root in self.env:
                return True, self.env[root]
            return False, frozenset()
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return self._conjunction(expr.elts)
        if isinstance(expr, ast.BinOp):
            return self._conjunction([expr.left, expr.right])
        if isinstance(expr, ast.UnaryOp):
            return self.derive(expr.operand)
        if isinstance(expr, ast.IfExp):
            return self._conjunction([expr.body, expr.orelse])
        if isinstance(expr, ast.Subscript):
            return self.derive(expr.value)
        if isinstance(expr, ast.Starred):
            return self.derive(expr.value)
        if isinstance(expr, ast.NamedExpr):
            return self.derive(expr.value)
        if isinstance(expr, ast.Call):
            return self._derive_call(expr)
        return False, frozenset()

    def _conjunction(self, exprs: list[ast.expr]) -> tuple[bool, frozenset[str]]:
        deps: frozenset[str] = frozenset()
        for e in exprs:
            ok, d = self.derive(e)
            if not ok:
                return False, frozenset()
            deps |= d
        return True, deps

    def _derive_call(self, call: ast.Call) -> tuple[bool, frozenset[str]]:
        arg_exprs = list(call.args) + [kw.value for kw in call.keywords]
        resolved = self.ctx.resolve(call.func)
        if resolved in _SEED_BUILTINS or resolved in SEED_CONDUITS:
            return self._conjunction(arg_exprs)
        # method call on a derived receiver: root.spawn(n), rng.integers(...)
        if isinstance(call.func, ast.Attribute):
            r_ok, r_deps = self.derive(call.func.value)
            if r_ok:
                ok, deps = self._conjunction(arg_exprs)
                return (True, deps | r_deps) if ok else (False, frozenset())
        if resolved is None:
            return False, frozenset()
        ok, deps = self._conjunction(arg_exprs)
        if not ok:
            return False, frozenset()
        qual = _qualify(resolved, self.ctx, self.module, self.class_name)
        return True, deps | {qual}

    def fixpoint(self, body: list[ast.AST]) -> None:
        """Iterate assignments until the derived-name set stabilizes."""
        bindings: list[tuple[tuple[str, ...], ast.expr]] = []
        for node in body:
            if isinstance(node, ast.Assign):
                names = tuple(
                    n for t in node.targets for n in _target_names(t)
                )
                if names:
                    bindings.append((names, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                names = tuple(_target_names(node.target))
                if names:
                    bindings.append((names, node.value))
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                bindings.append(((node.target.id,), node.value))
            elif isinstance(node, ast.For):
                names = tuple(_target_names(node.target))
                if names:
                    bindings.append((names, node.iter))
            elif isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
                bindings.append(((node.target.id,), node.value))
            elif isinstance(node, ast.comprehension):
                names = tuple(_target_names(node.target))
                if names:
                    bindings.append((names, node.iter))
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                names = tuple(_target_names(node.optional_vars))
                if names:
                    bindings.append((names, node.context_expr))
        for _ in range(10):
            changed = False
            for names, value in bindings:
                ok, deps = self.derive(value)
                if not ok:
                    continue
                for name in names:
                    old = self.env.get(name)
                    new = deps if old is None else old & deps
                    if old is None or new != old:
                        self.env[name] = new
                        changed = True
            if not changed:
                break


def _target_names(target: ast.expr) -> list[str]:
    """Plain names bound by an assignment/loop target (nested tuples ok)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_target_names(elt))
        return out
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _module_globals(tree: ast.Module) -> tuple[frozenset[str], frozenset[str]]:
    """(mutable, constant) module-level names, judged by their bound value."""
    mutable: set[str] = set()
    constant: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        names = [n for t in targets for n in _target_names(t)]
        names = [n for n in names if not n.startswith("__")]
        if not names:
            continue
        if _is_constant_value(value):
            constant.update(names)
        elif _is_mutable_value(value):
            mutable.update(names)
    return frozenset(mutable), frozenset(constant)


def _is_constant_value(value: ast.expr) -> bool:
    if isinstance(value, ast.Constant):
        return True
    if isinstance(value, ast.UnaryOp):
        return _is_constant_value(value.operand)
    if isinstance(value, ast.Tuple):
        return all(_is_constant_value(e) for e in value.elts)
    if isinstance(value, ast.Call):
        fn = value.func
        return isinstance(fn, ast.Name) and fn.id == "frozenset"
    return False


def _is_mutable_value(value: ast.expr) -> bool:
    return isinstance(
        value,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    )


def _self_accesses(body: list[ast.AST]) -> tuple[frozenset[str], frozenset[str]]:
    """(reads, writes) of ``self.<attr>`` within the function body."""
    reads: set[str] = set()
    writes: set[str] = set()
    for node in body:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id != "self":
                continue
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                writes.add(node.attr)
            else:
                reads.add(node.attr)
        elif isinstance(node, ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr in _MUTATORS
                and isinstance(fn.value, ast.Attribute)
                and isinstance(fn.value.value, ast.Name)
                and fn.value.value.id == "self"
            ):
                writes.add(fn.value.attr)
    return frozenset(reads), frozenset(writes)


def _global_accesses(
    func: ast.AST,
    body: list[ast.AST],
    params: tuple[str, ...],
    mutable_globals: frozenset[str],
) -> tuple[frozenset[str], frozenset[str]]:
    """(reads, writes) of mutable module globals from this function."""
    declared: set[str] = set()
    for node in body:
        if isinstance(node, ast.Global):
            declared.update(node.names)
    local_binds = {
        n
        for node in body
        if isinstance(node, ast.Assign)
        for t in node.targets
        for n in _target_names(t)
    } | set(params)
    reads: set[str] = set()
    writes: set[str] = set()
    for node in body:
        if isinstance(node, ast.Name) and node.id in mutable_globals:
            if isinstance(node.ctx, ast.Load) and node.id not in local_binds:
                reads.add(node.id)
            elif isinstance(node.ctx, ast.Store) and node.id in declared:
                writes.add(node.id)
        # in-place writes through subscript/attr/mutator count as writes
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, (ast.Subscript, ast.Attribute)):
                    root = _root_name(t)
                    if root in mutable_globals and root not in local_binds:
                        writes.add(root)
        elif isinstance(node, ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr in _MUTATORS
                and isinstance(fn.value, ast.Name)
                and fn.value.id in mutable_globals
                and fn.value.id not in local_binds
            ):
                writes.add(fn.value.id)
    return frozenset(reads), frozenset(writes | (declared & mutable_globals))


def _submit_sites(
    body: list[ast.AST],
    ctx: FileContext,
    module: str,
    class_name: str | None,
) -> list[SubmitSite]:
    sites: list[SubmitSite] = []
    for node in body:
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if not isinstance(fn, ast.Attribute):
            continue
        # ExecutionBackend and executor fan-out: .submit and .run_in_executor
        # always; .map only on receivers that read as executors (bare .map is
        # too common an idiom)
        arg_index = 0
        if fn.attr == "submit":
            pass
        elif fn.attr == "run_in_executor":
            arg_index = 1
        elif fn.attr == "map":
            receiver = ctx.resolve(fn.value) or ""
            tail = receiver.rsplit(".", 1)[-1]
            if not (
                tail in ("pool", "executor", "backend")
                or tail.endswith(("_pool", "_executor", "_backend"))
            ):
                continue
        else:
            continue
        target: str | None = None
        kind: str | None = None
        if len(node.args) > arg_index:
            arg0 = node.args[arg_index]
            if isinstance(arg0, ast.Name):
                resolved = ctx.resolve(arg0)
                if resolved is not None:
                    target = _qualify(resolved, ctx, module, class_name)
                    kind = "func"
            elif isinstance(arg0, ast.Attribute):
                resolved = ctx.resolve(arg0)
                if resolved is not None:
                    head = resolved.partition(".")[0]
                    target = _qualify(resolved, ctx, module, class_name)
                    kind = "self_attr" if head in ("self", "cls") else "func"
        sites.append(
            SubmitSite(
                line=node.lineno,
                col=node.col_offset,
                target=target,
                target_kind=kind,
            )
        )
    return sites


def _receiver_tail(expr: ast.expr, ctx: FileContext) -> str | None:
    """Lowercased last segment of a resolved receiver name chain."""
    resolved = ctx.resolve(expr)
    if resolved is None:
        return None
    return resolved.rsplit(".", 1)[-1].lower()


def _await_info(body: list[ast.AST]) -> tuple[tuple[int, ...], frozenset[int]]:
    """(suspension-point lines, ids of Call nodes that are directly awaited)."""
    lines: set[int] = set()
    awaited: set[int] = set()
    for node in body:
        if isinstance(node, ast.Await):
            lines.add(node.lineno)
            if isinstance(node.value, ast.Call):
                awaited.add(id(node.value))
        elif isinstance(node, (ast.AsyncWith, ast.AsyncFor)):
            lines.add(node.lineno)
    return tuple(sorted(lines)), frozenset(awaited)


def _blocking_calls(
    body: list[ast.AST], ctx: FileContext, awaited_ids: frozenset[int]
) -> list[BlockingCall]:
    """Calls that block the calling thread; directly-awaited calls exempt."""
    out: list[BlockingCall] = []
    for node in body:
        if not isinstance(node, ast.Call) or id(node) in awaited_ids:
            continue
        fn = node.func
        resolved = ctx.resolve(fn)
        if resolved in BLOCKING_CALLS:
            out.append(BlockingCall(node.lineno, node.col_offset, resolved))
            continue
        if not isinstance(fn, ast.Attribute):
            continue
        hints = _BLOCKING_METHODS.get(fn.attr)
        if hints is None:
            continue
        tail = _receiver_tail(fn.value, ctx)
        if tail is not None and any(h in tail for h in hints):
            out.append(
                BlockingCall(node.lineno, node.col_offset, f"<{tail}>.{fn.attr}")
            )
        elif fn.attr == "result" and isinstance(fn.value, ast.Call):
            inner = fn.value.func
            itail = _receiver_tail(inner, ctx) or ""
            itail = itail.rsplit(".", 1)[-1]
            if itail in ("submit", "run_coroutine_threadsafe"):
                out.append(
                    BlockingCall(
                        node.lineno, node.col_offset, f"{itail}(...).result"
                    )
                )
    return out


def _lock_name(
    expr: ast.expr, ctx: FileContext, module: str, class_name: str | None
) -> str | None:
    """Qualified lock identity for a with-item receiver, or None."""
    resolved = ctx.resolve(expr)
    if resolved is None:
        return None
    tail = resolved.rsplit(".", 1)[-1].lower()
    if not any(h in tail for h in _LOCK_HINTS) and "sem" not in tail:
        return None
    return _qualify(resolved, ctx, module, class_name)


def _lock_regions(
    body: list[ast.AST], ctx: FileContext, module: str, class_name: str | None
) -> list[LockRegion]:
    regions: list[LockRegion] = []
    for node in body:
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            name = _lock_name(item.context_expr, ctx, module, class_name)
            if name is None:
                continue
            regions.append(
                LockRegion(
                    name=name,
                    line=node.lineno,
                    col=item.context_expr.col_offset,
                    end_line=node.end_lineno or node.lineno,
                    is_async=isinstance(node, ast.AsyncWith),
                )
            )
    return regions


def _task_spawns(
    body: list[ast.AST], ctx: FileContext, module: str, class_name: str | None
) -> list[TaskSpawn]:
    spawns: dict[int, tuple[ast.Call, str, str | None]] = {}
    for node in body:
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        resolved = ctx.resolve(fn)
        api: str | None = None
        if resolved in ("asyncio.create_task", "asyncio.ensure_future"):
            api = resolved.rsplit(".", 1)[-1]
        elif isinstance(fn, ast.Attribute) and fn.attr in (
            "create_task",
            "ensure_future",
        ):
            tail = _receiver_tail(fn.value, ctx)
            if tail is not None and "loop" in tail:
                api = fn.attr
        if api is None:
            continue
        target: str | None = None
        if node.args:
            arg0 = node.args[0]
            texpr = arg0.func if isinstance(arg0, ast.Call) else arg0
            if isinstance(texpr, (ast.Name, ast.Attribute)):
                r = ctx.resolve(texpr)
                if r is not None:
                    target = _qualify(r, ctx, module, class_name)
        spawns[id(node)] = (node, api, target)
    if not spawns:
        return []
    # a handle is discarded exactly when the spawn is a bare expression
    # statement; assigning, awaiting, returning or passing it on keeps it
    discarded = {
        id(node.value)
        for node in body
        if isinstance(node, ast.Expr) and id(node.value) in spawns
    }
    return [
        TaskSpawn(
            line=call.lineno,
            col=call.col_offset,
            api=api,
            target=target,
            discarded=key in discarded,
        )
        for key, (call, api, target) in spawns.items()
    ]


def _context_flags(
    body: list[ast.AST], ctx: FileContext, contextvar_globals: frozenset[str]
) -> tuple[bool, bool]:
    """(uses ambient context, captures it before a hand-off)."""
    uses = captures = False
    for node in body:
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        resolved = ctx.resolve(fn)
        if resolved is not None:
            tail = resolved.rsplit(".", 1)[-1]
            if tail in _CONTEXT_USE_TAILS:
                uses = True
            if tail in _CONTEXT_CAPTURE_TAILS:
                captures = True
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in ("get", "set")
            and isinstance(fn.value, ast.Name)
            and fn.value.id in contextvar_globals
        ):
            uses = True
    return uses, captures


def _shared_accesses(
    body: list[ast.AST],
    params: tuple[str, ...],
    mutable_globals: frozenset[str],
) -> list[tuple[str, int, str]]:
    """(name, line, read|write) accesses of ``self.attr`` / mutable globals."""
    local_binds = {
        n
        for node in body
        if isinstance(node, ast.Assign)
        for t in node.targets
        for n in _target_names(t)
    } | set(params)
    out: list[tuple[str, int, str]] = []
    for node in body:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            kind = "write" if isinstance(node.ctx, (ast.Store, ast.Del)) else "read"
            out.append((f"self.{node.attr}", node.lineno, kind))
        elif isinstance(node, ast.Name) and node.id in mutable_globals:
            if node.id in local_binds:
                continue
            kind = "write" if isinstance(node.ctx, ast.Store) else "read"
            out.append((node.id, node.lineno, kind))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            # writes through a subscript or mutator reach the container
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for t in targets:
                if not isinstance(t, ast.Subscript):
                    continue
                inner = t.value
                if (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "self"
                ):
                    out.append((f"self.{inner.attr}", node.lineno, "write"))
                elif (
                    isinstance(inner, ast.Name)
                    and inner.id in mutable_globals
                    and inner.id not in local_binds
                ):
                    out.append((inner.id, node.lineno, "write"))
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute) and fn.attr in _MUTATORS:
                recv = fn.value
                if (
                    isinstance(recv, ast.Attribute)
                    and isinstance(recv.value, ast.Name)
                    and recv.value.id == "self"
                ):
                    out.append((f"self.{recv.attr}", node.lineno, "write"))
                elif (
                    isinstance(recv, ast.Name)
                    and recv.id in mutable_globals
                    and recv.id not in local_binds
                ):
                    out.append((recv.id, node.lineno, "write"))
    return sorted(set(out))


def _contextvar_globals(tree: ast.Module, ctx: FileContext) -> frozenset[str]:
    """Module-level names bound to a ``ContextVar(...)``."""
    found: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not isinstance(value, ast.Call):
            continue
        resolved = ctx.resolve(value.func)
        if resolved is None or resolved.rsplit(".", 1)[-1] != "ContextVar":
            continue
        found.update(n for t in targets for n in _target_names(t))
    return frozenset(found)


def _handler_infos(
    body: list[ast.AST], ctx: FileContext, module: str, class_name: str | None
) -> list[HandlerInfo]:
    infos: list[HandlerInfo] = []
    for node in body:
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            catches: list[str] = []
            if handler.type is None:
                catches.append("*bare*")
            else:
                types = (
                    handler.type.elts
                    if isinstance(handler.type, ast.Tuple)
                    else [handler.type]
                )
                for t in types:
                    resolved = ctx.resolve(t)
                    catches.append(resolved if resolved is not None else "<?>")
            safe = False
            calls: list[str] = []
            bound = handler.name
            for sub in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
                if isinstance(sub, ast.Raise):
                    safe = True
                if isinstance(sub, ast.Call):
                    resolved = ctx.resolve(sub.func)
                    if resolved is not None:
                        calls.append(_qualify(resolved, ctx, module, class_name))
                    if bound is not None and any(
                        isinstance(a, ast.Name) and a.id == bound for a in sub.args
                    ):
                        safe = True
                    if bound is not None and any(
                        isinstance(kw.value, ast.Name) and kw.value.id == bound
                        for kw in sub.keywords
                    ):
                        safe = True
                if (
                    bound is not None
                    and isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                ):
                    value = sub.value
                    if value is not None and any(
                        isinstance(n, ast.Name) and n.id == bound
                        for n in ast.walk(value)
                    ):
                        safe = True
            infos.append(
                HandlerInfo(
                    line=handler.lineno,
                    col=handler.col_offset,
                    catches=tuple(catches),
                    safe_local=safe,
                    calls=tuple(sorted(set(calls))),
                )
            )
    return infos


def _rng_sites(
    body: list[ast.AST], ctx: FileContext, scope: _SeedScope
) -> list[RngSite]:
    sites: list[RngSite] = []
    for node in body:
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved not in RNG_FACTORIES:
            continue
        seed: ast.expr | None = node.args[0] if node.args else None
        if seed is None:
            for kw in node.keywords:
                if kw.arg == "seed":
                    seed = kw.value
        if seed is None or (isinstance(seed, ast.Constant) and seed.value is None):
            continue  # no-arg / seed=None is R002's domain
        ok, deps = scope.derive(seed)
        sites.append(
            RngSite(
                line=node.lineno,
                col=node.col_offset,
                api=RNG_FACTORIES[resolved],
                derived=ok,
                depends=tuple(sorted(deps)),
                seed_repr=ast.unparse(seed)[:60],
            )
        )
    return sites


def _call_records(
    body: list[ast.AST],
    ctx: FileContext,
    module: str,
    class_name: str | None,
) -> tuple[list[CallRecord], list[str]]:
    records: list[CallRecord] = []
    names: set[str] = set()
    for node in body:
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved is None:
            continue
        qual = _qualify(resolved, ctx, module, class_name)
        names.add(qual)
        if qual:
            records.append(CallRecord(callee=qual, line=node.lineno, col=node.col_offset))
    return records, sorted(names)


def _classes_with_on_error(tree: ast.Module) -> frozenset[str]:
    found: set[str] = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
                and sub.attr == "on_error"
            ):
                found.add(node.name)
                break
    return frozenset(found)


def _summarize_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    ctx: FileContext,
    module: str,
    class_name: str | None,
    mutable_globals: frozenset[str],
    constant_globals: frozenset[str],
    on_error_classes: frozenset[str],
    contextvar_globals: frozenset[str] = frozenset(),
) -> FunctionSummary:
    params = _param_names(func.args)
    body = _own_walk(func)
    full_body = list(ast.walk(func))

    is_async = isinstance(func, ast.AsyncFunctionDef)
    await_lines, awaited_ids = _await_info(body)
    blocking = _blocking_calls(body, ctx, awaited_ids)
    lock_regions = _lock_regions(body, ctx, module, class_name)
    task_spawns = _task_spawns(body, ctx, module, class_name)
    uses_ctx, captures_ctx = _context_flags(full_body, ctx, contextvar_globals)
    shared = (
        _shared_accesses(body, params, mutable_globals) if is_async else []
    )

    scope = _SeedScope(ctx, module, class_name, params, constant_globals)
    scope.fixpoint(full_body)
    rng_sites = _rng_sites(full_body, ctx, scope)

    returns = [
        n for n in body if isinstance(n, ast.Return) and n.value is not None
    ]
    if returns:
        ret_ok = True
        ret_deps: frozenset[str] = frozenset()
        for r in returns:
            ok, deps = scope.derive(r.value)  # type: ignore[arg-type]
            if not ok:
                ret_ok = False
                break
            ret_deps |= deps
        returns_derived, returns_depends = ret_ok, tuple(sorted(ret_deps)) if ret_ok else ()
    else:
        returns_derived, returns_depends = False, ()

    self_reads, self_writes = _self_accesses(full_body)
    g_reads, g_writes = _global_accesses(func, full_body, params, mutable_globals)
    calls, call_names = _call_records(full_body, ctx, module, class_name)

    name = func.name if class_name is None else f"{class_name}.{func.name}"
    has_on_error = "on_error" in params or (
        class_name is not None and class_name in on_error_classes
    )
    return FunctionSummary(
        name=name,
        params=params,
        is_method=class_name is not None,
        line=func.lineno,
        rng_sites=tuple(rng_sites),
        calls=tuple(calls),
        call_names=tuple(call_names),
        global_reads=tuple(sorted(g_reads)),
        global_writes=tuple(sorted(g_writes)),
        self_reads=tuple(sorted(self_reads)),
        self_writes=tuple(sorted(self_writes)),
        submit_sites=tuple(_submit_sites(full_body, ctx, module, class_name)),
        handlers=tuple(_handler_infos(full_body, ctx, module, class_name)),
        has_on_error=has_on_error,
        returns_derived=returns_derived,
        returns_depends=returns_depends,
        is_async=is_async,
        await_lines=await_lines,
        blocking_calls=tuple(blocking),
        lock_regions=tuple(lock_regions),
        task_spawns=tuple(
            sorted(task_spawns, key=lambda t: (t.line, t.col))
        ),
        shared_accesses=tuple(shared),
        uses_context=uses_ctx,
        captures_context=captures_ctx,
    )


def summarize_module(ctx: FileContext) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one parsed file."""
    module = module_name_for_path(ctx.path)
    mutable_globals, constant_globals = _module_globals(ctx.tree)
    on_error_classes = _classes_with_on_error(ctx.tree)
    contextvar_globals = _contextvar_globals(ctx.tree, ctx)
    functions: dict[str, FunctionSummary] = {}
    for node in ctx.tree.body:
        if isinstance(node, _FuncDef):
            s = _summarize_function(
                node, ctx, module, None, mutable_globals, constant_globals,
                on_error_classes, contextvar_globals,
            )
            functions[s.name] = s
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FuncDef):
                    s = _summarize_function(
                        item, ctx, module, node.name, mutable_globals,
                        constant_globals, on_error_classes, contextvar_globals,
                    )
                    functions[s.name] = s
    # module-level rng sites (outside any function) get a synthetic summary
    top_body = [
        n
        for n in ctx.tree.body
        if not isinstance(n, (*_FuncDef, ast.ClassDef))
    ]
    top_nodes: list[ast.AST] = []
    for n in top_body:
        top_nodes.extend(ast.walk(n))
    top_scope = _SeedScope(ctx, module, None, (), constant_globals)
    top_scope.fixpoint(top_nodes)
    top_sites = _rng_sites(top_nodes, ctx, top_scope)
    if top_sites:
        functions["<module>"] = FunctionSummary(
            name="<module>",
            params=(),
            is_method=False,
            line=1,
            rng_sites=tuple(top_sites),
        )
    return ModuleSummary(
        path=ctx.path,
        module=module,
        is_test=ctx.is_test,
        mutable_globals=tuple(sorted(mutable_globals)),
        constant_globals=tuple(sorted(constant_globals)),
        classes_with_on_error=tuple(sorted(on_error_classes)),
        contextvar_globals=tuple(sorted(contextvar_globals)),
        functions=functions,
    )
