"""Unit tests for the interprocedural dataflow layer
(:mod:`repro.analysis.dataflow`): module summaries, project propagation and
the incremental summary cache."""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.analysis import LintReport, lint_paths
from repro.analysis.context import FileContext
from repro.analysis.dataflow import (
    ModuleSummary,
    ProjectContext,
    SummaryStore,
    module_name_for_path,
    summarize_module,
)
from repro.analysis.dataflow.cache import CACHE_VERSION, content_hash


def _summary(source: str, path: str = "src/repro/mod.py") -> ModuleSummary:
    ctx = FileContext(
        path=path, source=source, tree=ast.parse(source), is_test=False
    )
    return summarize_module(ctx)


def _project(*sources: tuple[str, str]) -> ProjectContext:
    return ProjectContext([_summary(src, path) for path, src in sources])


class TestModuleNames:
    def test_repro_package_path(self):
        assert module_name_for_path("src/repro/engine/engine.py") == (
            "repro.engine.engine"
        )

    def test_init_maps_to_package(self):
        assert module_name_for_path("src/repro/analysis/__init__.py") == (
            "repro.analysis"
        )

    def test_non_package_path_uses_stem(self):
        assert module_name_for_path("scripts/tool.py") == "tool"


class TestSummaries:
    def test_rng_site_derived_from_param(self):
        s = _summary(
            "import numpy as np\n\n"
            "def f(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        (site,) = s.functions["f"].rng_sites
        assert site.derived and site.depends == ()

    def test_rng_site_tainted_by_time(self):
        # the summary phase records the external call as a dependency; the
        # project phase resolves it as unknown -> tainted
        s = _summary(
            "import numpy as np\nimport time\n\n"
            "def f():\n"
            "    return np.random.default_rng(time.time_ns())\n"
        )
        (site,) = s.functions["f"].rng_sites
        assert site.depends == ("time.time_ns",)
        assert ProjectContext([s]).rng_site_tainted(site.depends)

    def test_rng_site_conditional_on_project_call(self):
        s = _summary(
            "import numpy as np\n\n"
            "def pick(seed):\n"
            "    return seed + 1\n\n"
            "def f(seed):\n"
            "    return np.random.default_rng(pick(seed))\n"
        )
        (site,) = s.functions["f"].rng_sites
        assert site.derived
        assert site.depends == ("repro.mod.pick",)

    def test_unseeded_rng_not_a_site(self):
        s = _summary(
            "import numpy as np\n\n"
            "def f():\n"
            "    return np.random.default_rng()\n"
        )
        assert s.functions["f"].rng_sites == ()

    def test_global_and_self_accesses(self):
        s = _summary(
            "PENDING = []\n\n"
            "class Runner:\n"
            "    def run(self):\n"
            "        self.count += 1\n"
            "        PENDING.append(self.count)\n"
            "    def peek(self):\n"
            "        return self.count\n"
        )
        run = s.functions["Runner.run"]
        assert "PENDING" in run.global_writes
        assert "count" in run.self_writes
        assert "count" in s.functions["Runner.peek"].self_reads
        assert "PENDING" in s.mutable_globals

    def test_serialization_round_trip(self):
        s = _summary(
            "import numpy as np\n"
            "LIMIT = 3\n\n"
            "def f(seed, pi):\n"
            "    pi[0] = 1.0\n"
            "    rng = np.random.default_rng(seed)\n"
            "    try:\n"
            "        return rng, pi\n"
            "    except ValueError as exc:\n"
            "        raise\n"
        )
        payload = json.loads(json.dumps(s.to_dict()))
        restored = ModuleSummary.from_dict(payload)
        assert restored == s


class TestProjectPropagation:
    def test_returns_derived_chains_across_modules(self):
        project = _project(
            (
                "src/repro/a.py",
                "def base(seed):\n    return seed * 2\n",
            ),
            (
                "src/repro/b.py",
                "from repro.a import base\n\n"
                "def via(seed):\n    return base(seed)\n",
            ),
        )
        assert project.returns_derived["repro.a.base"]
        assert project.returns_derived["repro.b.via"]
        assert not project.rng_site_tainted(("repro.b.via",))

    def test_tainted_chain_propagates(self):
        project = _project(
            (
                "src/repro/a.py",
                "import time\n\ndef wall():\n    return time.time_ns()\n",
            ),
            (
                "src/repro/b.py",
                "from repro.a import wall\n\n"
                "def via(seed):\n    return wall()\n",
            ),
        )
        assert not project.returns_derived["repro.b.via"]
        assert project.rng_site_tainted(("repro.b.via",))

    def test_unknown_callee_is_tainted(self):
        project = _project(("src/repro/a.py", "def f():\n    return 1\n"))
        assert project.rng_site_tainted(("some.external.thing",))

    def test_failure_record_reachability(self):
        project = _project(
            (
                "src/repro/a.py",
                "from repro.engine.fault import FailureRecord\n\n"
                "def record(failures, exc):\n"
                "    failures.append(FailureRecord(1, 1, 'solve', str(exc)))\n\n"
                "def via(failures, exc):\n"
                "    record(failures, exc)\n",
            )
        )
        assert project.call_creates_failure_record(("repro.a.record",))
        assert project.call_creates_failure_record(("repro.a.via",))
        assert not project.call_creates_failure_record(("repro.a.missing",))

    def test_transitive_global_reads(self):
        project = _project(
            (
                "src/repro/a.py",
                "STATE = {}\n\n"
                "def leaf():\n    return STATE['k']\n\n"
                "def mid():\n    return leaf()\n",
            )
        )
        assert "STATE" in project.transitive_global_reads("repro.a.mid")


class TestSummaryStore:
    def test_round_trip_and_invalidation(self, tmp_path):
        store = SummaryStore(tmp_path / "cache.json")
        fp = f"v{CACHE_VERSION}:R001"
        store.load(fp)
        digest = content_hash(b"source-a")
        store.put(
            "/x/mod.py",
            digest,
            raw_findings=[],
            markers={},
            is_test=False,
            ran_codes=frozenset({"R001"}),
            summary=_summary("def f():\n    return 1\n"),
        )
        store.save()

        fresh = SummaryStore(tmp_path / "cache.json")
        fresh.load(fp)
        assert len(fresh) == 1
        entry = fresh.get("/x/mod.py", digest)
        assert entry is not None
        assert SummaryStore.entry_summary(entry).functions["f"].name == "f"
        # changed content misses
        assert fresh.get("/x/mod.py", content_hash(b"source-b")) is None

    def test_fingerprint_mismatch_discards(self, tmp_path):
        path = tmp_path / "cache.json"
        store = SummaryStore(path)
        store.load("v1:R001")
        store.put(
            "/x/mod.py",
            content_hash(b"a"),
            raw_findings=[],
            markers={},
            is_test=False,
            ran_codes=frozenset(),
            summary=_summary("x = 1\n"),
        )
        store.save()
        other = SummaryStore(path)
        other.load("v1:R001,R002")  # different rule set
        assert len(other) == 0

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json", encoding="utf-8")
        store = SummaryStore(path)
        store.load("v1:R001")
        assert len(store) == 0


class TestIncrementalLint:
    def _tree(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "clean.py").write_text("def f(x):\n    return x\n", encoding="utf-8")
        (pkg / "other.py").write_text("VALUE = 3\n", encoding="utf-8")
        return pkg

    def test_second_run_reanalyzes_nothing(self, tmp_path):
        pkg = self._tree(tmp_path)
        store = SummaryStore(tmp_path / "cache.json")
        cold = lint_paths([pkg], cache=store)
        assert cold.n_reanalyzed == 2

        warm_store = SummaryStore(tmp_path / "cache.json")
        warm = lint_paths([pkg], cache=warm_store)
        assert warm.n_reanalyzed == 0
        assert warm.files_cached == 2
        assert warm.findings == cold.findings

    def test_edit_reanalyzes_only_that_file(self, tmp_path):
        pkg = self._tree(tmp_path)
        lint_paths([pkg], cache=SummaryStore(tmp_path / "cache.json"))
        (pkg / "clean.py").write_text(
            "def f(x):\n    return x + 1\n", encoding="utf-8"
        )
        warm = lint_paths([pkg], cache=SummaryStore(tmp_path / "cache.json"))
        assert warm.n_reanalyzed == 1
        assert warm.files_cached == 1

    def test_cached_findings_and_suppressions_replayed(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "import numpy as np\n\n"
            "def f():\n"
            "    np.random.seed(0)\n"
            "    rng = np.random.default_rng()  # repro: noqa[R002] - singleton\n"
            "    return rng\n",
            encoding="utf-8",
        )
        cold = lint_paths([pkg], cache=SummaryStore(tmp_path / "c.json"))
        warm = lint_paths([pkg], cache=SummaryStore(tmp_path / "c.json"))
        assert warm.n_reanalyzed == 0
        assert [f.code for f in warm.findings] == [f.code for f in cold.findings]
        assert warm.n_suppressed == cold.n_suppressed == 1

    def test_rule_set_fingerprint_change_forces_reanalysis(
        self, tmp_path, monkeypatch
    ):
        """A warm cache written under an older rule set (pre-R110) must be
        discarded wholesale once the registry grows — stale summaries lack
        the newer facts and would silently produce no new-rule findings."""
        import repro.analysis.runner as runner_mod

        pkg = self._tree(tmp_path)
        cache_file = tmp_path / "cache.json"
        monkeypatch.setattr(
            runner_mod, "_fingerprint", lambda: "v2:R001,R002"
        )
        stale = lint_paths([pkg], cache=SummaryStore(cache_file))
        assert stale.n_reanalyzed == 2

        monkeypatch.undo()
        warm = lint_paths([pkg], cache=SummaryStore(cache_file))
        assert warm.n_reanalyzed == 2  # nothing trusted from the stale store
        assert warm.files_cached == 0

    def test_fingerprint_covers_concur_rules_and_v3_schema(self):
        from repro.analysis.runner import _fingerprint

        fp = _fingerprint()
        assert fp.startswith(f"v{CACHE_VERSION}:")
        assert CACHE_VERSION >= 3
        for code in ("R110", "R111", "R113", "R114"):
            assert code in fp

    def test_fingerprint_drops_retired_rules_and_v6_schema(self):
        from repro.analysis.runner import _fingerprint

        fp = _fingerprint()
        assert fp.startswith(f"v{CACHE_VERSION}:")
        assert CACHE_VERSION >= 6
        for code in ("R003", "R007", "R009", "R112", "R120", "R124"):
            assert code not in fp

    def test_v5_store_discarded_under_v6_schema(self, tmp_path, monkeypatch):
        """A store written under the v5 schema must be discarded wholesale:
        its summaries carry the retired performance facts and its raw
        findings may hold codes of retired rules."""
        import repro.analysis.runner as runner_mod
        from repro.analysis.runner import _fingerprint

        pkg = self._tree(tmp_path)
        cache_file = tmp_path / "cache.json"
        v5 = "v5:" + _fingerprint().split(":", 1)[1]
        monkeypatch.setattr(runner_mod, "_fingerprint", lambda: v5)
        stale = lint_paths([pkg], cache=SummaryStore(cache_file))
        assert stale.n_reanalyzed == 2

        monkeypatch.undo()
        warm = lint_paths([pkg], cache=SummaryStore(cache_file))
        assert warm.n_reanalyzed == 2  # nothing trusted from the v5 store
        assert warm.files_cached == 0

    def test_select_bypasses_cache(self, tmp_path):
        pkg = self._tree(tmp_path)
        store = SummaryStore(tmp_path / "cache.json")
        lint_paths([pkg], cache=store)
        report = lint_paths(
            [pkg], select=["R001"], cache=SummaryStore(tmp_path / "cache.json")
        )
        assert report.n_reanalyzed == 2  # selected runs never trust the cache

    def test_interproc_findings_stable_across_cache(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "tainted.py").write_text(
            "import time\n"
            "import numpy as np\n\n"
            "def f():\n"
            "    return np.random.default_rng(time.time_ns())\n",
            encoding="utf-8",
        )
        cold = lint_paths([pkg], cache=SummaryStore(tmp_path / "c.json"))
        warm = lint_paths([pkg], cache=SummaryStore(tmp_path / "c.json"))
        assert [f.code for f in cold.findings] == ["R101"]
        assert [f.code for f in warm.findings] == ["R101"]
        assert warm.n_reanalyzed == 0


class TestReportAccounting:
    def test_merge_sums_reanalyzed(self):
        a = LintReport(findings=[], files_checked=2, n_reanalyzed=1)
        b = LintReport(findings=[], files_checked=3, n_reanalyzed=3)
        a.merge(b)
        assert a.files_checked == 5
        assert a.n_reanalyzed == 4
        assert a.files_cached == 1
