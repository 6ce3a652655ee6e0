"""Framework tests: registry, suppressions, reporters, runner discovery."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LintReport,
    Severity,
    all_rules,
    get_rules,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    rule_catalog,
    suppressed_codes,
)
from repro.analysis.registry import Rule, register
from repro.analysis.runner import (
    DEFAULT_EXCLUDES,
    changed_python_files,
    iter_python_files,
    lint_file,
)


class TestRegistry:
    def test_registered_rule_codes(self):
        expected = ["R001", "R002", "R004", "R008"]
        expected += ["R101", "R102", "R104"]
        expected += ["R110", "R111", "R113", "R114"]
        expected += ["W000"]
        assert sorted(all_rules()) == sorted(expected)

    def test_select_subset(self):
        rules = get_rules(["R001", "r004"])  # case-insensitive
        assert [r.code for r in rules] == ["R001", "R004"]

    def test_unknown_code_raises_keyerror(self):
        with pytest.raises(KeyError):
            get_rules(["R999"])

    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError, match="duplicate rule code"):

            @register
            class Clash(Rule):  # pragma: no cover - never instantiated
                code = "R001"
                name = "clash"

                def check(self, ctx):
                    return iter(())

    def test_missing_code_rejected(self):
        with pytest.raises(ValueError, match="must define code"):

            @register
            class Anonymous(Rule):  # pragma: no cover - never instantiated
                def check(self, ctx):
                    return iter(())

    def test_catalog_rows(self):
        rows = rule_catalog()
        assert len(rows) == len(all_rules())
        for code, name, severity, description in rows:
            assert code.startswith(("R", "W"))
            assert name and description
            assert severity in ("error", "warning")


class TestSuppressions:
    def test_blanket(self):
        assert suppressed_codes("x = 1  # repro: noqa") == {"*"}

    def test_single_code(self):
        assert suppressed_codes("x  # repro: noqa[R003]") == {"R003"}

    def test_multiple_codes_and_case(self):
        assert suppressed_codes("x  # repro: noqa[r003, R007]") == {"R003", "R007"}

    def test_plain_noqa_not_honoured(self):
        assert suppressed_codes("x = 1  # noqa") == frozenset()

    def test_no_comment(self):
        assert suppressed_codes("x = 1") == frozenset()

    def test_suppression_filters_finding(self):
        src = "import numpy as np\n\ndef f():\n    np.random.seed(0)  # repro: noqa[R001]\n"
        report = lint_source(src, is_test=False, select=["R001"])
        assert report.clean
        assert report.n_suppressed == 1

    def test_wrong_code_does_not_suppress(self):
        src = "import numpy as np\n\ndef f():\n    np.random.seed(0)  # repro: noqa[R002]\n"
        report = lint_source(src, is_test=False, select=["R001"])
        assert len(report.findings) == 1
        assert report.n_suppressed == 0


def _finding(code="R001", line=3):
    return Finding(
        code=code,
        name="legacy-global-rng",
        message="msg",
        path="pkg/mod.py",
        line=line,
        col=4,
        severity=Severity.ERROR,
    )


class TestReporters:
    def test_text_line_format(self):
        text = render_text([_finding()], files_checked=2)
        assert "pkg/mod.py:3:4: R001 [error] msg" in text
        assert "1 finding in 2 files" in text

    def test_text_mentions_suppressed(self):
        text = render_text([], files_checked=1, n_suppressed=2)
        assert "(2 suppressed)" in text

    def test_json_round_trips(self):
        doc = json.loads(render_json([_finding()], files_checked=1, n_suppressed=1))
        assert doc["summary"] == {
            "total": 1,
            "files_checked": 1,
            "suppressed": 1,
            "reanalyzed": 1,
        }
        (entry,) = doc["findings"]
        assert entry["code"] == "R001"
        assert entry["severity"] == "error"
        assert entry["line"] == 3

    def test_sorted_by_location(self):
        text = render_text([_finding(line=9), _finding(line=2)])
        assert text.index(":2:") < text.index(":9:")


class TestRunner:
    def test_fixture_dirs_skipped_in_discovery(self, tmp_path):
        (tmp_path / "fixtures").mkdir()
        (tmp_path / "fixtures" / "bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        (tmp_path / "mod.py").write_text("x = 1\n")
        files = iter_python_files(tmp_path)
        assert [f.name for f in files] == ["mod.py"]

    def test_pycache_and_hidden_skipped(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "h.py").write_text("x = 1\n")
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert [f.name for f in iter_python_files(tmp_path)] == ["ok.py"]

    def test_explicit_file_always_linted(self, tmp_path):
        bad = tmp_path / "fixtures" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import numpy as np\n\ndef f():\n    np.random.seed(0)\n")
        report = lint_paths([bad])
        assert len(report.findings) == 1

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([Path("does/not/exist")])

    def test_syntax_error_becomes_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        report = lint_file(broken)
        assert len(report.findings) == 1
        assert report.findings[0].code == "R000"

    def test_merge_accumulates(self):
        a = LintReport(findings=[_finding()], files_checked=1, n_suppressed=1)
        b = LintReport(findings=[_finding(line=5)], files_checked=2, n_suppressed=0)
        a.merge(b)
        assert len(a.findings) == 2
        assert a.files_checked == 3
        assert a.n_suppressed == 1

    def test_default_excludes_are_fixtures(self):
        assert DEFAULT_EXCLUDES == ("fixtures",)

    def test_custom_exclude_globs(self, tmp_path):
        for name in ("fixtures", "generated", "vendored_x"):
            d = tmp_path / name
            d.mkdir()
            (d / "mod.py").write_text("x = 1\n")
        (tmp_path / "keep.py").write_text("x = 1\n")
        files = iter_python_files(tmp_path, exclude=["generated", "vendored_*"])
        # custom excludes REPLACE the default: fixtures/ is discovered again
        assert [f.name for f in files] == ["mod.py", "keep.py"]
        assert files[0].parent.name == "fixtures"

    def test_exclude_relative_path_glob(self, tmp_path):
        deep = tmp_path / "pkg" / "skip_me"
        deep.mkdir(parents=True)
        (deep / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        files = iter_python_files(tmp_path, exclude=["pkg/skip_me/*"])
        assert [f.name for f in files] == ["ok.py"]

    def test_lint_paths_forwards_exclude(self, tmp_path):
        gen = tmp_path / "generated"
        gen.mkdir()
        (gen / "bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        assert not lint_paths([tmp_path]).clean
        assert lint_paths([tmp_path], exclude=["generated"]).clean

    def test_is_test_inferred_from_path(self, tmp_path):
        src = "import numpy as np\nnp.random.seed(0)\n"
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        f = tests_dir / "test_mod.py"
        f.write_text(src)
        assert lint_paths([f]).clean  # test file: R001 relaxed
        g = tmp_path / "mod.py"
        g.write_text(src)
        assert len(lint_paths([g]).findings) == 1


class TestChangedFiles:
    def _git(self, root, *args):
        import subprocess

        subprocess.run(
            ["git", *args],
            cwd=root,
            check=True,
            capture_output=True,
            env={
                "PATH": os.environ["PATH"],
                "GIT_AUTHOR_NAME": "t",
                "GIT_AUTHOR_EMAIL": "t@t",
                "GIT_COMMITTER_NAME": "t",
                "GIT_COMMITTER_EMAIL": "t@t",
                "HOME": str(root),
            },
        )

    def _repo(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        (tmp_path / "tracked.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("prose\n")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        return tmp_path

    def test_untracked_staged_and_modified_python_files(self, tmp_path):
        repo = self._repo(tmp_path)
        (repo / "tracked.py").write_text("x = 2\n")  # modified
        (repo / "fresh.py").write_text("y = 1\n")  # untracked
        (repo / "staged.py").write_text("z = 1\n")
        self._git(repo, "add", "staged.py")
        (repo / "notes.txt").write_text("changed prose\n")  # not python
        names = sorted(p.name for p in changed_python_files(repo))
        assert names == ["fresh.py", "staged.py", "tracked.py"]

    def test_clean_tree_returns_nothing(self, tmp_path):
        repo = self._repo(tmp_path)
        assert changed_python_files(repo) == []

    def test_excludes_apply_to_changed_files(self, tmp_path):
        repo = self._repo(tmp_path)
        fixture_dir = repo / "fixtures"
        fixture_dir.mkdir()
        (fixture_dir / "bad.py").write_text("import random\n")
        (repo / "real.py").write_text("x = 1\n")
        assert [p.name for p in changed_python_files(repo)] == ["real.py"]
        both = changed_python_files(repo, exclude=[])
        assert sorted(p.name for p in both) == ["bad.py", "real.py"]

    def test_rename_keeps_new_name(self, tmp_path):
        repo = self._repo(tmp_path)
        self._git(repo, "mv", "tracked.py", "renamed.py")
        assert [p.name for p in changed_python_files(repo)] == ["renamed.py"]

    def test_outside_git_raises_runtime_error(self, tmp_path):
        with pytest.raises(RuntimeError, match="git status failed"):
            changed_python_files(tmp_path)

    def test_ref_includes_committed_files(self, tmp_path):
        repo = self._repo(tmp_path)
        (repo / "committed.py").write_text("a = 1\n")
        (repo / "prose.txt").write_text("not python\n")
        self._git(repo, "add", ".")
        self._git(repo, "commit", "-q", "-m", "change")
        # a clean tree still reports the files of the committed range
        assert changed_python_files(repo) == []
        names = sorted(p.name for p in changed_python_files(repo, ref="HEAD~1"))
        assert names == ["committed.py"]

    def test_ref_combines_with_working_tree_changes(self, tmp_path):
        repo = self._repo(tmp_path)
        (repo / "committed.py").write_text("a = 1\n")
        self._git(repo, "add", "committed.py")
        self._git(repo, "commit", "-q", "-m", "change")
        (repo / "dirty.py").write_text("b = 1\n")
        names = sorted(p.name for p in changed_python_files(repo, ref="HEAD~1"))
        assert names == ["committed.py", "dirty.py"]

    def test_ref_deleted_files_are_skipped(self, tmp_path):
        repo = self._repo(tmp_path)
        self._git(repo, "rm", "-q", "tracked.py")
        self._git(repo, "commit", "-q", "-m", "drop")
        assert changed_python_files(repo, ref="HEAD~1") == []

    def test_bad_ref_raises_runtime_error(self, tmp_path):
        repo = self._repo(tmp_path)
        with pytest.raises(RuntimeError, match="git diff"):
            changed_python_files(repo, ref="no-such-ref")
