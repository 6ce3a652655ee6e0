"""Tests for the command-line interface."""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.seed == 2003
        assert args.n_mappings == 1000
        assert args.tau == 1.2
        assert args.backend is None

    def test_backend_choices(self):
        args = build_parser().parse_args(["fig4", "--backend", "process"])
        assert args.backend == "process"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--backend", "quantum"])


class TestCommands:
    def test_fig3_small(self, capsys, tmp_path):
        out = tmp_path / "fig3.txt"
        rc = main(["fig3", "--n-mappings", "50", "--seed", "1", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Figure 3" in text
        assert out.exists()
        assert "Figure 3" in out.read_text()

    def test_fig4_small(self, capsys):
        rc = main(["fig4", "--n-mappings", "60", "--seed", "7"])
        assert rc == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_table2(self, capsys):
        rc = main(["table2"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "353" in text and "1166" in text

    def test_validate(self, capsys):
        rc = main(["validate", "--samples", "32", "--seed", "5"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "sound: True" in text

    def test_heuristics(self, capsys):
        rc = main(["heuristics", "--seed", "3"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "min_min" in text and "greedy_robust" in text

    def test_monitor(self, capsys):
        rc = main(["monitor", "--steps", "40", "--seed", "8"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "anchor robustness" in text
        assert "adaptive violating steps" in text

    def test_resilience_single_run(self, capsys, tmp_path):
        json_out = tmp_path / "report.json"
        rc = main(
            [
                "resilience",
                "--seed",
                "5",
                "--n-steps",
                "60",
                "--json-out",
                str(json_out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "Temporal resilience" in text
        assert "time to recovery" in text
        payload = json.loads(json_out.read_text())
        assert payload["type"] == "ResilienceReport"

    def test_resilience_experiment_emits_serialized_correlations(
        self, capsys, tmp_path
    ):
        json_out = tmp_path / "experiment.json"
        rc = main(
            [
                "resilience",
                "--experiment",
                "--n-mappings",
                "30",
                "--n-steps",
                "50",
                "--seed",
                "5",
                "--json-out",
                str(json_out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "Radius vs resilience" in text
        assert "radius vs recovery time" in text
        payload = json.loads(json_out.read_text())
        assert payload["type"] == "ResilienceExperimentResult"
        assert "spearman_radius_recovery" in payload


class TestLintExitCodes:
    """repro lint: 0 clean, 1 findings, 2 usage error."""

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_seeded_violation_in_fault_py_copy_exits_one(self, tmp_path, capsys):
        """Acceptance check: copy engine/fault.py, inject a legacy-RNG call,
        and the CLI must fail the build."""
        original = REPO_SRC / "repro" / "engine" / "fault.py"
        copy = tmp_path / "fault.py"
        shutil.copy(original, copy)
        assert main(["lint", str(copy)]) == 0  # the shipped file is clean
        capsys.readouterr()
        with copy.open("a", encoding="utf-8") as fh:
            fh.write("\n\ndef _bad_jitter():\n    np.random.seed(0)\n")
        assert main(["lint", str(copy)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out

    def test_findings_exit_one_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\n\ndef f():\n    np.random.seed(0)\n")
        assert main(["lint", "--format", "json", str(bad)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["total"] == 1
        assert doc["findings"][0]["code"] == "R001"

    def test_select_narrows_rules(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\n\ndef f():\n    np.random.seed(0)\n")
        assert main(["lint", "--select", "R002", str(bad)]) == 0
        capsys.readouterr()
        assert main(["lint", "--select", "R001,R002", str(bad)]) == 1

    def test_no_paths_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "at least one path" in capsys.readouterr().err

    def test_unknown_code_usage_error(self, tmp_path, capsys):
        f = tmp_path / "x.py"
        f.write_text("x = 1\n")
        assert main(["lint", "--select", "R999", str(f)]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "absent.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_bad_flag_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["lint", "--bogus"])
        assert err.value.code == 2

    def test_list_rules_exits_zero(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("R001", "R008", "R101", "R104", "W000"):
            assert code in out

    def test_list_rules_prints_exactly_the_kept_codes(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        codes = [row.split("|", 1)[0].strip() for row in rows if row.strip()]
        assert codes == [
            "R001", "R002", "R004", "R008",
            "R101", "R102", "R104",
            "R110", "R111", "R113", "R114",
            "W000",
        ]


class TestLintFlags:
    """The incremental / git-aware flags added with the dataflow engine."""

    def _bad(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\n\ndef f():\n    np.random.seed(0)\n")
        return bad

    def test_cache_file_written_and_replayed(self, tmp_path, capsys):
        bad = self._bad(tmp_path)
        cache = tmp_path / "cache.json"
        assert main(["lint", "--cache-file", str(cache), str(bad)]) == 1
        assert cache.exists()
        capsys.readouterr()
        assert main(["lint", "--cache-file", str(cache), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "[1 cached, 0 re-analyzed]" in out
        assert "R001" in out  # cached findings still reported

    def test_no_cache_suppresses_cache_annotation(self, tmp_path, capsys):
        bad = self._bad(tmp_path)
        assert main(["lint", "--no-cache", str(bad)]) == 1
        assert "cached" not in capsys.readouterr().out

    def test_select_disables_caching(self, tmp_path, capsys):
        bad = self._bad(tmp_path)
        cache = tmp_path / "cache.json"
        assert main(
            ["lint", "--select", "R001", "--cache-file", str(cache), str(bad)]
        ) == 1
        assert not cache.exists()

    def test_exclude_flag(self, tmp_path, capsys):
        gen = tmp_path / "generated"
        gen.mkdir()
        self._bad(gen)
        assert main(["lint", str(tmp_path)]) == 1
        capsys.readouterr()
        assert main(["lint", "--exclude", "generated", str(tmp_path)]) == 0

    def test_changed_outside_git_falls_back_to_full_lint(
        self, tmp_path, monkeypatch, capsys
    ):
        # outside a git work tree --changed cannot know what changed: it must
        # degrade to a full lint with a warning, not crash with exit 2
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--changed", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "falling back to a full lint" in captured.err
        assert "0 findings" in captured.out

    def test_changed_fallback_still_finds_violations(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "bad.py").write_text(
            "import numpy as np\n\ndef f():\n    np.random.seed(0)\n"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--changed", "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert "falling back to a full lint" in captured.err
        assert "R001" in captured.out

    def test_changed_lints_dirty_files_only(self, tmp_path, monkeypatch, capsys):
        import subprocess

        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("GIT_AUTHOR_NAME", "t")
        monkeypatch.setenv("GIT_AUTHOR_EMAIL", "t@t")
        monkeypatch.setenv("GIT_COMMITTER_NAME", "t")
        monkeypatch.setenv("GIT_COMMITTER_EMAIL", "t@t")
        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        committed = tmp_path / "committed.py"
        committed.write_text("import numpy as np\n\ndef f():\n    np.random.seed(0)\n")
        subprocess.run(["git", "add", "."], cwd=tmp_path, check=True)
        subprocess.run(
            ["git", "commit", "-q", "-m", "seed"], cwd=tmp_path, check=True
        )
        monkeypatch.chdir(tmp_path)
        # clean tree: nothing to lint, the committed violation is not visited
        assert main(["lint", "--changed", "--no-cache"]) == 0
        assert "no changed python files" in capsys.readouterr().out
        (tmp_path / "fresh.py").write_text("x = 1\n")
        assert main(["lint", "--changed", "--no-cache"]) == 0
        assert "1 file" in capsys.readouterr().out
        committed.write_text(committed.read_text() + "\ny = 2\n")
        assert main(["lint", "--changed", "--no-cache"]) == 1
        assert "R001" in capsys.readouterr().out

    def test_changed_ref_lints_committed_range(self, tmp_path, monkeypatch, capsys):
        import subprocess

        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("GIT_AUTHOR_NAME", "t")
        monkeypatch.setenv("GIT_AUTHOR_EMAIL", "t@t")
        monkeypatch.setenv("GIT_COMMITTER_NAME", "t")
        monkeypatch.setenv("GIT_COMMITTER_EMAIL", "t@t")
        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        (tmp_path / "seed.py").write_text("x = 1\n")
        subprocess.run(["git", "add", "."], cwd=tmp_path, check=True)
        subprocess.run(["git", "commit", "-q", "-m", "seed"], cwd=tmp_path, check=True)
        (tmp_path / "bad.py").write_text(
            "import numpy as np\n\ndef f():\n    np.random.seed(0)\n"
        )
        subprocess.run(["git", "add", "."], cwd=tmp_path, check=True)
        subprocess.run(["git", "commit", "-q", "-m", "bad"], cwd=tmp_path, check=True)
        monkeypatch.chdir(tmp_path)
        # the working tree is clean, but the committed range has the violation
        assert main(["lint", "--changed", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["lint", "--changed=HEAD~1", "--no-cache"]) == 1
        assert "R001" in capsys.readouterr().out

    def test_changed_ref_that_is_a_path_exits_2(self, tmp_path, monkeypatch, capsys):
        # `--changed src/` is a likely misreading of the CLI: catch it
        (tmp_path / "src").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--changed", "src", "--no-cache"]) == 2
        assert "git ref" in capsys.readouterr().err


def _fake_faults(monkeypatch, *, holds=True, sound=True, tight=True):
    import repro.faults as faults_mod

    cert = SimpleNamespace(
        radius=1.0, holds=holds, n_samples=10, violations=0, eps=0.01,
        confidence=0.99,
    )
    hv = SimpleNamespace(radius=2.0, sound=sound, tight=tight)
    mf = SimpleNamespace(
        failed_machine=0, fail_time=1.0, baseline_makespan=2.0, makespan=3.0,
        degradation=1.5, reassigned=[1, 2], within_tolerance=True,
    )
    monkeypatch.setattr(faults_mod, "certify", lambda *a, **k: cert)
    monkeypatch.setattr(faults_mod, "validate_hiperd_radius", lambda *a, **k: hv)
    monkeypatch.setattr(
        faults_mod, "machine_failure_scenario", lambda *a, **k: mf
    )


class TestFaultsExitCodes:
    """repro faults: 0 certificate holds, 1 violated, 2 usage error."""

    def test_all_pass_exits_zero(self, monkeypatch, capsys):
        _fake_faults(monkeypatch)
        assert main(["faults"]) == 0
        assert "holds=True" in capsys.readouterr().out

    def test_failed_certificate_exits_one(self, monkeypatch, capsys):
        _fake_faults(monkeypatch, holds=False)
        assert main(["faults"]) == 1
        assert "holds=False" in capsys.readouterr().out

    def test_unsound_radius_exits_one(self, monkeypatch, capsys):
        _fake_faults(monkeypatch, sound=False)
        assert main(["faults"]) == 1
        capsys.readouterr()

    def test_bad_flag_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["faults", "--bogus"])
        assert err.value.code == 2

    def test_bad_value_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["faults", "--eps", "not-a-float"])
        assert err.value.code == 2


class TestModuleEntry:
    def test_python_dash_m(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "table2"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "1166" in proc.stdout
