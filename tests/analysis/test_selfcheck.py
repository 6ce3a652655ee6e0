"""Self-check: the shipped tree satisfies its own static-analysis contracts.

This is the test the tentpole exists for — the invariants PRs 1-2 promised
(seeded replay, pickle transport, failure transparency) hold
mechanically over every file we ship, with each deliberate exception
carrying a documented ``# repro: noqa[CODE]``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis import lint_paths, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]

#: the deliberate, documented suppressions currently in the tree; update
#: this count when adding or removing a justified noqa
EXPECTED_SUPPRESSIONS = 0


def _lint(path: Path):
    report = lint_paths([path])
    detail = render_text(
        report.findings,
        files_checked=report.files_checked,
        n_suppressed=report.n_suppressed,
    )
    return report, detail


class TestShippedTreeIsClean:
    def test_src_tree(self):
        src = Path(repro.__file__).resolve().parent
        report, detail = _lint(src)
        assert report.clean, f"repro lint violations in src:\n{detail}"
        assert report.files_checked > 80

    def test_tests_tree(self):
        report, detail = _lint(REPO_ROOT / "tests")
        assert report.clean, f"repro lint violations in tests:\n{detail}"

    @pytest.mark.parametrize("tree", ["benchmarks", "examples"])
    def test_auxiliary_trees(self, tree):
        path = REPO_ROOT / tree
        if not path.exists():  # pragma: no cover - layout drift guard
            pytest.skip(f"{tree}/ not present")
        report, detail = _lint(path)
        assert report.clean, f"repro lint violations in {tree}:\n{detail}"

    def test_concur_rules_clean_with_zero_suppressions(self):
        """The concurrency family (R110, R111, R113, R114) holds over src
        *and* tests with no noqa escape hatches at all — the service's own
        asyncio / thread / contextvar plumbing is the primary audience of
        these rules, and it must satisfy them outright."""
        concur = ["R110", "R111", "R113", "R114"]
        src = Path(repro.__file__).resolve().parent
        for tree in (src, REPO_ROOT / "tests"):
            report = lint_paths([tree], select=concur)
            detail = render_text(
                report.findings,
                files_checked=report.files_checked,
                n_suppressed=report.n_suppressed,
            )
            assert report.clean, f"concur-rule violations in {tree}:\n{detail}"
            assert report.n_suppressed == 0, tree

    def test_suppression_budget(self):
        """Suppressions are tracked: adding one must be a conscious act."""
        src = Path(repro.__file__).resolve().parent
        report, _ = _lint(src)
        assert report.n_suppressed == EXPECTED_SUPPRESSIONS
