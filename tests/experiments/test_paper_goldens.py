"""The paper reports regenerate byte-for-byte.

``benchmarks/e2e/golden/`` holds what ``python -m repro fig3`` / ``fig4`` /
``table2`` print with their default seeds and sizes.  These tests run the
same CLI commands and compare the output exactly, so a drift in any number
the paper's Figure 3, Figure 4 or Table 2 shows fails here.  The golden files
are only read, never written.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import cli

GOLDEN = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "golden"


@pytest.mark.parametrize(
    "command, golden",
    [("fig3", "figure3.txt"), ("fig4", "figure4.txt"), ("table2", "table2.txt")],
)
def test_report_matches_golden(command, golden, capsys):
    assert cli.main([command]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")
