"""Golden-file test pinning the ``--format json`` schema.

CI consumers and editor integrations parse this document; any change to key
names or nesting must be additive and must update the golden file
consciously (``tests/analysis/golden/lint_report.json``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import Finding, Severity, render_json

GOLDEN = Path(__file__).parent / "golden" / "lint_report.json"
GOLDEN_CONCUR = Path(__file__).parent / "golden" / "lint_report_concur.json"

#: one minimal trigger per concurrency rule; linted for real so the golden
#: pins the exact codes, names and message wording the reporter emits
CONCUR_SOURCE = """\
import asyncio
import threading
import time
from contextvars import ContextVar

VAR = ContextVar("v")
LOCK_A = threading.Lock()
LOCK_B = threading.Lock()
TOTALS = {}


async def fetch():
    time.sleep(1)


async def bump(cache, key, coro):
    before = TOTALS.get(key, 0)
    await coro
    TOTALS[key] = before + 1


def forward():
    with LOCK_A:
        with LOCK_B:
            pass


def backward():
    with LOCK_B:
        with LOCK_A:
            pass


async def spawn(coro):
    asyncio.create_task(coro())


def consume(x):
    return (VAR.get(), x)


def dispatch(pool, items):
    return [pool.submit(consume, i) for i in items]
"""

def _findings() -> list[Finding]:
    return [
        Finding(
            code="R001",
            name="legacy-global-rng",
            message=(
                "call to the legacy global RNG np.random.seed - thread a "
                "Generator instead"
            ),
            path="src/repro/worker.py",
            line=4,
            col=4,
            severity=Severity.ERROR,
        ),
        Finding(
            code="W000",
            name="stale-suppression",
            message="stale suppression: no R002 finding on this line - remove the noqa",
            path="src/repro/worker.py",
            line=9,
            col=0,
            severity=Severity.WARNING,
        ),
    ]


class TestJsonSchemaGolden:
    def test_document_matches_golden_file(self):
        rendered = render_json(
            _findings(), files_checked=2, n_suppressed=1, n_reanalyzed=1
        )
        assert json.loads(rendered) == json.loads(GOLDEN.read_text(encoding="utf-8"))

    def test_top_level_keys_are_stable(self):
        doc = json.loads(render_json([], files_checked=0))
        assert sorted(doc) == ["findings", "summary"]
        assert sorted(doc["summary"]) == [
            "files_checked",
            "reanalyzed",
            "suppressed",
            "total",
        ]

    def test_finding_keys_are_stable(self):
        doc = json.loads(render_json(_findings(), files_checked=1))
        for entry in doc["findings"]:
            assert sorted(entry) == [
                "code",
                "col",
                "line",
                "message",
                "name",
                "path",
                "severity",
            ]

    def test_round_trips_through_finding(self):
        doc = json.loads(render_json(_findings(), files_checked=2))
        restored = [Finding.from_dict(d) for d in doc["findings"]]
        assert restored == sorted(
            _findings(), key=lambda f: (f.path, f.line, f.col, f.code)
        )

    def test_concur_codes_match_golden_file(self):
        """The rendered document for the concurrency findings is pinned
        verbatim: code vocabulary, rule names and message wording are all
        contract."""
        from repro.analysis import lint_source

        report = lint_source(
            CONCUR_SOURCE,
            path="src/repro/svc.py",
            is_test=False,
            select=["R110", "R111", "R113", "R114"],
        )
        rendered = render_json(
            report.findings, files_checked=1, n_suppressed=0
        )
        doc = json.loads(rendered)
        assert [f["code"] for f in doc["findings"]] == [
            "R110",
            "R111",
            "R113",
            "R114",
        ]
        assert doc == json.loads(GOLDEN_CONCUR.read_text(encoding="utf-8"))

    def test_output_is_deterministic(self):
        a = render_json(_findings(), files_checked=2, n_suppressed=1)
        b = render_json(list(reversed(_findings())), files_checked=2, n_suppressed=1)
        assert a == b
