"""Per-rule positive/negative fixture tests.

Every rule has one fixture that triggers it and one that does not.  The
fixtures live under ``fixtures/`` (which lint discovery deliberately skips)
and are linted with ``is_test=False`` so they exercise the library-code
behaviour of each rule.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import all_rules, lint_file, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: code -> (bad fixture findings expected, rule name)
EXPECTED_BAD = {
    "R001": 3,
    "R002": 2,
    "R004": 4,
    "R008": 2,
    "R101": 3,
    "R102": 3,
    "R104": 2,
    "R110": 2,
    "R111": 2,
    "R113": 2,
    "R114": 2,
    "W000": 2,
}

CODES = sorted(EXPECTED_BAD)


def _lint_fixture(name: str, code: str):
    return lint_file(FIXTURES / name, is_test=False, select=[code])


class TestFixturesPerRule:
    @pytest.mark.parametrize("code", CODES)
    def test_bad_fixture_triggers(self, code):
        report = _lint_fixture(f"{code.lower()}_bad.py", code)
        assert len(report.findings) == EXPECTED_BAD[code]
        assert {f.code for f in report.findings} == {code}

    @pytest.mark.parametrize("code", CODES)
    def test_ok_fixture_is_clean(self, code):
        report = _lint_fixture(f"{code.lower()}_ok.py", code)
        assert report.clean, [f.message for f in report.findings]

    @pytest.mark.parametrize("code", CODES)
    def test_bad_fixture_clean_under_other_rules(self, code):
        """Each bad fixture violates exactly its own rule — rules don't bleed."""
        others = [c for c in CODES if c != code]
        report = lint_file(
            FIXTURES / f"{code.lower()}_bad.py", is_test=False, select=others
        )
        assert report.clean, [(f.code, f.message) for f in report.findings]

    def test_every_registered_rule_has_fixtures(self):
        assert set(all_rules()) == set(CODES)
        for code in CODES:
            assert (FIXTURES / f"{code.lower()}_bad.py").exists()
            assert (FIXTURES / f"{code.lower()}_ok.py").exists()

    @pytest.mark.parametrize("code", CODES)
    def test_findings_carry_location_and_metadata(self, code):
        report = _lint_fixture(f"{code.lower()}_bad.py", code)
        for f in report.findings:
            assert f.line > 0
            assert f.path.endswith(f"{code.lower()}_bad.py")
            assert f.name == all_rules()[code].name
            assert f.severity == all_rules()[code].severity
            assert f.message


class TestRuleEdgeCases:
    def test_r001_from_random_import(self):
        report = lint_source(
            "from random import choice\n", is_test=False, select=["R001"]
        )
        assert len(report.findings) == 1

    def test_r001_numpy_alias_tracked(self):
        src = "import numpy\n\ndef f():\n    return numpy.random.shuffle([1])\n"
        report = lint_source(src, is_test=False, select=["R001"])
        assert len(report.findings) == 1

    def test_r001_generator_methods_are_fine(self):
        src = (
            "import numpy as np\n\n"
            "def f(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.normal()\n"
        )
        report = lint_source(src, is_test=False, select=["R001"])
        assert report.clean

    def test_r001_r002_exempt_in_tests(self):
        src = "import numpy as np\nnp.random.seed(0)\nr = np.random.default_rng()\n"
        report = lint_source(
            src, path="tests/test_x.py", select=["R001", "R002"]
        )
        assert report.clean
        report = lint_source(src, path="src/repro/x.py", select=["R001", "R002"])
        assert len(report.findings) == 2

    def test_r002_seeded_via_keyword(self):
        src = "import numpy as np\nrng = np.random.default_rng(seed=3)\n"
        assert lint_source(src, is_test=False, select=["R002"]).clean

    def test_r004_module_level_name_ok(self):
        src = (
            "def worker(t):\n    return t\n\n"
            "def go(pool, t):\n    return pool.submit(worker, t)\n"
        )
        assert lint_source(src, is_test=False, select=["R004"]).clean

    def test_r008_post_init_is_clean(self):
        src = (
            "class C:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'x', 1)\n"
        )
        assert lint_source(src, is_test=False, select=["R008"]).clean
