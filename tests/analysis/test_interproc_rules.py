"""Targeted behaviour tests for the interprocedural rules (R101-R104) and
the stale-suppression pass (W000), beyond the fixture counts in
``test_rules.py``."""

from __future__ import annotations

from repro.analysis import lint_source


def _codes(src: str, select: list[str], *, path: str = "src/repro/x.py"):
    report = lint_source(src, path=path, is_test=False, select=select)
    return [f.code for f in report.findings]


class TestR101SeedProvenance:
    def test_wall_clock_seed_flagged(self):
        src = (
            "import time\n"
            "import numpy as np\n\n"
            "def make():\n"
            "    return np.random.default_rng(time.time_ns())\n"
        )
        assert _codes(src, ["R101"]) == ["R101"]

    def test_taint_through_local_helper(self):
        src = (
            "import os\n"
            "import numpy as np\n\n"
            "def pick():\n"
            "    return os.getpid()\n\n"
            "def make():\n"
            "    seed = pick()\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert _codes(src, ["R101"]) == ["R101"]

    def test_derived_chain_is_clean(self):
        src = (
            "import numpy as np\n\n"
            "def offset(seed):\n"
            "    return seed + 17\n\n"
            "def make(seed):\n"
            "    return np.random.default_rng(offset(seed))\n"
        )
        assert _codes(src, ["R101"]) == []

    def test_seed_sequence_spawn_is_clean(self):
        src = (
            "import numpy as np\n\n"
            "def make(seed, n):\n"
            "    root = np.random.SeedSequence(seed)\n"
            "    return [np.random.default_rng(s) for s in root.spawn(n)]\n"
        )
        assert _codes(src, ["R101"]) == []

    def test_unseeded_is_r002_not_r101(self):
        src = "import numpy as np\n\ndef f():\n    return np.random.default_rng()\n"
        assert _codes(src, ["R101"]) == []

    def test_relaxed_in_tests(self):
        src = (
            "import time\n"
            "import numpy as np\n\n"
            "def make():\n"
            "    return np.random.default_rng(time.time_ns())\n"
        )
        report = lint_source(src, path="tests/test_x.py", select=["R101"])
        assert report.clean


class TestR102PoolSharedState:
    def test_submitter_writes_global_task_reads(self):
        src = (
            "PENDING = []\n\n"
            "def task(i):\n"
            "    return len(PENDING) + i\n\n"
            "def run(pool, items):\n"
            "    global PENDING\n"
            "    PENDING = list(items)\n"
            "    return [pool.submit(task, i) for i in items]\n"
        )
        assert _codes(src, ["R102"]) == ["R102"]

    def test_disjoint_state_is_clean(self):
        src = (
            "DONE = []\n\n"
            "def task(i):\n"
            "    return i * 2\n\n"
            "def run(pool, items):\n"
            "    DONE.append(len(items))\n"
            "    return [pool.submit(task, i) for i in items]\n"
        )
        assert _codes(src, ["R102"]) == []

    def test_self_attribute_race(self):
        src = (
            "class Runner:\n"
            "    def work(self):\n"
            "        return self.counter\n\n"
            "    def run(self):\n"
            "        self.counter = self.counter + 1\n"
            "        return self.pool.submit(self.work)\n"
        )
        assert _codes(src, ["R102"]) == ["R102"]


class TestR104UnrecordedFailure:
    def test_swallowed_solver_error_flagged(self):
        src = (
            "from repro.exceptions import SolverError\n\n"
            "def solve(tasks, on_error='record'):\n"
            "    out = []\n"
            "    for t in tasks:\n"
            "        try:\n"
            "            out.append(t())\n"
            "        except SolverError:\n"
            "            out.append(None)\n"
            "    return out\n"
        )
        assert _codes(src, ["R104"]) == ["R104"]

    def test_reraise_is_clean(self):
        src = (
            "from repro.exceptions import SolverError\n\n"
            "def solve(tasks, on_error='raise'):\n"
            "    try:\n"
            "        return [t() for t in tasks]\n"
            "    except SolverError:\n"
            "        raise\n"
        )
        assert _codes(src, ["R104"]) == []

    def test_failure_record_via_helper_is_clean(self):
        src = (
            "from repro.engine.fault import FailureRecord\n"
            "from repro.exceptions import SolverError\n\n"
            "def note(failures, exc):\n"
            "    failures.append(FailureRecord(0, 1, 'solve', repr(exc)))\n\n"
            "def solve(tasks, on_error='record'):\n"
            "    out, failures = [], []\n"
            "    for t in tasks:\n"
            "        try:\n"
            "            out.append(t())\n"
            "        except SolverError as exc:\n"
            "            note(failures, exc)\n"
            "    return out, failures\n"
        )
        assert _codes(src, ["R104"]) == []

    def test_no_on_error_out_of_scope(self):
        src = (
            "from repro.exceptions import SolverError\n\n"
            "def helper(tasks):\n"
            "    try:\n"
            "        return [t() for t in tasks]\n"
            "    except SolverError:\n"
            "        return []\n"
        )
        assert _codes(src, ["R104"]) == []


class TestW000Stale:
    def test_stale_marker_flagged(self):
        src = (
            "import numpy as np\n\n"
            "def f(seed):\n"
            "    return np.random.default_rng(seed)  # repro: noqa[R002]\n"
        )
        assert _codes(src, ["W000"]) == ["W000"]

    def test_live_marker_is_clean(self):
        src = (
            "import numpy as np\n\n"
            "def f():\n"
            "    return np.random.default_rng()  # repro: noqa[R002]\n"
        )
        assert _codes(src, ["W000"]) == []

    def test_unknown_code_flagged(self):
        src = "x = 1  # repro: noqa[R999]\n"
        report = lint_source(src, is_test=False, select=["W000"])
        assert [f.code for f in report.findings] == ["W000"]
        assert "R999" in report.findings[0].message

    def test_docstring_mention_is_not_a_marker(self):
        src = '"""Docs show ``# repro: noqa[R001]`` markers."""\nx = 1\n'
        assert _codes(src, ["W000"]) == []

    def test_selecting_w000_does_not_emit_other_codes(self):
        src = (
            "import numpy as np\n\n"
            "def f():\n"
            "    np.random.seed(0)\n"
            "    rng = np.random.default_rng(7)  # repro: noqa[R002]\n"
            "    return rng\n"
        )
        # R001 fires internally (staleness is judged against a full run) but
        # only W000 findings are emitted
        assert _codes(src, ["W000"]) == ["W000"]
