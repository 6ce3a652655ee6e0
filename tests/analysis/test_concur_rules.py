"""Targeted behaviour tests for the concurrency rules (R110, R111, R113,
R114), beyond the fixture counts in ``test_rules.py``.

Each class covers one rule: the hazard shape, the interprocedural variant
where the family sees across call boundaries, and the negative shapes a
coarser rule would flag.
"""

from __future__ import annotations

from repro.analysis import lint_source


def _codes(src: str, select: list[str], *, path: str = "src/repro/x.py"):
    report = lint_source(src, path=path, is_test=False, select=select)
    return [f.code for f in report.findings]


def _lines(src: str, select: list[str], *, path: str = "src/repro/x.py"):
    report = lint_source(src, path=path, is_test=False, select=select)
    return [(f.code, f.line) for f in report.findings]


class TestR110BlockingInAsync:
    def test_direct_time_sleep_flagged(self):
        src = (
            "import time\n\n"
            "async def f():\n"
            "    time.sleep(1)\n"
        )
        assert _codes(src, ["R110"]) == ["R110"]

    def test_awaited_asyncio_sleep_clean(self):
        src = (
            "import asyncio\n\n"
            "async def f():\n"
            "    await asyncio.sleep(1)\n"
        )
        assert _codes(src, ["R110"]) == []

    def test_future_result_in_async_flagged(self):
        src = (
            "async def f(fut):\n"
            "    return fut.result()\n"
        )
        assert _codes(src, ["R110"]) == ["R110"]

    def test_result_on_submit_chain_flagged(self):
        src = (
            "async def f(pool, fn):\n"
            "    return pool.submit(fn).result()\n"
        )
        assert _codes(src, ["R110"]) == ["R110"]

    def test_open_in_async_flagged(self):
        src = (
            "async def f(path):\n"
            "    with open(path) as fh:\n"
            "        return fh.read()\n"
        )
        assert _codes(src, ["R110"]) == ["R110"]

    def test_blocking_via_sync_helper_chain(self):
        """Interprocedural: async -> sync -> sync -> time.sleep."""
        src = (
            "import time\n\n"
            "def inner():\n"
            "    time.sleep(1)\n\n"
            "def outer():\n"
            "    inner()\n\n"
            "async def f():\n"
            "    outer()\n"
        )
        assert _lines(src, ["R110"]) == [("R110", 10)]

    def test_sync_only_chain_clean(self):
        src = (
            "import time\n\n"
            "def inner():\n"
            "    time.sleep(1)\n\n"
            "def outer():\n"
            "    inner()\n"
        )
        assert _codes(src, ["R110"]) == []

    def test_awaited_async_callee_not_a_conduit(self):
        """An awaited async callee with its own finding reports once, at
        the blocking site — not again at every await site."""
        src = (
            "import time\n\n"
            "async def worker():\n"
            "    time.sleep(1)\n\n"
            "async def f():\n"
            "    await worker()\n"
        )
        assert _lines(src, ["R110"]) == [("R110", 4)]

    def test_unresolvable_callable_param_clean(self):
        src = (
            "async def f(fn, payload):\n"
            "    return fn(payload)\n"
        )
        assert _codes(src, ["R110"]) == []


class TestR111AwaitStraddle:
    def test_self_attr_rmw_across_await(self):
        src = (
            "import asyncio\n\n"
            "class C:\n"
            "    async def bump(self):\n"
            "        v = self.value\n"
            "        await asyncio.sleep(0)\n"
            "        self.value = v + 1\n"
        )
        assert _lines(src, ["R111"]) == [("R111", 7)]

    def test_rmw_without_await_between_clean(self):
        src = (
            "import asyncio\n\n"
            "class C:\n"
            "    async def bump(self):\n"
            "        v = self.value\n"
            "        self.value = v + 1\n"
            "        await asyncio.sleep(0)\n"
        )
        assert _codes(src, ["R111"]) == []

    def test_lock_covering_both_sides_clean(self):
        src = (
            "import asyncio\n\n"
            "class C:\n"
            "    async def bump(self):\n"
            "        async with self._lock:\n"
            "            v = self.value\n"
            "            await asyncio.sleep(0)\n"
            "            self.value = v + 1\n"
        )
        assert _codes(src, ["R111"]) == []

    def test_mutable_global_dict_write_across_await(self):
        src = (
            "import asyncio\n\n"
            "CACHE = {}\n\n"
            "async def put(key, coro):\n"
            "    if key not in CACHE:\n"
            "        value = await coro\n"
            "        CACHE[key] = value\n"
        )
        assert _codes(src, ["R111"]) == ["R111"]

    def test_submitted_target_rmw_without_lock(self):
        src = (
            "TOTALS = {}\n\n"
            "def tally(key):\n"
            "    TOTALS[key] = TOTALS.get(key, 0) + 1\n\n"
            "def fan_out(pool, keys):\n"
            "    for k in keys:\n"
            "        pool.submit(tally, k)\n"
        )
        assert _lines(src, ["R111"]) == [("R111", 8)]

    def test_submitted_target_with_lock_clean(self):
        src = (
            "import threading\n\n"
            "TOTALS = {}\n"
            "_LOCK = threading.Lock()\n\n"
            "def tally(key):\n"
            "    with _LOCK:\n"
            "        TOTALS[key] = TOTALS.get(key, 0) + 1\n\n"
            "def fan_out(pool, keys):\n"
            "    for k in keys:\n"
            "        pool.submit(tally, k)\n"
        )
        assert _codes(src, ["R111"]) == []


class TestR113FireAndForget:
    def test_bare_create_task_flagged(self):
        src = (
            "import asyncio\n\n"
            "async def f(coro):\n"
            "    asyncio.create_task(coro())\n"
        )
        assert _codes(src, ["R113"]) == ["R113"]

    def test_loop_create_task_flagged(self):
        src = (
            "async def f(loop, coro):\n"
            "    loop.create_task(coro())\n"
        )
        assert _codes(src, ["R113"]) == ["R113"]

    def test_assigned_handle_clean(self):
        src = (
            "import asyncio\n\n"
            "async def f(coro):\n"
            "    task = asyncio.create_task(coro())\n"
            "    return await task\n"
        )
        assert _codes(src, ["R113"]) == []

    def test_gathered_handles_clean(self):
        src = (
            "import asyncio\n\n"
            "async def f(coros):\n"
            "    return await asyncio.gather(\n"
            "        *[asyncio.create_task(c()) for c in coros]\n"
            "    )\n"
        )
        assert _codes(src, ["R113"]) == []

    def test_taskgroup_create_task_not_flagged(self):
        """TaskGroup owns its children; the handle may be dropped."""
        src = (
            "import asyncio\n\n"
            "async def f(coro):\n"
            "    async with asyncio.TaskGroup() as tg:\n"
            "        tg.create_task(coro())\n"
        )
        assert _codes(src, ["R113"]) == []


class TestR114ContextPropagation:
    def test_contextvar_consumer_across_submit(self):
        src = (
            "from contextvars import ContextVar\n\n"
            "VAR = ContextVar('v')\n\n"
            "def work(x):\n"
            "    return (VAR.get(), x)\n\n"
            "def dispatch(pool, items):\n"
            "    return [pool.submit(work, i) for i in items]\n"
        )
        assert _codes(src, ["R114"]) == ["R114"]

    def test_capture_on_submitting_path_clean(self):
        src = (
            "from contextvars import ContextVar, copy_context\n\n"
            "VAR = ContextVar('v')\n\n"
            "def work(x):\n"
            "    return (VAR.get(), x)\n\n"
            "def dispatch(pool, items):\n"
            "    ctx = copy_context()\n"
            "    return [pool.submit(ctx.run, work, i) for i in items]\n"
        )
        assert _codes(src, ["R114"]) == []

    def test_transitive_consumer_flagged(self):
        """Interprocedural: the submitted target only consumes context
        through a helper it calls."""
        src = (
            "from contextvars import ContextVar\n\n"
            "VAR = ContextVar('v')\n\n"
            "def label():\n"
            "    return VAR.get()\n\n"
            "def work(x):\n"
            "    return (label(), x)\n\n"
            "def dispatch(pool, items):\n"
            "    return [pool.submit(work, i) for i in items]\n"
        )
        assert _codes(src, ["R114"]) == ["R114"]

    def test_context_free_target_clean(self):
        src = (
            "def work(x):\n"
            "    return x * 2\n\n"
            "def dispatch(pool, items):\n"
            "    return [pool.submit(work, i) for i in items]\n"
        )
        assert _codes(src, ["R114"]) == []

    def test_run_in_executor_boundary_flagged(self):
        src = (
            "from contextvars import ContextVar\n\n"
            "VAR = ContextVar('v')\n\n"
            "def work(x):\n"
            "    return (VAR.get(), x)\n\n"
            "async def dispatch(loop, items):\n"
            "    return [loop.run_in_executor(None, work, i) for i in items]\n"
        )
        assert _codes(src, ["R114"]) == ["R114"]

    def test_library_only_rule_skips_tests(self):
        src = (
            "from contextvars import ContextVar\n\n"
            "VAR = ContextVar('v')\n\n"
            "def work(x):\n"
            "    return (VAR.get(), x)\n\n"
            "def dispatch(pool, items):\n"
            "    return [pool.submit(work, i) for i in items]\n"
        )
        report = lint_source(src, path="tests/test_x.py", select=["R114"])
        assert report.clean
