"""Hypothesis properties of the micro-batcher against a simulated engine.

The driver replays what the server does over arbitrary interleavings of
arrivals (key, inter-arrival gap) and engine service times, on a
:class:`FakeClock`: every arrival is enqueued and followed by
:meth:`BatchQueue.ready`; every dispatched batch runs on one simulated
engine (first come, first served, like the server's single-thread
executor), and its completion is passed to :meth:`BatchQueue.retire`,
whose batches are dispatched in turn.  The invariants under test:

1. every request is dispatched exactly once (no loss, no duplication);
2. no batch exceeds ``max_batch``;
3. no request waits while nothing is in flight;
4. a request waits at most until the batches in flight at its arrival
   complete (and not at all when none are);
5. every dispatched batch maps back to the correct request ids, in order.
"""

import heapq
import itertools

import pytest

from repro.serve.batcher import BatchQueue
from repro.utils.clock import FakeClock

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

pytestmark = pytest.mark.serve

# one arrival: which coalescing group, and the gap since the previous arrival
arrivals_strategy = st.lists(
    st.tuples(
        st.sampled_from(["alpha", "beta", "gamma"]),
        st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)
# engine service time per dispatched batch, cycled
service_strategy = st.lists(
    st.floats(min_value=0.0, max_value=0.3, allow_nan=False), min_size=1, max_size=20
)


def drive(arrivals, service_times, max_batch):
    """Feed ``arrivals`` through a queue in front of a simulated engine.

    Returns ``(batches, record)``: the dispatched batches in dispatch order
    and, per request id, its enqueue time and the completion times of the
    batches in flight when it arrived.
    """
    clock = FakeClock(start=0.0, tick=0.0)
    queue = BatchQueue(max_batch=max_batch, max_pending=None, clock=clock)
    service = itertools.cycle(service_times)
    batches = []
    completions = []  # heap of (done_at, dispatch order, batch)
    in_flight = {}  # dispatch order -> done_at
    engine_free_at = 0.0
    record = {}

    def dispatch(flushed, now):
        nonlocal engine_free_at
        for batch in flushed:
            engine_free_at = max(now, engine_free_at) + next(service)
            order = len(batches)
            batches.append(batch)
            in_flight[order] = engine_free_at
            heapq.heappush(completions, (engine_free_at, order, batch))

    def settle_until(t):
        # complete (and retire) every batch done by time t, in time order
        while completions and completions[0][0] <= t:
            done_at, order, batch = heapq.heappop(completions)
            del in_flight[order]
            dispatch(queue.retire(batch, now=done_at), done_at)
            assert queue.n_pending == 0 or queue.n_in_flight > 0

    now = 0.0
    for i, (key, gap) in enumerate(arrivals):
        now += gap
        settle_until(now)
        clock.advance(max(0.0, now - clock.monotonic()))
        request_id = f"req-{i}"
        busy_until = sorted(in_flight.values())
        req, full = queue.add(key, payload=i, request_id=request_id)
        record[request_id] = (req.enqueued_at, busy_until)
        dispatch(full, now)
        dispatch(queue.ready(), now)
        assert queue.n_pending == 0 or queue.n_in_flight > 0
    settle_until(float("inf"))
    assert queue.n_pending == 0 and queue.n_in_flight == 0
    return batches, record


@settings(max_examples=200)
@given(
    arrivals=arrivals_strategy,
    service_times=service_strategy,
    max_batch=st.integers(min_value=1, max_value=7),
)
def test_every_request_dispatched_exactly_once(arrivals, service_times, max_batch):
    batches, _ = drive(arrivals, service_times, max_batch)
    dispatched = [req.payload for batch in batches for req in batch.items]
    assert sorted(dispatched) == list(range(len(arrivals)))


@settings(max_examples=200)
@given(
    arrivals=arrivals_strategy,
    service_times=service_strategy,
    max_batch=st.integers(min_value=1, max_value=7),
)
def test_no_batch_exceeds_max_batch(arrivals, service_times, max_batch):
    batches, _ = drive(arrivals, service_times, max_batch)
    assert all(len(batch) <= max_batch for batch in batches)


@settings(max_examples=200)
@given(
    arrivals=arrivals_strategy,
    service_times=service_strategy,
    max_batch=st.integers(min_value=1, max_value=7),
)
def test_no_request_waits_while_nothing_is_in_flight(arrivals, service_times, max_batch):
    # drive() asserts the queue state after every event; the timing view:
    # a request that finds the engine idle leaves the instant it arrives
    batches, record = drive(arrivals, service_times, max_batch)
    for batch in batches:
        for req in batch.items:
            enqueued_at, busy_until = record[req.request_id]
            if not busy_until:
                assert batch.flushed_at == enqueued_at


@settings(max_examples=200)
@given(
    arrivals=arrivals_strategy,
    service_times=service_strategy,
    max_batch=st.integers(min_value=1, max_value=7),
)
def test_wait_bounded_by_batches_in_flight_at_arrival(arrivals, service_times, max_batch):
    batches, record = drive(arrivals, service_times, max_batch)
    for batch in batches:
        for req in batch.items:
            enqueued_at, busy_until = record[req.request_id]
            assert batch.flushed_at <= max(busy_until, default=enqueued_at)


@settings(max_examples=200)
@given(
    arrivals=arrivals_strategy,
    service_times=service_strategy,
    max_batch=st.integers(min_value=1, max_value=7),
)
def test_batches_map_back_to_correct_request_ids(arrivals, service_times, max_batch):
    batches, _ = drive(arrivals, service_times, max_batch)
    for batch in batches:
        for req in batch.items:
            # payload i belongs to request id "req-i" with the batch's key
            assert req.request_id == f"req-{req.payload}"
            assert arrivals[req.payload][0] == batch.key
        # arrival order preserved inside the batch
        seqs = [req.seq for req in batch.items]
        assert seqs == sorted(seqs)
