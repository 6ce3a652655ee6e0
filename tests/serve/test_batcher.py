"""Unit tests of the micro-batching queue (deterministic, FakeClock-driven)."""

import pytest

from repro.serve.batcher import BatchQueue, QueueFullError
from repro.utils.clock import FakeClock

pytestmark = pytest.mark.serve


def make_queue(**kwargs):
    clock = kwargs.pop("clock", FakeClock(tick=0.0))
    defaults = dict(max_batch=4, max_pending=16)
    defaults.update(kwargs)
    return BatchQueue(clock=clock, **defaults), clock


class TestFullFlush:
    def test_batch_flushes_synchronously_at_max_batch(self):
        q, _ = make_queue(max_batch=3)
        assert q.add("k", "a")[1] == []
        assert q.add("k", "b")[1] == []
        _, flushed = q.add("k", "c")
        assert len(flushed) == 1
        (batch,) = flushed
        assert batch.reason == "full"
        assert [r.payload for r in batch.items] == ["a", "b", "c"]
        assert q.n_pending == 0

    def test_items_keep_arrival_order_and_unique_seq(self):
        q, _ = make_queue(max_batch=5)
        for i in range(5):
            _, flushed = q.add("k", i)
        (batch,) = flushed
        seqs = [r.seq for r in batch.items]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5
        assert [r.payload for r in batch.items] == list(range(5))

    def test_distinct_keys_accumulate_separately(self):
        q, _ = make_queue(max_batch=2)
        q.add("a", 1)
        q.add("b", 2)
        assert q.n_groups == 2
        _, flushed = q.add("a", 3)
        assert len(flushed) == 1
        assert flushed[0].key == "a"
        assert q.n_pending == 1  # "b" still waiting


class TestIdleDispatch:
    def test_ready_waits_for_the_batch_in_flight(self):
        q, _ = make_queue(max_batch=10)
        q.add("k", "x")
        (first,) = q.ready()
        assert first.reason == "idle"
        q.add("k", "y")
        q.add("k", "z")
        assert q.ready() == []  # the engine is busy: coalesce
        (second,) = q.retire(first)
        assert second.reason == "idle"
        assert [r.payload for r in second.items] == ["y", "z"]

    def test_n_in_flight_tracks_handed_out_batches(self):
        q, _ = make_queue(max_batch=2)
        assert q.n_in_flight == 0
        q.add("a", 1)
        _, (full_a,) = q.add("a", 2)
        q.add("b", 3)
        _, (full_b,) = q.add("b", 4)
        assert q.n_in_flight == 2
        assert q.retire(full_a) == []
        assert q.n_in_flight == 1
        q.add("c", 5)
        assert q.ready() == []
        (coalesced,) = q.retire(full_b)  # a completion sends what waited
        assert coalesced.reason == "idle"
        assert q.n_in_flight == 1

    def test_explicit_now_stamps_flushed_at(self):
        clock = FakeClock(start=0.0, tick=0.0)
        q = BatchQueue(max_batch=10, clock=clock)
        q.add("k", "x")
        (batch,) = q.ready(now=0.2)
        assert batch.flushed_at == 0.2
        assert batch.items[0].enqueued_at == 0.0

    def test_idle_flush_sends_every_group(self):
        q, _ = make_queue(max_batch=10)
        q.add("old", 1)
        q.add("young", 2)
        q.add("old", 3)
        flushed = q.ready()
        assert [b.key for b in flushed] == ["old", "young"]
        assert [len(b) for b in flushed] == [2, 1]
        assert q.n_pending == 0
        assert q.n_in_flight == 2

    def test_retire_holds_groups_that_arrived_behind_a_later_batch(self):
        clock = FakeClock(start=0.0, tick=0.0)
        q = BatchQueue(max_batch=2, clock=clock)
        q.add("a", 1)
        (first,) = q.ready()  # dispatched at t=0
        clock.advance(1.0)
        q.add("b", 2)  # waits behind `first`
        clock.advance(1.0)
        q.add("c", 3)
        _, (full,) = q.add("c", 4)  # dispatched at t=2
        clock.advance(0.5)
        q.add("d", 5)  # waits behind `full` only
        assert [b.key for b in q.retire(first)] == ["b"]
        assert [b.key for b in q.retire(full)] == ["d"]

    def test_retire_without_a_batch_in_flight_raises(self):
        from repro.exceptions import ReproError

        q, _ = make_queue()
        q.add("k", "x")
        (batch,) = q.ready()
        q.retire(batch)
        with pytest.raises(ReproError):
            q.retire(batch)


class TestDrain:
    def test_flush_all_empties_every_group(self):
        q, _ = make_queue(max_batch=100)
        q.add("a", 1)
        q.add("b", 2)
        q.add("a", 3)
        flushed = q.flush_all()
        assert sorted(b.key for b in flushed) == ["a", "b"]
        assert all(b.reason == "drain" for b in flushed)
        assert q.n_pending == 0
        assert q.n_groups == 0


class TestBackpressure:
    def test_queue_full_raises(self):
        q, _ = make_queue(max_batch=100, max_pending=2)
        q.add("k", 1)
        q.add("k", 2)
        with pytest.raises(QueueFullError):
            q.add("k", 3)
        # flushing frees capacity again
        q.flush_all()
        q.add("k", 4)

    def test_unbounded_when_max_pending_none(self):
        q, _ = make_queue(max_batch=1000, max_pending=None)
        for i in range(200):
            q.add("k" if i % 2 else "j", i)
        assert q.n_pending == 200


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_batch": -1},
            {"max_pending": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            make_queue(**kwargs)

    def test_iter_lists_waiting_requests(self):
        q, _ = make_queue(max_batch=100)
        q.add("a", 1)
        q.add("b", 2)
        assert sorted(r.payload for r in q) == [1, 2]
