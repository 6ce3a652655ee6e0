"""Micro-batching queue: coalesce single requests into engine-sized batches.

The robustness engine amortizes per-call overhead across a whole population
(:meth:`~repro.engine.RobustnessEngine.evaluate_allocation` is one stacked
array pass no matter how many mappings ride in it), so a service that
dispatched one engine call per HTTP request would throw that advantage
away.  :class:`BatchQueue` is the coalescing core: requests enter one at a
time, grouped by a *batch key* (problems that can legally share an engine
call — same ETC matrix and tau, or any set of generic FePIA problems), and
leave as :class:`Batch` objects under a **work-conserving** rule — the
engine never idles while a request waits:

- a group that reaches ``max_batch`` items leaves at once (a **full**
  flush, synchronous with the triggering :meth:`~BatchQueue.add`);
- when no batch is in flight, :meth:`~BatchQueue.ready` sends every group
  (an **idle** flush); while batches are in flight, requests coalesce, and
  :meth:`~BatchQueue.retire` of a completed batch sends every group that
  has waited out all the batches in flight at its arrival (also **idle**:
  the engine just freed up);
- the owner shuts down and calls :meth:`~BatchQueue.flush_all` (a **drain**
  flush).

No timer is involved: engine occupancy, not a deadline, sets the wait.
The queue is deliberately *pure*: no asyncio, no threads, no wall clock of
its own — time enters only through the injected
:class:`~repro.utils.clock.Clock`, which is what makes the dispatch
invariants property-testable with a :class:`~repro.utils.clock.FakeClock`
(every request dispatched exactly once, no batch over ``max_batch``, no
request waiting while nothing is in flight).  The asyncio server calls
:meth:`~BatchQueue.ready` once per loop tick and :meth:`~BatchQueue.retire`
per completed batch; nothing here knows a network exists.

Total occupancy is bounded: :meth:`add` raises :class:`QueueFullError` once
``max_pending`` requests are waiting, which the server surfaces as HTTP 429
with a ``Retry-After`` hint — backpressure, not an unbounded buffer.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.exceptions import ReproError, ValidationError
from repro.utils.clock import Clock, get_clock

__all__ = ["Batch", "BatchQueue", "PendingRequest", "QueueFullError", "FLUSH_REASONS"]

#: why a batch left the queue
FLUSH_REASONS = ("full", "idle", "drain")


class QueueFullError(ReproError):
    """The queue is at ``max_pending`` — the caller must shed load."""


@dataclass(frozen=True)
class PendingRequest:
    """One enqueued request, opaque payload included.

    The queue never looks inside ``payload`` — the server parks whatever it
    needs to complete the request there (decoded problem, response future,
    client id).  ``seq`` is unique per queue and strictly increasing, so it
    doubles as an arrival-order tiebreaker and an exactly-once token.
    """

    #: coalescing key — requests batch together iff their keys are equal
    key: Hashable
    #: opaque request payload (decoded problem + completion handle)
    payload: Any
    #: optional client-supplied request id (echoed in responses)
    request_id: str | None
    #: queue-assigned arrival sequence number
    seq: int
    #: clock reading at enqueue time
    enqueued_at: float


@dataclass(frozen=True)
class Batch:
    """A flushed group of requests that share one engine call."""

    #: the common batch key of every item
    key: Hashable
    #: the coalesced requests, in arrival order
    items: tuple[PendingRequest, ...]
    #: ``"full"`` | ``"idle"`` | ``"drain"``
    reason: str
    #: clock reading at flush time
    flushed_at: float

    def __len__(self) -> int:
        return len(self.items)


class BatchQueue:
    """Work-conserving, size-capped request coalescing (see module doc).

    Every batch the queue hands out counts as *in flight* until the owner
    passes it back to :meth:`retire`.

    Parameters
    ----------
    max_batch:
        Flush a group as soon as it holds this many requests.
    max_pending:
        Total requests allowed to wait across all groups; :meth:`add`
        raises :class:`QueueFullError` beyond it (None = unbounded).
    clock:
        Time source; None uses the process-wide active clock
        (:func:`repro.utils.clock.get_clock`), so installing a
        :class:`~repro.utils.clock.FakeClock` makes the queue fully
        deterministic.
    """

    def __init__(
        self,
        *,
        max_batch: int = 32,
        max_pending: int | None = 1024,
        clock: Clock | None = None,
    ) -> None:
        if int(max_batch) < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch!r}")
        if max_pending is not None and int(max_pending) < 1:
            raise ValidationError(f"max_pending must be >= 1, got {max_pending!r}")
        self.max_batch = int(max_batch)
        self.max_pending = None if max_pending is None else int(max_pending)
        self._clock = clock
        self._groups: dict[Hashable, list[PendingRequest]] = {}
        self._pending = 0
        #: ``flushed_at`` of every batch handed out and not yet retired
        self._in_flight: list[float] = []
        self._seq = itertools.count()

    # -- time ----------------------------------------------------------------
    def _now(self) -> float:
        clock = self._clock if self._clock is not None else get_clock()
        return clock.monotonic()

    # -- state ---------------------------------------------------------------
    @property
    def n_pending(self) -> int:
        """Requests currently waiting (across all groups)."""
        return self._pending

    @property
    def n_groups(self) -> int:
        """Distinct batch keys currently accumulating."""
        return len(self._groups)

    @property
    def n_in_flight(self) -> int:
        """Batches handed out and not yet retired."""
        return len(self._in_flight)

    # -- enqueue / flush -----------------------------------------------------
    def add(
        self,
        key: Hashable,
        payload: Any,
        *,
        request_id: str | None = None,
    ) -> tuple[PendingRequest, list[Batch]]:
        """Enqueue one request; returns it plus any batches its arrival filled.

        A returned non-empty batch list means the request's own group hit
        ``max_batch`` and flushed synchronously — the caller dispatches those
        batches immediately.  Otherwise the request waits for :meth:`ready`.

        Raises
        ------
        QueueFullError
            when ``max_pending`` requests are already waiting.
        """
        if self.max_pending is not None and self._pending >= self.max_pending:
            raise QueueFullError(
                f"batch queue full ({self._pending}/{self.max_pending} pending)"
            )
        now = self._now()
        req = PendingRequest(
            key=key,
            payload=payload,
            request_id=request_id,
            seq=next(self._seq),
            enqueued_at=now,
        )
        group = self._groups.setdefault(key, [])
        group.append(req)
        self._pending += 1
        if len(group) >= self.max_batch:
            return req, [self._flush_group(key, "full", now)]
        return req, []

    def _flush_group(self, key: Hashable, reason: str, now: float) -> Batch:
        items = self._groups.pop(key)
        self._pending -= len(items)
        self._in_flight.append(now)
        return Batch(key=key, items=tuple(items), reason=reason, flushed_at=now)

    def _flush_groups(self, keys: list, reason: str, now: float | None) -> list[Batch]:
        if keys and now is None:
            now = self._now()
        return [self._flush_group(key, reason, now) for key in keys]

    def ready(self, now: float | None = None) -> list[Batch]:
        """Every waiting group as a batch if nothing is in flight, else none.

        ``now`` defaults to the injected clock; passing it explicitly stamps
        ``flushed_at`` without consuming a clock read (and makes property
        tests exact).
        """
        return [] if self._in_flight else self._flush_groups(list(self._groups), "idle", now)

    def retire(self, batch: Batch, now: float | None = None) -> list[Batch]:
        """Mark ``batch`` finished; returns the groups that may leave now.

        A group leaves (an **idle** flush) once no batch still in flight was
        dispatched before its oldest request arrived: no request waits past
        the batches in flight at its arrival, and requests that arrived
        behind a later full flush keep coalescing until it completes.
        """
        try:
            self._in_flight.remove(batch.flushed_at)
        except ValueError:
            raise ReproError(
                f"retire() of a {batch.reason!r} batch that is not in flight"
            ) from None
        busy_since = min(self._in_flight, default=float("inf"))
        due = [key for key, items in self._groups.items() if items[0].enqueued_at <= busy_since]
        return self._flush_groups(due, "idle", now)

    def flush_all(self, now: float | None = None) -> list[Batch]:
        """Drain every group regardless of engine occupancy (shutdown path)."""
        return self._flush_groups(list(self._groups), "drain", now)

    def __iter__(self) -> Iterator[PendingRequest]:
        """Iterate the waiting requests (observability/debugging aid)."""
        for group in self._groups.values():
            yield from group
