"""The discrete-event engine.

A minimal, deterministic event queue: events fire in time order, and two
events scheduled for the same instant fire in the order they were
scheduled.  Nothing here knows about networks, protocols or wall-clock
time; the :class:`Simulator` is the sim substrate's
:class:`~repro.simul.transport.Clock` itself.

The queue is a calendar (DESIGN section 9): a FIFO bucket per distinct
pending instant and a heap of those instants, so insertion order needs no
sequence number and heap work is paid per instant, not per event.  Two
ways in: :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`
return an :class:`EventHandle` (timers, which their owner may cancel),
:meth:`Simulator.post` returns nothing (deliveries, which nobody can).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.simul.transport import Clock, TimerHandle


class SimulationLimitError(RuntimeError):
    """The event budget was exhausted before the queue drained.

    Usually indicates a protocol that never quiesces (e.g. unbounded
    count-to-infinity); the naive-DV baseline caps its metric precisely to
    avoid this.
    """


class EventHandle(TimerHandle):
    """Handle for a scheduled event, usable to cancel it.

    The sim substrate's :class:`~repro.simul.transport.TimerHandle`:
    cancellation is idempotent and harmless after the event fired.  A
    ``__slots__`` class: one is allocated per scheduled timer (posted
    events carry none); its place in its bucket is its firing order.
    """

    __slots__ = ("time", "_cancelled", "_on_cancel")

    def __init__(self, time: float, on_cancel: Optional[Callable[[], None]] = None):
        self.time = time
        self._cancelled = False
        self._on_cancel = on_cancel

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        if self._cancelled:
            return
        self._cancelled = True
        callback = self._on_cancel
        if callback is not None:
            self._on_cancel = None
            callback()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventHandle(time={self.time})"


class Simulator(Clock):
    """A deterministic discrete-event simulator, and the sim's clock."""

    #: Smaller queues never compact: :meth:`run`'s lazy skip is cheaper.
    COMPACT_MIN_QUEUE = 64

    def __init__(self) -> None:
        # instant -> FIFO of entries (5 and 5.0 are one key), and a heap of
        # the keys, each once.  A scheduled entry is (handle, fn, args); a
        # posted one is the call itself, (fn, *args) -- one tracked object
        # per queued message -- told apart by entry[0]'s class.
        self._buckets: Dict[float, Deque[tuple]] = {}
        self._instants: List[float] = []
        self._pending = 0
        self._now = 0.0
        #: Events fired, summed over runs; :meth:`run` adds its count once,
        #: when it returns or raises, so a callback reads the total as of
        #: the run's start.
        self.events_processed = 0
        #: Cancelled handles still sitting in the queue (drives compaction).
        self._cancelled_pending = 0
        #: Times the queue was compacted (observability; pinned by tests).
        self.compactions = 0
        #: Whether the most recent :meth:`run` stopped on ``max_events``
        #: with deliverable events still queued (i.e. did NOT quiesce).
        self.hit_event_limit = False

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now."""
        if not delay >= 0:  # not ``delay < 0``: NaN must be rejected too
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, fn, *args)

    #: The :class:`~repro.simul.transport.Clock` verb: no wrapper call.
    call_later = schedule

    def post(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: same order, no handle.

        The per-message entry point, so the push is inline (as in
        :meth:`schedule_at`): same bucket, one insertion order, no handle.
        """
        if not delay >= 0:
            raise ValueError(f"negative delay {delay}")
        time = self._now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = deque()
            heapq.heappush(self._instants, time)
        bucket.append((fn, *args))
        self._pending += 1

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if not time >= self._now:
            raise ValueError(f"cannot schedule into the past ({time} < {self._now})")
        handle = EventHandle(time, self._note_cancel)
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = deque()
            heapq.heappush(self._instants, time)
        bucket.append((handle, fn, args))
        self._pending += 1
        return handle

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return self._pending

    def _note_cancel(self) -> None:
        """A queued handle was cancelled; compact once mostly dead.

        Timer-heavy runs (pacing/damping) shed their tombstones; survivors
        keep their instant and place in its bucket, hence the firing order.
        All is filtered in place, and the bucket at ``now`` stays even if
        emptied: :meth:`run` may be draining it (a callback can cancel).  The
        rebuilt heap, never the dict's key order, decides what fires next.
        """
        self._cancelled_pending += 1
        if self.COMPACT_MIN_QUEUE <= self._pending < self._cancelled_pending * 2:
            buckets = self._buckets
            for instant, bucket in list(buckets.items()):
                live = [
                    e for e in bucket
                    if e[0].__class__ is not EventHandle or not e[0]._cancelled
                ]
                bucket.clear()
                bucket.extend(live)
                if not live and instant != self._now:
                    del buckets[instant]
            self._pending = sum(map(len, buckets.values()))
            self._instants[:] = buckets
            heapq.heapify(self._instants)
            self._cancelled_pending = 0
            self.compactions += 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 5_000_000,
        raise_on_limit: bool = True,
    ) -> int:
        """Process events until the queue drains (or ``until`` is reached).

        Either way the clock advances to ``until`` when one is given: a
        queue that drains early leaves ``now == until`` exactly as if a
        later event had stopped the run, so callers can alternate
        ``run(until=...)`` slices without caring which case occurred.

        Returns the number of events processed by this call.  If
        ``max_events`` fire without the queue draining -- a non-quiescing
        protocol -- either raises :class:`SimulationLimitError` (the
        default) or, with ``raise_on_limit=False``, stops with the
        over-budget event still queued and :attr:`hit_event_limit` set, so
        callers can report a non-quiescent run instead of crashing.
        """
        processed = 0
        self.hit_event_limit = False
        buckets, instants = self._buckets, self._instants
        try:
            while instants:
                instant = instants[0]
                if until is not None and instant > until:
                    break
                # Registered while it drains: a zero-delay callback appends.
                bucket = buckets[instant]
                while bucket:
                    if processed >= max_events:
                        head = bucket[0][0]
                        if head.__class__ is not EventHandle or not head._cancelled:
                            self.hit_event_limit = True
                            if raise_on_limit:
                                raise SimulationLimitError(
                                    f"exceeded {max_events} events at t={self._now}"
                                )
                            break
                    # Accounted for before fn runs: it may raise.
                    entry = bucket.popleft()
                    self._pending -= 1
                    self._now = instant
                    head = entry[0]
                    if head.__class__ is EventHandle:
                        if head._cancelled:
                            if self._cancelled_pending > 0:
                                self._cancelled_pending -= 1
                            continue
                        # A fired handle may still be cancel()ed (harmless);
                        # detached, that cannot skew the tombstone count.
                        head._on_cancel = None
                        entry[1](*entry[2])
                    else:
                        head(*entry[1:])
                    processed += 1
                if bucket:  # stopped on the limit, mid-instant
                    break
                # Still the minimum: nothing is ever scheduled into the past.
                heapq.heappop(instants)
                del buckets[instant]
            if until is not None and until > self._now:
                self._now = until
        finally:
            # Once per run, not per event (see ``events_processed``).
            self.events_processed += processed
        return processed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Simulator(now={self._now}, pending={self.pending})"
