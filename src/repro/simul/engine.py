"""The discrete-event engine.

A minimal, deterministic event queue: events fire in (time, sequence)
order, where sequence is the global insertion counter, so two events
scheduled for the same instant fire in the order they were scheduled.
Nothing here knows about networks or protocols.

Two ways in, one queue and one counter: :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` return an :class:`EventHandle` (timers,
which their owner may cancel), :meth:`Simulator.post` returns nothing
(message deliveries, which nobody can cancel, so no handle is built).
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.simul.profiling import PhaseProfiler
from repro.simul.transport import TimerHandle


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
    events carry none).  Never compared or hashed by the heap (``seq``
    is the unique tiebreak).
    """

    __slots__ = ("seq", "time", "_cancelled", "_on_cancel")

    def __init__(
        self,
        seq: int,
        time: float,
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.seq = seq
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
        return f"EventHandle(seq={self.seq}, time={self.time})"


class Simulator:
    """A deterministic discrete-event simulator."""

    #: Below this queue size, cancelled entries are never compacted; the
    #: lazy skip in :meth:`run` is cheaper than a heapify.
    COMPACT_MIN_QUEUE = 64

    def __init__(self, profiler: Optional[PhaseProfiler] = None) -> None:
        # (time, seq, handle, fn, args); the handle is None for a posted
        # event, which can never be cancelled.
        self._queue: List[
            Tuple[float, int, Optional[EventHandle], Callable[..., None], tuple]
        ] = []
        self._seq = itertools.count()
        self._now = 0.0
        self.events_processed = 0
        #: Cancelled handles still sitting in the queue (drives compaction).
        self._cancelled_pending = 0
        #: Times the queue was compacted (observability; pinned by tests).
        self.compactions = 0
        #: Wall-clock profiler; engine time accumulates under "engine.run".
        self.profiler = profiler
        #: Whether the most recent :meth:`run` stopped on ``max_events``
        #: with deliverable events still queued (i.e. did NOT quiesce).
        self.hit_event_limit = False

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined schedule_at (a non-negative delay can never land in the
        # past).
        time = self._now + delay
        handle = EventHandle(next(self._seq), time, self._note_cancel)
        heapq.heappush(self._queue, (time, handle.seq, handle, fn, args))
        return handle

    def post(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: same order, no handle.

        The per-message entry point.  The event takes its ``(time, seq)``
        from the same clock and counter as :meth:`schedule`, so posted and
        scheduled events interleave in insertion order; it cannot be
        cancelled, so no :class:`EventHandle` is allocated for it.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(
            self._queue, (self._now + delay, next(self._seq), None, fn, args)
        )

    def schedule_at(
        self, time: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise ValueError(f"cannot schedule into the past ({time} < {self._now})")
        handle = EventHandle(next(self._seq), time, self._note_cancel)
        heapq.heappush(self._queue, (time, handle.seq, handle, fn, args))
        return handle

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    def _note_cancel(self) -> None:
        """A queued handle was cancelled; compact once mostly dead.

        Compaction preserves the surviving entries' (time, seq) pop order
        exactly, so it never perturbs determinism -- it only stops
        timer-heavy runs (pacing/damping) from bloating the heap with
        tombstones that every push and pop must still sift past.
        """
        self._cancelled_pending += 1
        queue = self._queue
        if (
            len(queue) >= self.COMPACT_MIN_QUEUE
            and self._cancelled_pending * 2 > len(queue)
        ):
            self._queue = [
                entry
                for entry in queue
                if entry[2] is None or not entry[2]._cancelled
            ]
            heapq.heapify(self._queue)
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
        ``run(until=...)`` slices with wall-clock-style bookkeeping without
        caring which case occurred.

        Returns the number of events processed by this call.  If
        ``max_events`` fire without the queue draining -- a non-quiescing
        protocol -- either raises :class:`SimulationLimitError` (the
        default) or, with ``raise_on_limit=False``, stops with the
        over-budget event still queued and :attr:`hit_event_limit` set, so
        callers can report a non-quiescent run instead of crashing.
        """
        processed = 0
        self.hit_event_limit = False
        t0 = time.perf_counter() if self.profiler is not None else 0.0
        try:
            while self._queue:
                event_time, _seq, handle, fn, args = self._queue[0]
                if until is not None and event_time > until:
                    break
                if processed >= max_events and (
                    handle is None or not handle._cancelled
                ):
                    self.hit_event_limit = True
                    if raise_on_limit:
                        raise SimulationLimitError(
                            f"exceeded {max_events} events at t={self._now}"
                        )
                    break
                heapq.heappop(self._queue)
                self._now = event_time
                if handle is not None:
                    if handle._cancelled:
                        if self._cancelled_pending > 0:
                            self._cancelled_pending -= 1
                        continue
                    # A fired handle may still be cancel()ed later
                    # (harmless); detach the callback so that cannot skew
                    # the tombstone count toward premature compactions.
                    handle._on_cancel = None
                fn(*args)
                processed += 1
                self.events_processed += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            if self.profiler is not None:
                self.profiler.add("engine.run", time.perf_counter() - t0)
        return processed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Simulator(now={self._now}, pending={self.pending})"
