"""Wall-clock time and timers behind the :class:`Clock` interface.

One protocol time unit is ``time_scale`` wall-clock seconds, so the same
protocol code quotes comparable times on both substrates (a sim run that
converges at t=40 and a live run at 0.2 s with ``time_scale=0.005`` are
the same 40 units).  Timers map onto ``loop.call_later`` and honour the
transport-wide :class:`~repro.simul.transport.TimerHandle` contract:
cancellation is idempotent and harmless after the timer fired.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional, Set

from repro.simul.transport import Clock, TimerHandle


class LiveTimerHandle(TimerHandle):
    """A pending ``loop.call_later`` timer."""

    __slots__ = ("_clock", "_handle", "_cancelled", "_fired")

    def __init__(self, clock: "LiveClock", handle: asyncio.TimerHandle) -> None:
        self._clock = clock
        self._handle = handle
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        """Prevent the timer from firing (idempotent, safe after fire)."""
        if self._cancelled:
            return
        self._cancelled = True
        if not self._fired:
            self._handle.cancel()
            self._clock._disarm(self)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"LiveTimerHandle({state})"


class LiveClock(Clock):
    """The event loop's clock, scaled to protocol time units."""

    __slots__ = ("_loop", "_t0", "time_scale", "_armed", "on_idle")

    def __init__(
        self, loop: asyncio.AbstractEventLoop, time_scale: float = 0.005
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be > 0 seconds per time unit")
        self._loop = loop
        self._t0 = loop.time()
        #: Wall-clock seconds per protocol time unit.
        self.time_scale = time_scale
        self._armed: Set[LiveTimerHandle] = set()
        #: Invoked when the last armed timer is disarmed (the network's wake).
        self.on_idle: Callable[[], None] = lambda: None

    @property
    def now(self) -> float:
        """Protocol time units since the clock was created."""
        return (self._loop.time() - self._t0) / self.time_scale

    @property
    def pending_timers(self) -> int:
        """Timers armed but neither fired nor cancelled.  One that fires
        stays armed until its callback returned, so what that sent or
        re-armed is already on the books when this reads zero."""
        return len(self._armed)

    @property
    def next_timer_in(self) -> Optional[float]:
        """Protocol units until the earliest armed timer (None: none armed)."""
        if not self._armed:
            return None
        when = min(handle._handle.when() for handle in self._armed)
        return max(0.0, when - self._loop.time()) / self.time_scale

    def _disarm(self, handle: LiveTimerHandle) -> None:
        self._armed.discard(handle)
        if not self._armed:
            self.on_idle()

    def call_later(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> LiveTimerHandle:
        """Run ``fn(*args)`` after ``delay`` protocol time units."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        box: list = []

        def fire() -> None:
            handle = box[0]
            handle._fired = True
            try:
                fn(*args)
            finally:
                self._disarm(handle)

        timer = self._loop.call_later(delay * self.time_scale, fire)
        handle = LiveTimerHandle(self, timer)
        box.append(handle)
        self._armed.add(handle)
        return handle

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LiveClock(now={self.now:.3f}, pending={len(self._armed)})"
