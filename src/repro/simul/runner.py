"""Convergence episodes: the substrate adapter and the plain episode loop.

The convergence experiments (E4) measure, per the paper's Section 4.3 and
5.1.1 claims, how many messages/bytes and how much simulated time each
protocol needs to reconverge after a topology change: settle the initial
convergence, apply one failure, settle again -- each settle's metrics
delta is that episode's cost (:class:`Substrate`).  Quiescence is natural
here: the protocols are purely event driven (triggered updates only, no
periodic timers), so an empty event queue means the protocol converged.

:func:`plain_episodes` is that loop, written once over the adapter for
both substrates; the harness cell consumes it, and :func:`run_episodes`
is its one-call form for scripts and the CLI.
"""

from __future__ import annotations

import asyncio
import inspect
from dataclasses import dataclass
from typing import AsyncIterator, Iterable, List, Optional, Tuple

from repro.simul.metrics import MetricsSnapshot
from repro.simul.network import SimNetwork
from repro.simul.transport import Transport


@dataclass(frozen=True)
class ConvergenceResult:
    """Cost of one convergence episode.

    Attributes:
        messages: Control messages delivered during the episode.
        bytes: Control bytes delivered.
        time: Simulated time from episode start until the last protocol
            activity (0 if the episode produced no messages).
        events: Engine events processed.
        quiesced: Whether the event queue actually drained.  ``False``
            means ``max_events`` ran out first -- the protocol had not
            converged, and the costs above are a truncated lower bound,
            not a convergence cost.
    """

    messages: int
    bytes: int
    time: float
    events: int
    quiesced: bool = True

    @classmethod
    def from_delta(
        cls,
        start: MetricsSnapshot,
        end: MetricsSnapshot,
        events: int,
        quiesced: bool = True,
    ) -> "ConvergenceResult":
        delta = end.delta(start)
        active = max(0.0, end.last_activity - start.time)
        if delta.total_messages == 0:
            active = 0.0
        return cls(
            messages=delta.total_messages,
            bytes=delta.total_bytes,
            time=active,
            events=events,
            quiesced=quiesced,
        )


class Substrate:
    """The substrate adapter: the one decision every driver shares.

    *How a run advances until settled, and what one episode costs.*
    Both substrates answer the same calls -- ``now``, ``start()``,
    ``advance_to(t)``, ``settle(until=None) -> ConvergenceResult``,
    ``apply(event)``, ``sweep()``, ``close()`` -- immediately here
    (:class:`SimSubstrate`) and awaitably over real sockets
    (:class:`repro.live.runner.LiveSubstrate`), so a driver writes its
    episode loop once and :func:`drive` runs it on either.  This base is
    the only place a metrics delta becomes a :class:`ConvergenceResult`.
    """

    network: Transport
    #: Supervisor activity for the record; ``None`` when unsupervised.
    supervision = None

    @property
    def now(self) -> float:
        return self.network.clock.now

    def snapshot(self) -> MetricsSnapshot:
        return self.network.metrics.snapshot(self.now)

    def since(
        self, before: MetricsSnapshot, events: int, quiesced: bool
    ) -> ConvergenceResult:
        """The episode from ``before`` to now (``settle`` ends with this;
        a driver that runs part of an episode itself calls it directly)."""
        return ConvergenceResult.from_delta(
            before, self.snapshot(), events, quiesced=quiesced
        )

    def timings(self) -> dict:
        """Substrate wall-clock entries for the record's ``timings``."""
        return {}


async def _done(value):
    """An adapter call's result: immediate on the simulator, awaited live."""
    return await value if inspect.isawaitable(value) else value


def _run_without_loop(coro):
    """Drive a coroutine that never suspends; no event loop is created.

    On the simulator every adapter call returns at once, so an episode
    loop runs start to finish inside one ``send``.
    """
    try:
        coro.send(None)
    except StopIteration as finished:
        return finished.value
    coro.close()
    raise RuntimeError("the episode loop suspended on the sim substrate")


def drive(coro, live: bool):
    """Run an episode loop written once over the adapter (every call
    wrapped in ``await _done(...)``): under ``asyncio.run`` on the live
    substrate, without an event loop on the simulator."""
    return asyncio.run(coro) if live else _run_without_loop(coro)


class SimSubstrate(Substrate):
    """The discrete-event side: settled means the event queue drained.

    A run that exhausts ``max_events`` first is reported, not raised
    (``quiesced=False``).  ``protocol`` is only needed by :meth:`apply`.
    """

    def __init__(
        self, network: SimNetwork, protocol=None, max_events: int = 5_000_000
    ) -> None:
        self.network = network
        self.protocol = protocol
        self.max_events = max_events

    def start(self) -> None:
        """Schedule the start hooks, unless the network already ran."""
        sim = self.network.sim
        if sim.events_processed == 0 and sim.pending == 0:
            self.network.start()

    def advance_to(self, t: float) -> None:
        """Run to instant ``t`` (a bounded run, outside any episode)."""
        self.network.run(
            until=t, max_events=self.max_events, raise_on_limit=False
        )

    def settle(self, until: Optional[float] = None) -> ConvergenceResult:
        """Run to quiescence, but no further than ``until``: one episode.

        The bound is load-bearing: a graceful crash arms a hold timer
        ``HOLD_TIME`` ahead, and running to quiescence would fast-forward
        straight through it, expiring holds that a restart scheduled
        *sooner* should have cancelled.
        """
        before = self.snapshot()
        events = self.network.run(
            until=until, max_events=self.max_events, raise_on_limit=False
        )
        return self.since(
            before, events, quiesced=not self.network.sim.hit_event_limit
        )

    def apply(self, ev: object) -> None:
        """Apply one fault event now."""
        self.protocol.apply_fault_event(ev)

    def sweep(self) -> int:
        """Serve tasks bounced by the closing maintenance sweep: none."""
        return 0

    def close(self) -> None:
        """Nothing to tear down."""


def converge(network: SimNetwork, max_events: int = 5_000_000) -> ConvergenceResult:
    """Start (if needed) and run the network to quiescence.

    A run that exhausts ``max_events`` is reported, not raised:
    the returned result has ``quiesced=False`` so callers can tell a
    converged protocol from one that was cut off mid-storm.
    """
    substrate = SimSubstrate(network, max_events=max_events)
    substrate.start()
    return substrate.settle()


async def plain_episodes(
    substrate: Substrate, plan: Iterable[object]
) -> AsyncIterator[Tuple[Optional[object], ConvergenceResult]]:
    """The plain episode loop, on either substrate.

    Starts ``substrate`` and settles the initial convergence, yielded as
    ``(None, result)``; then applies each plan event only after the
    previous episode settled and yields ``(event, result)``, so the
    per-event costs are cleanly separable.  Between yields the caller
    may act on the settled state (replay traffic, arm an ingress queue).
    """
    await _done(substrate.start())
    yield None, await _done(substrate.settle())
    for ev in plan:
        await _done(substrate.apply(ev))
        yield ev, await _done(substrate.settle())


def run_episodes(
    protocol,
    plan: Iterable[object] = (),
    *,
    time_scale: float = 0.005,
    timeout_s: float = 60.0,
) -> List[ConvergenceResult]:
    """Build ``protocol`` and run :func:`plain_episodes` over ``plan``.

    The substrate is ``protocol.substrate``: on ``"live"`` the protocol
    must not be built yet, a fresh live network paced by ``time_scale``
    (wall seconds per protocol unit) and ``timeout_s`` (settle budget)
    is opened on a new event loop and closed before this returns, even
    on error; the simulator ignores both.  Returns the initial
    convergence, then one result per plan event.
    """
    live = protocol.substrate == "live"

    async def loop() -> List[ConvergenceResult]:
        if live:
            from repro.live.runner import LiveSubstrate

            substrate = LiveSubstrate(
                protocol, time_scale=time_scale, timeout_s=timeout_s
            )
        else:
            substrate = SimSubstrate(protocol.build(), protocol)
        try:
            return [result async for _, result in plain_episodes(substrate, plan)]
        finally:
            await _done(substrate.close())

    return drive(loop(), live)
