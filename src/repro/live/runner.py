"""Wall-clock convergence on the live substrate: settling and the adapter.

The discrete-event engine knows it has converged when its queue drains;
the live substrate knows the same way -- termination detection, not a
silence timeout: a run has *settled* the instant nothing is outstanding
(:meth:`LiveNetwork.quiescent`), and :func:`settle` sleeps until the
event that makes that true.  It waits for events, never for durations;
the only clock it sleeps on is the protocol's own.  :class:`LiveSubstrate`
wraps that into the adapter every driver measures through -- the same
calls :class:`~repro.simul.runner.SimSubstrate` answers, so a
:class:`~repro.simul.runner.ConvergenceResult` from either reads the
same way (times in protocol units, not wall seconds).  The plain
episode loop over it is :func:`repro.simul.runner.plain_episodes`, the
same loop the simulator runs.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from repro.faults.plan import WireVersionChange
from repro.live.network import LiveNetwork
from repro.live.supervisor import MAX_RESTARTS, Supervisor
from repro.protocols.base import RoutingProtocol
from repro.simul.runner import ConvergenceResult, Substrate

#: Shortest sleep of :meth:`LiveSubstrate.advance_to` (wall seconds).
_POLL_S = 0.002

#: How many per-AD diagnostic lines a SettleTimeout message carries.
_DIAG_MAX_ADS = 12


class SettleTimeout(RuntimeError):
    """settle() ran out its wall-clock budget before the network quiesced.

    The message names each non-zero term of the quiescence predicate and
    carries per-AD state (lifecycle, queue depth, dispatch progress,
    restart budget) so a hung chaos run can be debugged from it alone.
    """


def _timeout_diagnostics(network: LiveNetwork, timeout_s: float) -> str:
    """Why the network is not quiescent, for a settle timeout's message.

    One line per non-zero term of :meth:`LiveNetwork.quiescent`, then a
    line per *interesting* AD -- not serving, frames still queued, or a
    restart history -- capped at ``_DIAG_MAX_ADS`` entries (63-AD sweeps
    should not emit 63 healthy lines for one wedged node).
    """
    supervisor = network.supervisor
    clock = network.clock
    sent, received = network.frames_sent, network.frames_received
    unsent, outbox = network._pending_sends, network.outbox_frames()
    # Unsupervised, a dead serve task has already raised from settle().
    dead = ", ".join(f"AD {ad_id}" for ad_id, _ in network.dead_serve_tasks())
    terms = (
        (sent - received, f"frames in flight: {sent - received} (sent={sent} received={received})"),
        (
            unsent,
            f"frames not yet sent: {unsent} (outbox={outbox} "
            f"retrying={unsent - outbox})",
        ),
        (
            clock.pending_timers,
            f"armed timers: {clock.pending_timers} (earliest fires in "
            f"{clock.next_timer_in or 0.0:.1f} protocol units)",
        ),
        (network._queued, f"queued frames: {network._queued}"),
        (dead, f"under supervisor recovery: {dead}"),
    )
    lines = [f"live network failed to settle within {timeout_s:g}s:"]
    lines += [f"  {text}" for nonzero, text in terms if nonzero]
    interesting = []
    for ad_id, state in sorted(network.lifecycle_states().items()):
        stats = network.runtime_stats(ad_id)
        budget = None
        if supervisor is not None:
            used = supervisor.restart_counts.get(ad_id, 0)
            budget = MAX_RESTARTS - used
        if (
            stats["unprocessed"] == 0
            and state.value == "serving"
            and stats["restarts"] == 0
            and not network.is_crashed(ad_id)
        ):
            continue
        entry = (
            f"  AD {ad_id}: state={state.value} "
            f"unprocessed={stats['unprocessed']} "
            f"dispatched={stats['dispatched']} "
            f"restarts={stats['restarts']}"
        )
        if network.is_crashed(ad_id):
            entry += " crashed"
        if budget is not None:
            entry += f" restart_budget_remaining={budget}"
        interesting.append(entry)
    shown = interesting[:_DIAG_MAX_ADS]
    if len(interesting) > len(shown):
        shown.append(
            f"  ... and {len(interesting) - len(shown)} more AD(s)"
        )
    return "\n".join(lines + shown)


async def settle(
    network: LiveNetwork,
    timeout_s: float = 30.0,
    until: Optional[float] = None,
) -> bool:
    """Wait until the network is quiescent, or its clock reads ``until``.

    Quiescent is :meth:`LiveNetwork.quiescent`, awaited event by event
    (:meth:`LiveNetwork.wait_for`); an already-quiescent network returns
    without yielding to the loop.  ``until`` (protocol units) bounds the
    wait exactly as it bounds the simulator's run: timers armed beyond
    it stay armed.  Returns ``True`` either way; a timeout raises
    :class:`SettleTimeout`, whose message names what was still
    outstanding -- measurement paths that treat a timeout as data catch
    it (:func:`try_settle`).  Errors raised inside serve tasks are
    re-raised here: a crashed serve loop would otherwise masquerade as
    quiescence.  So is a serve *task* dying without a supervisor to
    restart it, on a run that is already lost.
    """
    if not await network.wait_for(network.quiescent, timeout_s, until):
        raise SettleTimeout(_timeout_diagnostics(network, timeout_s))
    return True


async def try_settle(
    network: LiveNetwork,
    timeout_s: float = 30.0,
    until: Optional[float] = None,
) -> bool:
    """:func:`settle`, with a timeout reported as ``False``, not raised.

    The measurement paths use this: a non-quiescing episode is a result
    (``quiesced=False`` in the record), not a crashed run.  Serve-task
    failures still raise.
    """
    try:
        return await settle(network, timeout_s, until)
    except SettleTimeout:
        return False


class LiveSubstrate(Substrate):
    """The live side of the substrate adapter: the same calls, awaitable.

    Builds ``protocol`` on a fresh :class:`LiveNetwork` over the running
    loop.  Settled means :func:`try_settle`'s exact quiescence; an episode's
    event count is the frames received meanwhile.  With a
    ``supervisor_seed`` the serve tasks are watched by a
    :class:`~repro.live.supervisor.Supervisor` seeded with it, and
    :meth:`sweep` is available.
    """

    def __init__(
        self,
        protocol: RoutingProtocol,
        *,
        time_scale: float = 0.005,
        timeout_s: float = 60.0,
        supervisor_seed: Optional[int] = None,
    ) -> None:
        if protocol.network is not None:
            raise RuntimeError(f"{protocol.name} is already built on a substrate")
        self._loop = asyncio.get_running_loop()
        self._opened = self._loop.time()
        self.protocol = protocol
        self.network = LiveNetwork(protocol.graph, time_scale=time_scale)
        protocol.substrate = "live"
        protocol.build(network=self.network)
        self.timeout_s = timeout_s
        self.supervisor = None
        if supervisor_seed is not None:
            self.supervisor = Supervisor(self.network, supervisor_seed)

    async def start(self) -> None:
        await self.network.start()
        if self.supervisor is not None:
            await self.supervisor.start()

    async def advance_to(self, t: float) -> None:
        """Sleep until the live clock reads ``t`` protocol units."""
        clock = self.network.clock
        while clock.now < t:
            await asyncio.sleep(max(_POLL_S, (t - clock.now) * clock.time_scale))

    async def settle(self, until: Optional[float] = None) -> ConvergenceResult:
        """Wait for quiescence, but no further than ``until``: one episode.

        The bound is load-bearing here for the reason it is on the
        simulator: a graceful crash arms a hold timer ``HOLD_TIME``
        ahead, which the *next* plan step must get the chance to cancel.
        """
        before = self.snapshot()
        frames_before = self.network.frames_received
        quiesced = await try_settle(self.network, self.timeout_s, until)
        return self.since(
            before, self.network.frames_received - frames_before, quiesced
        )

    async def apply(self, ev: object) -> None:
        """Apply one fault event now.

        A wire-version flip is a binary upgrade: it also bounces the
        AD's serve task, and the operator lets the renegotiation drain
        before touching the next one.
        """
        self.protocol.apply_fault_event(ev)
        if isinstance(ev, WireVersionChange):
            await self.network.restart_runtime(ev.ad)
            await self.network.drained()

    async def sweep(self) -> int:
        """The maintenance sweep: restart every serve task, one at a time.

        Sockets and node state survive, so the sweep is hitless -- a
        routes digest taken afterwards must not notice it happened.
        Returns the number of serve tasks restarted.
        """
        restarted = await self.supervisor.rolling_restart()
        await try_settle(self.network, self.timeout_s)
        return restarted

    @property
    def supervision(self) -> Optional[Dict[str, object]]:
        return self.supervisor.summary() if self.supervisor is not None else None

    def timings(self) -> Dict[str, float]:
        """Wall seconds since the adapter was opened, as ``live.wall``."""
        return {"live.wall": self._loop.time() - self._opened}

    async def close(self) -> None:
        """Stop the supervisor, then every AD (sockets and serve tasks)."""
        if self.supervisor is not None:
            await self.supervisor.stop()
        await self.network.close()
