"""Wall-clock convergence on the live substrate: settling and the adapter.

The discrete-event engine knows it has converged when its queue drains;
real sockets have no such oracle, so a live run has *settled* when no
frame is in flight or queued and the network has been observably idle
for a wall-clock window (:func:`settle`).  :class:`LiveSubstrate` wraps
that into the substrate adapter every driver measures through -- the
same calls :class:`~repro.simul.runner.SimSubstrate` answers, so a
:class:`~repro.simul.runner.ConvergenceResult` from either reads the
same way (times in protocol units, not wall seconds).

:func:`run_live` injects a plan of link faults *episodically* (each
applied after the previous episode settled: the live twin of
:func:`repro.simul.runner.run_with_failures`); any other plan is
*scheduled* whole on the live clock and settled as one combined episode.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan, LinkFault, WireVersionChange
from repro.live.network import LiveNetwork
from repro.live.supervisor import Supervisor, SupervisorConfig
from repro.protocols.base import RoutingProtocol
from repro.simul.runner import ConvergenceResult, Substrate

#: How often the settle loop re-checks for quiescence (wall seconds).
_POLL_S = 0.002

#: How many per-AD diagnostic lines a SettleTimeout message carries.
_DIAG_MAX_ADS = 12

#: Operator pause after each orchestrated serve-task restart (wall s).
_BOUNCE_DWELL_S = 0.02


class SettleTimeout(RuntimeError):
    """settle() ran out its wall-clock budget before the network idled.

    The message carries per-AD diagnostic state (lifecycle, queue
    depth, dispatch progress, supervisor restart budget) so a hung
    chaos run can be debugged from the error alone.
    """


def _timeout_diagnostics(network: LiveNetwork, timeout_s: float) -> str:
    """Per-AD state for a settle timeout's error message.

    One summary line, then a line per *interesting* AD -- not serving,
    frames still queued, or a restart history -- capped at
    ``_DIAG_MAX_ADS`` entries (63-AD sweeps should not emit 63 healthy
    lines for one wedged node).
    """
    supervisor = network.supervisor
    lines = [
        f"live network failed to settle within {timeout_s:g}s: "
        f"frames sent={network.frames_sent} received={network.frames_received} "
        f"pending_sends={network._pending_sends} "
        f"idle_for={network.idle_for:.3f}s"
    ]
    interesting = []
    for ad_id, state in sorted(network.lifecycle_states().items()):
        stats = network.runtime_stats(ad_id)
        budget = None
        if supervisor is not None:
            used = supervisor.restart_counts.get(ad_id, 0)
            budget = supervisor.config.max_restarts - used
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
    if not interesting:
        interesting.append(
            "  (every AD serving with empty queues -- frames in flight "
            "or a pending send retry kept the network non-idle)"
        )
    shown = interesting[:_DIAG_MAX_ADS]
    if len(interesting) > len(shown):
        shown.append(
            f"  ... and {len(interesting) - len(shown)} more AD(s)"
        )
    return "\n".join(lines + shown)


async def settle(
    network: LiveNetwork,
    idle_window_s: float = 0.05,
    timeout_s: float = 30.0,
) -> bool:
    """Wait until the network has been idle for ``idle_window_s``.

    Idle means no frame in flight, none queued, none being processed,
    and no timer fired recently.  Returns ``True`` when the window was
    reached; a timeout raises :class:`SettleTimeout` whose message
    carries per-AD diagnostics (lifecycle state, queue counters,
    supervisor restart budget) -- measurement paths that treat a
    timeout as data catch it (:func:`try_settle`).  Errors raised
    inside serve tasks are re-raised here: a crashed serve loop would
    otherwise masquerade as quiescence.  So is a serve *task* dying
    with frames still queued: without a supervisor to restart it, those
    frames can never drain and the loop would otherwise sit out the
    full timeout on a run that is already lost.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while True:
        if network.errors:
            raise RuntimeError(
                f"{len(network.errors)} serve-task failure(s); first one follows"
            ) from network.errors[0]
        if network.supervisor is None:
            dead = network.dead_serve_tasks()
            if dead:
                details = ", ".join(
                    f"AD {ad} ({pending} frame(s) pending)"
                    for ad, pending in dead
                )
                raise RuntimeError(
                    f"serve task(s) died without a supervisor: {details}"
                )
        if network.idle() and network.idle_for >= idle_window_s:
            return True
        if loop.time() >= deadline:
            raise SettleTimeout(_timeout_diagnostics(network, timeout_s))
        await asyncio.sleep(_POLL_S)


async def try_settle(
    network: LiveNetwork,
    idle_window_s: float = 0.05,
    timeout_s: float = 30.0,
) -> bool:
    """:func:`settle`, with a timeout reported as ``False``, not raised.

    The measurement paths use this: a non-quiescing episode is a result
    (``quiesced=False`` in the record), not a crashed run.  Serve-task
    failures still raise.
    """
    try:
        return await settle(network, idle_window_s, timeout_s)
    except SettleTimeout:
        return False


@dataclass(frozen=True)
class LiveEpisode:
    """One perturbation and the reconvergence it caused."""

    label: str
    result: ConvergenceResult


@dataclass(frozen=True)
class LiveRunResult:
    """Outcome of one live run: initial convergence plus episodes."""

    initial: ConvergenceResult
    episodes: Tuple[LiveEpisode, ...] = ()
    #: Wall-clock seconds the whole run took (sockets up to close).
    wall_seconds: float = 0.0
    #: Wall seconds per protocol time unit the run used.
    time_scale: float = 0.005

    @property
    def quiesced(self) -> bool:
        """Whether every phase of the run reached quiescence."""
        return self.initial.quiesced and all(
            ep.result.quiesced for ep in self.episodes
        )


class LiveSubstrate(Substrate):
    """The live side of the substrate adapter: the same calls, awaitable.

    Builds ``protocol`` on a fresh :class:`LiveNetwork` over the running
    loop.  Settled means :func:`try_settle`'s idle window; an episode's
    event count is the frames received meanwhile.  With a ``supervisor``
    config the serve tasks are watched, and :meth:`sweep` is available.
    """

    def __init__(
        self,
        protocol: RoutingProtocol,
        *,
        time_scale: float = 0.005,
        idle_window_s: float = 0.05,
        timeout_s: float = 60.0,
        supervisor: Optional[SupervisorConfig] = None,
    ) -> None:
        if protocol.network is not None:
            raise RuntimeError(f"{protocol.name} is already built on a substrate")
        self._loop = asyncio.get_running_loop()
        self._opened = self._loop.time()
        self.protocol = protocol
        self.network = LiveNetwork(protocol.graph, time_scale=time_scale)
        protocol.substrate = "live"
        protocol.build(network=self.network)
        self.idle_window_s = idle_window_s
        self.timeout_s = timeout_s
        self.supervisor = (
            Supervisor(self.network, supervisor) if supervisor is not None else None
        )

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
        """Wait out the idle window: one episode.

        ``until`` bounds the simulator's run; real time needs no bound
        (the wait for the next instant is :meth:`advance_to`'s).
        """
        before = self.snapshot()
        frames_before = self.network.frames_received
        quiesced = await try_settle(self.network, self.idle_window_s, self.timeout_s)
        return self.since(
            before, self.network.frames_received - frames_before, quiesced
        )

    async def apply(self, ev: object) -> None:
        """Apply one fault event now.

        A wire-version flip is a binary upgrade: it also bounces the
        AD's serve task, with an operator dwell before the next one.
        """
        self.protocol.apply_fault_event(ev)
        # A perturbation is activity: a protocol that answers it by
        # arming a timer has sent nothing yet and must not read as quiet.
        self.network._touch()
        if isinstance(ev, WireVersionChange):
            await self.network.restart_runtime(ev.ad)
            await asyncio.sleep(_BOUNCE_DWELL_S)

    async def sweep(self) -> int:
        """The maintenance sweep: restart every serve task, one at a time.

        Sockets and node state survive, so the sweep is hitless -- a
        routes digest taken afterwards must not notice it happened.
        Returns the number of serve tasks restarted.
        """
        restarted = await self.supervisor.rolling_restart(dwell_s=_BOUNCE_DWELL_S)
        await try_settle(self.network, self.idle_window_s, self.timeout_s)
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


async def run_live_async(
    protocol: RoutingProtocol,
    plan: Optional[FaultPlan] = None,
    *,
    time_scale: float = 0.005,
    idle_window_s: float = 0.05,
    timeout_s: float = 60.0,
) -> LiveRunResult:
    """Build, start, converge, and fault-inject a protocol over live UDP.

    The protocol must not have been built yet; a fresh
    :class:`LiveNetwork` is constructed on the running loop, handed to
    ``protocol.build``, and always closed (sockets and serve tasks torn
    down) before this returns -- including on error.
    """
    substrate = LiveSubstrate(
        protocol,
        time_scale=time_scale,
        idle_window_s=idle_window_s,
        timeout_s=timeout_s,
    )
    try:
        await substrate.start()
        initial = await substrate.settle()
        episodes: List[LiveEpisode] = []
        if plan is not None and len(plan) > 0:
            if all(isinstance(ev, LinkFault) for ev in plan):
                # Episodic: one settled episode per link fault, so the
                # per-failure costs are separable (run_with_failures).
                for ev in plan:
                    await substrate.apply(ev)
                    state = "up" if ev.up else "down"
                    episodes.append(
                        LiveEpisode(
                            f"link {ev.a}-{ev.b} {state}", await substrate.settle()
                        )
                    )
            else:
                # Scheduled: arm the whole plan on the live clock, wait
                # out its horizon, and settle the aftermath: one combined
                # episode spanning the window plus the drain.
                before = substrate.snapshot()
                frames_before = substrate.network.frames_received
                protocol.schedule_fault_plan(plan)
                await substrate.advance_to(substrate.now + plan.horizon)
                drain = await substrate.settle()
                result = substrate.since(
                    before,
                    substrate.network.frames_received - frames_before,
                    drain.quiesced,
                )
                episodes.append(LiveEpisode(f"plan[{len(plan)} events]", result))
        return LiveRunResult(
            initial=initial,
            episodes=tuple(episodes),
            wall_seconds=substrate.timings()["live.wall"],
            time_scale=time_scale,
        )
    finally:
        await substrate.close()


def run_live(
    protocol: RoutingProtocol,
    plan: Optional[FaultPlan] = None,
    *,
    time_scale: float = 0.005,
    idle_window_s: float = 0.05,
    timeout_s: float = 60.0,
) -> LiveRunResult:
    """Synchronous wrapper: run a live episode inside ``asyncio.run``."""
    return asyncio.run(
        run_live_async(
            protocol,
            plan,
            time_scale=time_scale,
            idle_window_s=idle_window_s,
            timeout_s=timeout_s,
        )
    )
