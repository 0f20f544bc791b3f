"""Supervised node lifecycle for the live substrate.

A routing process on the live substrate is an asyncio serve task, and
real processes die: an unhandled exception, a stray cancellation, a
dispatch that wedges forever.  Without supervision a dead task strands
its queued frames and the whole run with them (``settle`` now raises on
exactly that).  The :class:`Supervisor` is the live substrate's init
system:

* **dead-task detection** -- a serve task that finished while its
  runtime still claims SERVING/DRAINING is restarted;
* **hung-task detection** -- a runtime with queued frames and no
  dispatch progress past the heartbeat deadline is restarted (the
  deadline runs from the last dispatch, or from the arrival of work at
  an idle runtime);
* **exponential backoff + jitter** -- restarts of a crash-looping node
  space out geometrically (seeded jitter keeps the schedule
  deterministic per seed) up to a bounded per-AD budget; exhausting the
  budget surfaces a ``RuntimeError`` through ``network.errors`` so the
  next settle fails loudly instead of spinning;
* **rolling restarts** -- an orchestrated one-AD-at-a-time sweep of
  serve-task restarts across the topology, the maintenance-window
  scenario E15 measures.

The policy -- deadlines, backoff and budget -- is module constants;
only the jitter seed varies per run.  An operator bounce
(:meth:`LiveNetwork.restart_runtime
<repro.live.network.LiveNetwork.restart_runtime>`, which rolling
restarts and wire-version upgrades use) is never seen as a dead task.

Restarts preserve the AD's socket (see
:meth:`~repro.live.network.LiveNetwork.restart_runtime`): the port and
any frame already handed to the kernel survive, which keeps idle
detection's ``sent == received`` invariant intact across a recovery.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Optional, Sequence, Set

from repro.adgraph.ad import ADId
from repro.live.network import LiveNetwork

__all__ = ["Supervisor"]

# Supervision policy: detection deadlines and the restart budget.  All
# times are wall-clock seconds (supervision is a substrate concern, not
# a protocol one, so it does not scale with ``time_scale``).

#: How often the watch loop inspects every runtime.
POLL_S = 0.02
#: A runtime with queued frames and no dispatch progress for this long
#: is declared hung and restarted.
HEARTBEAT_S = 1.0
#: First restart delay; multiplied by ``BACKOFF_FACTOR`` per successive
#: restart of the same AD, capped at ``BACKOFF_MAX_S``.
BACKOFF_INITIAL_S = 0.02
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 1.0
#: Jitter fraction: each delay is stretched by up to this much (seeded,
#: so a given seed replays the same schedule).
JITTER = 0.1
#: Restarts per AD before the supervisor gives the node up and fails the
#: run through ``network.errors``.
MAX_RESTARTS = 5


class Supervisor:
    """Watches a :class:`LiveNetwork`'s serve tasks and restarts casualties.

    ``seed`` seeds the backoff jitter.
    """

    def __init__(self, network: LiveNetwork, seed: int = 0) -> None:
        self.network = network
        self._rng = random.Random(seed)
        self._task: Optional[asyncio.Task] = None
        #: Per-AD restart counts (the budget accumulator).
        self.restart_counts: Dict[ADId, int] = {}
        #: ADs whose budget is exhausted; never restarted again.
        self.given_up: Set[ADId] = set()
        #: Chronological supervision log: dicts with ad/reason/delay.
        self.events: List[Dict[str, object]] = []

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> "Supervisor":
        """Spawn the watch loop and attach to the network."""
        if self._task is not None:
            raise RuntimeError("supervisor already started")
        self.network.supervisor = self
        self._task = asyncio.get_running_loop().create_task(
            self._watch(), name="live-supervisor"
        )
        return self

    async def stop(self) -> None:
        """Cancel the watch loop and detach from the network."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if self.network.supervisor is self:
            self.network.supervisor = None

    def summary(self) -> Dict[str, object]:
        """Supervision activity so far, as the run record carries it."""
        return {
            "restarts": sum(self.restart_counts.values()),
            "gave_up": sorted(self.given_up),
            "events": len(self.events),
        }

    # ------------------------------------------------------------ watching

    async def _watch(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            for ad_id, pending in self.network.dead_serve_tasks():
                if ad_id not in self.given_up:
                    await self._recover(ad_id, f"dead task ({pending} queued)")
            for ad_id, rt in sorted(self.network._runtimes.items()):
                if ad_id in self.given_up:
                    continue
                if (
                    rt.unprocessed > 0
                    and rt.task is not None
                    and not rt.task.done()
                    and loop.time() - rt.last_progress > HEARTBEAT_S
                ):
                    await self._recover(
                        ad_id, f"hung ({rt.unprocessed} queued, no progress)"
                    )
            await asyncio.sleep(POLL_S)

    async def _recover(self, ad_id: ADId, reason: str) -> None:
        """Restart one AD's serve task after the backed-off delay."""
        count = self.restart_counts.get(ad_id, 0)
        if count >= MAX_RESTARTS:
            self.given_up.add(ad_id)
            self.events.append(
                {"ad": ad_id, "reason": reason, "gave_up": True}
            )
            self.network.fail(
                RuntimeError(
                    f"supervisor gave up on AD {ad_id} after "
                    f"{count} restart(s): {reason}"
                )
            )
            return
        delay = min(BACKOFF_INITIAL_S * (BACKOFF_FACTOR ** count), BACKOFF_MAX_S)
        delay *= 1.0 + JITTER * self._rng.random()
        self.events.append(
            {"ad": ad_id, "reason": reason, "delay": delay, "gave_up": False}
        )
        await asyncio.sleep(delay)
        self.restart_counts[ad_id] = count + 1
        await self.network.restart_runtime(ad_id)

    # ----------------------------------------------------------- orchestration

    async def rolling_restart(self, ads: Optional[Sequence[ADId]] = None) -> int:
        """Restart every AD's serve task, one at a time (maintenance sweep).

        An AD is bounced only once no frame is in flight or queued
        anywhere (:meth:`LiveNetwork.drained`): the previous restart's
        backlog has drained and the queue flush that comes with this one
        loses nothing -- the "rolling" in rolling restart; a backlog that
        cannot drain raises and stops the sweep.  Returns the number of
        ADs restarted.  Budget accounting is not charged for
        orchestrated restarts: the operator asked for them.
        """
        targets = sorted(self.network._runtimes) if ads is None else list(ads)
        restarted = 0
        for ad_id in targets:
            if ad_id in self.given_up:
                continue
            await self.network.drained()
            await self.network.restart_runtime(ad_id)
            restarted += 1
            self.events.append(
                {"ad": ad_id, "reason": "rolling restart", "gave_up": False}
            )
        return restarted
