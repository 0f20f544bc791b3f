"""The live asyncio/UDP substrate.

The second implementation of the engine/transport boundary
(:mod:`repro.simul.transport`): the same protocol nodes that run inside
the discrete-event simulator run here as real asyncio tasks, one per AD,
speaking length-prefixed canonical JSON (:mod:`repro.simul.wire`) over
UDP sockets on the loopback interface.

* :class:`~repro.live.clock.LiveClock` — wall-clock time scaled to
  protocol time units; ``schedule()`` maps onto ``loop.call_later``.
* :class:`~repro.live.network.LiveNetwork` — the
  :class:`~repro.simul.transport.Transport`: per-AD UDP endpoints, node
  lifecycle (start/serve/drain/stop), crash/restart.
* :mod:`~repro.live.runner` — wall-clock convergence (settle-based
  quiescence) and the live substrate adapter; the loops over it are the
  simulator's own: the harness's one cell driver
  (:func:`repro.harness.chaos.run_cell`) and
  :func:`repro.simul.runner.run_episodes` for a protocol object.
* :mod:`~repro.live.supervisor` — the init system: dead/hung serve-task
  detection, backed-off restarts, rolling-restart orchestration.

Sim-vs-live fidelity is a live cell and its sim twin ending on the same
routes digest (:func:`repro.harness.chaos.routes_digest`); ``repro live
fidelity`` runs that check from the command line.
"""

from repro.live.clock import LiveClock, LiveTimerHandle
from repro.live.network import LiveNetwork, NodeState
from repro.live.runner import LiveSubstrate, SettleTimeout, settle, try_settle
from repro.live.supervisor import Supervisor

__all__ = [
    "LiveClock",
    "LiveNetwork",
    "LiveSubstrate",
    "LiveTimerHandle",
    "NodeState",
    "SettleTimeout",
    "Supervisor",
    "settle",
    "try_settle",
]
