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
  quiescence) and the live substrate adapter; the episode loops over
  it (:func:`repro.simul.runner.run_episodes`, the harness drivers) are
  the simulator's own.
* :mod:`~repro.live.supervisor` — the init system: dead/hung serve-task
  detection, backed-off restarts, rolling-restart orchestration.
* :mod:`~repro.live.fidelity` — the sim-vs-live fidelity report.
"""

from repro.live.clock import LiveClock, LiveTimerHandle
from repro.live.network import LiveNetwork, NodeState
from repro.live.runner import LiveSubstrate, SettleTimeout, settle, try_settle
from repro.live.supervisor import Supervisor
from repro.live.fidelity import FidelityReport, fidelity_report, format_report

__all__ = [
    "FidelityReport",
    "LiveClock",
    "LiveNetwork",
    "LiveSubstrate",
    "LiveTimerHandle",
    "NodeState",
    "SettleTimeout",
    "Supervisor",
    "fidelity_report",
    "format_report",
    "settle",
    "try_settle",
]
