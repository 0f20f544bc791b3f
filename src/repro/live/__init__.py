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
  quiescence), the live substrate adapter, failure episodes, and
  FaultPlan-driven runs.
* :mod:`~repro.live.supervisor` — the init system: dead/hung serve-task
  detection, backed-off restarts, rolling-restart orchestration.
* :mod:`~repro.live.fidelity` — the sim-vs-live fidelity report.
"""

from repro.live.clock import LiveClock, LiveTimerHandle
from repro.live.network import LiveNetwork, NodeState
from repro.live.runner import (
    LiveRunResult,
    LiveSubstrate,
    SettleTimeout,
    run_live,
    run_live_async,
    settle,
    try_settle,
)
from repro.live.supervisor import Supervisor, SupervisorConfig
from repro.live.fidelity import FidelityReport, fidelity_report, format_report

__all__ = [
    "FidelityReport",
    "LiveClock",
    "LiveNetwork",
    "LiveRunResult",
    "LiveSubstrate",
    "LiveTimerHandle",
    "NodeState",
    "SettleTimeout",
    "Supervisor",
    "SupervisorConfig",
    "fidelity_report",
    "format_report",
    "run_live",
    "run_live_async",
    "settle",
    "try_settle",
]
