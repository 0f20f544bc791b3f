"""Discrete-event message-passing simulation substrate.

All routing protocols in this reproduction run as message-passing node
processes over a deterministic discrete-event engine:

* :class:`~repro.simul.engine.Simulator` — the event queue (time-ordered,
  ties broken by insertion sequence, so runs are bit-reproducible).
* :class:`~repro.simul.network.SimNetwork` — binds a topology to protocol
  nodes; delivers messages with per-link delay, accounts for every byte,
  and delivers link up/down notifications to the endpoints.
* :class:`~repro.simul.node.ProtocolNode` — base class protocol nodes
  extend.
* :mod:`~repro.simul.runner` — the substrate adapter and the plain
  episode loop (settle, apply one fault event, settle again).
* :mod:`~repro.simul.transport` — the engine/transport boundary
  (:class:`Transport`/:class:`Clock`/:class:`TimerHandle`); the engine
  above is one implementation of it, :mod:`repro.live` is the other.
* :mod:`~repro.simul.wire` — canonical JSON codec for every message
  type (what the live substrate puts on its sockets).
"""

from repro.simul.engine import Simulator
from repro.simul.messages import Message
from repro.simul.metrics import MetricsCollector, MetricsSnapshot
from repro.simul.network import SimNetwork
from repro.simul.node import ProtocolNode
from repro.simul.profiling import PhaseProfiler
from repro.simul.runner import ConvergenceResult, converge, run_episodes
from repro.simul.trace import TraceRecord, Tracer
from repro.simul.transport import Clock, TimerHandle, Transport
from repro.simul.wire import WireError, from_wire, to_wire

__all__ = [
    "Clock",
    "ConvergenceResult",
    "Message",
    "MetricsCollector",
    "MetricsSnapshot",
    "PhaseProfiler",
    "ProtocolNode",
    "SimNetwork",
    "Simulator",
    "TimerHandle",
    "TraceRecord",
    "Tracer",
    "Transport",
    "WireError",
    "converge",
    "from_wire",
    "run_episodes",
    "to_wire",
]
