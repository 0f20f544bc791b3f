"""The engine/transport boundary.

Protocol nodes are pure message-in/message-out processes; everything they
need from the outside world is captured by two small interfaces:

* :class:`Clock` — tells the time and schedules timers.  Timers return a
  :class:`TimerHandle` whose :meth:`~TimerHandle.cancel` is idempotent and
  harmless after the timer fired (cancel-after-fire is a no-op, never an
  error).
* :class:`Transport` — owns the topology view, delivers control messages
  between neighbouring ADs, and accounts for every byte.  Three verbs:
  :meth:`~Transport.neighbors`, :meth:`~Transport.send` and
  :meth:`~Transport.broadcast`, the last *defined* as the first two in a
  loop so a substrate may shorten it but never change what it delivers.

Two substrates implement them:

* the discrete-event simulator (:class:`~repro.simul.network.SimNetwork`
  + :class:`SimClock` over :class:`~repro.simul.engine.Simulator`), which
  is deterministic and bit-reproducible; and
* the live asyncio/UDP substrate (:mod:`repro.live`), where each AD is an
  asyncio task and timers map onto ``loop.call_later``.

Nodes must only touch these interfaces (plus their own state); protocol
*drivers* — the build/evaluate orchestration in
:mod:`repro.protocols.base` — may still reach for substrate-specific
machinery such as ``SimNetwork.run``.

The boundary is also where wire versioning stays substrate-neutral:
:meth:`Transport.send` carries in-memory :class:`~repro.simul.messages.Message`
objects, and each substrate encodes them with the *sender's* negotiated
wire version (:mod:`repro.simul.wire`, ``ProtocolNode.wire_tx_version``)
at its own edge — the sim when it counts bytes, the live substrate when
it frames UDP datagrams — so nodes negotiate and re-negotiate versions
without knowing which substrate carries their frames.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.adgraph.ad import ADId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adgraph.graph import InterADGraph
    from repro.simul.engine import Simulator
    from repro.simul.messages import Message
    from repro.simul.metrics import MetricsCollector
    from repro.simul.node import ProtocolNode
    from repro.simul.profiling import PhaseProfiler


class TimerHandle(abc.ABC):
    """Handle for a pending timer, usable to cancel it.

    Contract (identical on every substrate):

    * :meth:`cancel` is idempotent — calling it twice is a no-op.
    * Cancelling a timer that already fired is harmless: the handle simply
      stays :attr:`cancelled` and nothing else happens.  Callers may
      therefore keep handles around and cancel them defensively without
      tracking whether the timer ran.
    * A timer cancelled before its deadline never fires.
    """

    __slots__ = ()

    @abc.abstractmethod
    def cancel(self) -> None:
        """Prevent the timer from firing (idempotent, safe after fire)."""

    @property
    @abc.abstractmethod
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""


class Clock(abc.ABC):
    """Time source and timer scheduler for one substrate.

    ``now`` is in protocol time units (the sim's abstract units; the live
    substrate divides wall-clock seconds by its ``time_scale`` so both
    substrates quote comparable numbers).
    """

    __slots__ = ()

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time, in protocol time units."""

    @abc.abstractmethod
    def call_later(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> TimerHandle:
        """Run ``fn(*args)`` after ``delay`` time units; returns a handle."""


class SimClock(Clock):
    """The discrete-event engine exposed through the :class:`Clock` API.

    A thin veneer over :class:`~repro.simul.engine.Simulator`: it adds no
    events, state, or ordering of its own, so the sim substrate stays
    byte-identical to driving the engine directly.
    """

    __slots__ = ("_sim",)

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim

    @property
    def now(self) -> float:
        return self._sim.now

    def call_later(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> TimerHandle:
        return self._sim.schedule(delay, fn, *args)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(now={self._sim.now})"


class Transport(abc.ABC):
    """What a protocol node may ask of the network substrate.

    Concrete transports also expose, as plain attributes:

    * ``graph`` — the :class:`~repro.adgraph.graph.InterADGraph` topology
      (nodes read link state and policy terms from it).
    * ``metrics`` — the :class:`~repro.simul.metrics.MetricsCollector`
      accounting messages, bytes, and computation.
    * ``profiler`` — an optional wall-clock
      :class:`~repro.simul.profiling.PhaseProfiler` (may be ``None``).
    * ``nodes`` — the ``{ad_id: ProtocolNode}`` registry.
    """

    graph: "InterADGraph"
    metrics: "MetricsCollector"
    profiler: Optional["PhaseProfiler"]
    nodes: Dict[ADId, "ProtocolNode"]

    @property
    @abc.abstractmethod
    def clock(self) -> Clock:
        """The substrate's time source and timer scheduler."""

    @abc.abstractmethod
    def send(self, src: ADId, dst: ADId, msg: "Message") -> None:
        """Transmit a control message from ``src`` to neighbour ``dst``.

        Messages over a dead or missing link are dropped and counted, not
        raised (except that ``src``/``dst`` must at least be adjacent in
        the topology).
        """

    @abc.abstractmethod
    def neighbors(self, ad_id: ADId) -> List[ADId]:
        """Currently reachable neighbour ADs of ``ad_id`` (live links)."""

    def broadcast(
        self, src: ADId, msg: "Message", exclude: Optional[ADId] = None
    ) -> None:
        """Send ``msg`` from ``src`` to every live neighbour but ``exclude``.

        Defined as this loop: one :meth:`send` per entry of
        :meth:`neighbors`, in that order.  A substrate may override it to
        fan out faster, but only by skipping work the loop would repeat
        per neighbour (the adjacency and liveness lookups); what is
        delivered, dropped and counted, and in which order, must match.
        """
        for nbr in self.neighbors(src):
            if nbr != exclude:
                self.send(src, nbr, msg)
