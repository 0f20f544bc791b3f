"""The engine/transport boundary.

Protocol nodes are pure message-in/message-out processes; everything they
need from the outside world is captured by two small interfaces:

* :class:`Clock` — tells the time and schedules timers.  Timers return a
  :class:`TimerHandle` whose :meth:`~TimerHandle.cancel` is idempotent and
  harmless after the timer fired (cancel-after-fire is a no-op, never an
  error).
* :class:`Transport` — owns the topology view and the node registry,
  delivers control messages between neighbouring ADs, and accounts for
  every byte.  Three verbs: :meth:`~Transport.neighbors`,
  :meth:`~Transport.send` and :meth:`~Transport.broadcast`, the last
  *defined* as the first two in a loop and written here once as one scan
  of the sender's links, which hands each live neighbour to the
  substrate's ``_post`` -- the part of ``send`` past its adjacency and
  liveness checks -- so it delivers what the loop would; no substrate
  overrides it.  The driver-facing skeleton (the registry, crash
  silencing, link notification, the start order, the trace hook) is
  written here once too; a substrate overrides a piece only to add its
  own step, calling ``super()``.

Two substrates implement them:

* the discrete-event simulator (:class:`~repro.simul.network.SimNetwork`,
  whose clock is the :class:`~repro.simul.engine.Simulator` itself), which
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
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
)

from repro.adgraph.ad import ADId
from repro.simul.metrics import MetricsCollector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adgraph.ad import InterADLink
    from repro.adgraph.graph import InterADGraph
    from repro.simul.messages import Message
    from repro.simul.node import ProtocolNode
    from repro.simul.profiling import PhaseProfiler
    from repro.simul.trace import Tracer


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


class Transport(abc.ABC):
    """What a protocol node may ask of the network substrate, and the
    driver-facing skeleton every substrate shares.

    Plain attributes:

    * ``graph`` — the :class:`~repro.adgraph.graph.InterADGraph` topology
      (nodes read link state and policy terms from it).
    * ``clock`` — the substrate's :class:`Clock`, given at construction.
    * ``metrics`` — the :class:`~repro.simul.metrics.MetricsCollector`
      accounting messages, bytes, and computation.
    * ``profiler`` — an optional wall-clock
      :class:`~repro.simul.profiling.PhaseProfiler`: ``None`` unless the
      harness assigns one (``harness.session.open_substrate``).
    * ``nodes`` — the ``{ad_id: ProtocolNode}`` registry.
    * ``tracer`` — the one trace hook, ``None`` or the
      :class:`~repro.simul.trace.Tracer` attached; read where a message
      reaches its destination AD, before any drop, and on a link change.

    A substrate supplies its clock, :meth:`send` (the adjacency and
    liveness checks, then :meth:`_post`), :meth:`_post` and its own start
    and teardown; it overrides a registry or crash method only to add a
    step of its own, and then calls ``super()``.
    """

    def __init__(self, graph: "InterADGraph", clock: Clock) -> None:
        self.graph = graph
        self.clock = clock
        self.metrics = MetricsCollector()
        self.nodes: Dict[ADId, "ProtocolNode"] = {}
        self.profiler: Optional["PhaseProfiler"] = None
        self._crashed: Set[ADId] = set()
        self.tracer: Optional["Tracer"] = None

    # ----------------------------------------------------------- node mgmt

    def add_node(self, node: "ProtocolNode") -> "ProtocolNode":
        """Register a protocol node for an AD in the graph."""
        if node.ad_id not in self.graph:
            raise ValueError(f"AD {node.ad_id} is not in the topology")
        if node.ad_id in self.nodes:
            raise ValueError(f"AD {node.ad_id} already has a node")
        self.nodes[node.ad_id] = node
        node.transport = self
        return node

    def node(self, ad_id: ADId) -> "ProtocolNode":
        return self.nodes[ad_id]

    def _start_hooks(self) -> Iterator[Callable[[], None]]:
        """What starting the network runs, in order: every node's start
        hook in AD id order, then the Hello of every node whose runtime
        negotiates wire versions (so Hellos land on started peers).

        Lazy: a substrate that calls each hook as it is yielded asks
        ``wire.negotiate`` after the start hooks ran.
        """
        for ad_id in sorted(self.nodes):
            yield self.nodes[ad_id].start
        for ad_id in sorted(self.nodes):
            node = self.nodes[ad_id]
            if node.wire.negotiate:
                yield node.announce_wire

    # ------------------------------------------------------------ failures

    def set_link_status(self, a: ADId, b: ADId, up: bool) -> None:
        """Change a link's status now and notify both live endpoint nodes."""
        if self.tracer is not None:
            self.tracer.on_link(a, b, up)
        link = self.graph.set_link_status(a, b, up)
        for end in (a, b):
            if end in self._crashed:
                continue
            node = self.nodes.get(end)
            if node is not None:
                node.on_link_change(link, up)

    def crash_node(self, ad_id: ADId) -> None:
        """Silence an AD: in-flight deliveries to it drop, no notifications.

        Link teardown is the protocol driver's job
        (:meth:`~repro.protocols.base.RoutingProtocol.crash_node`), since
        only it knows how to propagate link-status changes consistently.
        """
        if ad_id not in self.nodes:
            raise ValueError(f"AD {ad_id} has no node to crash")
        if ad_id in self._crashed:
            raise ValueError(f"AD {ad_id} is already crashed")
        self._crashed.add(ad_id)

    def restore_node(
        self, ad_id: ADId, node: Optional["ProtocolNode"] = None
    ) -> None:
        """Un-silence a crashed AD, optionally swapping in a fresh node."""
        if ad_id not in self._crashed:
            raise ValueError(f"AD {ad_id} is not crashed")
        self._crashed.discard(ad_id)
        if node is not None:
            if node.ad_id != ad_id:
                raise ValueError(
                    f"replacement node is for AD {node.ad_id}, not AD {ad_id}"
                )
            self.nodes[ad_id] = node
            node.transport = self

    def is_crashed(self, ad_id: ADId) -> bool:
        return ad_id in self._crashed

    # ------------------------------------------------------------ messages

    @abc.abstractmethod
    def send(self, src: ADId, dst: ADId, msg: "Message") -> None:
        """Transmit a control message from ``src`` to neighbour ``dst``.

        Messages over a dead or missing link are dropped and counted, not
        raised (except that ``src``/``dst`` must at least be adjacent in
        the topology).
        """

    def neighbors(self, ad_id: ADId) -> List[ADId]:
        """Currently reachable neighbour ADs of ``ad_id`` (live links)."""
        return self.graph.neighbors(ad_id)

    def broadcast(
        self, src: ADId, msg: "Message", exclude: Optional[ADId] = None
    ) -> None:
        """Send ``msg`` from ``src`` to every live neighbour but ``exclude``.

        Defined as the loop of one :meth:`send` per entry of
        :meth:`neighbors`, in that order
        (``tests/oracles.py::reference_broadcast``), and run as one scan
        of ``src``'s incident links.  It skips only what the scan proves
        per link -- adjacent, so :meth:`send`'s lookup and non-neighbour
        error cannot apply, and up (read per call, never cached) -- and
        hands each neighbour to :meth:`_post` in the same sorted order,
        so what is delivered, dropped and counted, and in which order,
        is the loop's.
        """
        post = self._post
        for link in self.graph.incident(src):
            if link.up:
                dst = link.b if link.a == src else link.a
                if dst != exclude:
                    post(link, src, dst, msg)

    @abc.abstractmethod
    def _post(
        self, link: "InterADLink", src: ADId, dst: ADId, msg: "Message"
    ) -> None:
        """Carry ``msg`` from ``src`` to neighbour ``dst`` over ``link``,
        which is up: everything :meth:`send` does past its checks."""
