"""The simulated inter-AD network.

:class:`SimNetwork` owns the topology, the event engine, the metrics
collector, and the protocol nodes.  It is the only place control messages
cross between nodes, so every byte is accounted here.

Message delivery models the link's ``delay`` metric; messages sent over a
link that is down (or that dies while unchecked, since we check at send
time) are dropped and counted.  Link status changes notify both endpoint
nodes synchronously at the scheduled time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Set, Tuple

from repro.adgraph.ad import ADId
from repro.adgraph.failures import FailurePlan
from repro.adgraph.graph import InterADGraph
from repro.simul.engine import Simulator
from repro.simul.ingress import IngressConfig, IngressModel
from repro.simul.messages import Message
from repro.simul.metrics import MetricsCollector
from repro.simul.node import ProtocolNode
from repro.simul.profiling import PhaseProfiler
from repro.simul.transport import Clock, SimClock, Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.channel import ChannelModel, Impairment


class SimNetwork(Transport):
    """Binds a topology to protocol nodes over a discrete-event engine.

    The simulated implementation of the
    :class:`~repro.simul.transport.Transport` interface; its
    :attr:`clock` is a :class:`~repro.simul.transport.SimClock` over the
    discrete-event engine, so everything stays deterministic.
    """

    def __init__(
        self,
        graph: InterADGraph,
        sim: Optional[Simulator] = None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        self.graph = graph
        self.sim = sim or Simulator(profiler=profiler)
        self.metrics = MetricsCollector()
        self.nodes: Dict[ADId, ProtocolNode] = {}
        self.profiler = profiler
        self.channel: Optional["ChannelModel"] = None
        self.ingress: Optional[IngressModel] = None
        self._crashed: Set[ADId] = set()
        self._clock = SimClock(self.sim)

    @property
    def clock(self) -> Clock:
        """The engine behind the substrate-neutral :class:`Clock` API."""
        return self._clock

    def neighbors(self, ad_id: ADId) -> list:
        """Currently reachable neighbour ADs (live links only)."""
        return self.graph.neighbors(ad_id)

    def set_profiler(self, profiler: Optional[PhaseProfiler]) -> None:
        """Attach (or detach) a wall-clock profiler to network and engine."""
        self.profiler = profiler
        self.sim.profiler = profiler

    # ----------------------------------------------------------- node mgmt

    def add_node(self, node: ProtocolNode) -> ProtocolNode:
        """Register a protocol node for an AD in the graph."""
        if node.ad_id not in self.graph:
            raise ValueError(f"AD {node.ad_id} is not in the topology")
        if node.ad_id in self.nodes:
            raise ValueError(f"AD {node.ad_id} already has a node")
        self.nodes[node.ad_id] = node
        node.attach(self)
        return node

    def add_nodes(self, nodes: Iterable[ProtocolNode]) -> None:
        for node in nodes:
            self.add_node(node)

    def node(self, ad_id: ADId) -> ProtocolNode:
        return self.nodes[ad_id]

    def start(self) -> None:
        """Schedule every node's start hook at t=0 (in AD id order).

        Nodes whose runtime negotiates wire versions additionally get
        their Hello announcement scheduled (after every start hook, so
        Hellos land on started peers).  With negotiation off -- the
        default -- no extra event is ever scheduled and the event
        stream is byte-identical to the pre-versioning engine.
        """
        for ad_id in sorted(self.nodes):
            self.sim.schedule(0.0, self.nodes[ad_id].start)
        for ad_id in sorted(self.nodes):
            node = self.nodes[ad_id]
            if node.wire.negotiate:
                self.sim.schedule(0.0, node.announce_wire)

    # ------------------------------------------------------------ messages

    def send(self, src: ADId, dst: ADId, msg: Message) -> None:
        """Transmit a control message from ``src`` to neighbour ``dst``.

        The message is dropped (and counted) if no live link exists at send
        time.  Otherwise it is delivered after the link's delay.
        """
        link = self.graph.link_if_exists(src, dst)
        if link is None:
            raise ValueError(f"AD {src} and AD {dst} are not neighbours")
        if not link.up:
            self.metrics.count_drop()
            return
        delay = link.metrics.get("delay", 1.0)
        # Deliveries are posted, not scheduled: nobody can cancel one, so
        # the engine builds no handle.  ``self._deliver`` is looked up per
        # call so that Tracer.attach's instance patch sees every delivery.
        if self.channel is None:
            self.sim.post(delay, self._deliver, src, dst, msg)
            return
        copies = self.channel.transmit(src, dst)
        if not copies:
            self.metrics.count_channel_drop()
            return
        if len(copies) > 1:
            self.metrics.count_duplicated(len(copies) - 1)
        for extra in copies:
            self.sim.post(delay + extra, self._deliver, src, dst, msg)

    def broadcast(
        self, src: ADId, msg: Message, exclude: Optional[ADId] = None
    ) -> None:
        """:meth:`Transport.broadcast` in one pass over ``src``'s links.

        Skips only what the scan itself proves per link -- it is adjacent
        (so :meth:`send`'s lookup and non-neighbour error cannot apply)
        and up (read per call, never cached) -- and posts in the same
        sorted-neighbour order, so events, counters and delivery order are
        those of the default loop.  With a channel attached the loop runs
        as is: loss, duplication and jitter stay in :meth:`send`.
        """
        if self.channel is not None:
            super().broadcast(src, msg, exclude)
            return
        post = self.sim.post
        deliver = self._deliver
        for link in self.graph.incident(src):
            if link.up:
                dst = link.b if link.a == src else link.a
                if dst != exclude:
                    post(link.metrics.get("delay", 1.0), deliver, src, dst, msg)

    def _deliver(self, src: ADId, dst: ADId, msg: Message, attempt: int = 0) -> None:
        # A link that died in flight still delivers what was already sent;
        # the failure notification races the last messages, as in reality.
        if dst in self._crashed:
            self.metrics.count_drop()
            return
        if self.ingress is not None and self.ingress.config.bounded:
            self._enqueue(src, dst, msg, attempt)
            return
        # type(msg).__name__ / sim._now are msg.type_name / sim.now minus
        # the two property calls (this line runs once per message).
        self.metrics.count_message(
            type(msg).__name__, msg.size_bytes(), self.sim._now
        )
        self.nodes[dst].receive(src, msg)

    # -------------------------------------------------------------- ingress

    def set_ingress(self, model: Optional[IngressModel]) -> None:
        """Attach a bounded ingress stage (``None`` restores instant delivery).

        Accepts an :class:`IngressModel` or a bare :class:`IngressConfig`.
        """
        if isinstance(model, IngressConfig):
            model = IngressModel(model)
        self.ingress = model

    def _enqueue(self, src: ADId, dst: ADId, msg: Message, attempt: int) -> None:
        """Admit a delivered message to ``dst``'s bounded input queue."""
        assert self.ingress is not None
        cfg = self.ingress.config
        q = self.ingress.queue_of(dst)
        if not q.busy:
            q.busy = True
            q.serving = (src, msg)
            q.peak_depth = max(q.peak_depth, q.depth)
            self.sim.schedule(cfg.service_time, self._pump, dst, q.epoch)
            return
        if len(q.items) < cfg.capacity:  # type: ignore[operator]
            q.items.append((src, msg, attempt))
            q.peak_depth = max(q.peak_depth, q.depth)
            return
        if cfg.policy == "backpressure" and attempt < cfg.max_redeliveries:
            q.deferred += 1
            self.metrics.count_deferred()
            self.sim.post(cfg.retry_delay, self._deliver, src, dst, msg, attempt + 1)
            return
        q.dropped += 1
        self.metrics.count_queue_drop()

    def _pump(self, dst: ADId, epoch: int) -> None:
        """Finish servicing ``dst``'s current message; start the next."""
        assert self.ingress is not None
        q = self.ingress.queue_of(dst)
        if epoch != q.epoch or not q.busy or q.serving is None:
            return  # cancelled by a crash or flush since being scheduled
        cfg = self.ingress.config
        src, msg = q.serving
        q.serving = None
        q.busy_time += cfg.service_time
        q.served += 1
        self.metrics.count_message(msg.type_name, msg.size_bytes(), self.sim.now)
        self.nodes[dst].receive(src, msg)
        if q.items:
            nsrc, nmsg, _ = q.items.popleft()
            q.serving = (nsrc, nmsg)
            self.sim.schedule(cfg.service_time, self._pump, dst, q.epoch)
        else:
            q.busy = False

    def _freeze_ingress(self, ad_id: ADId) -> None:
        """Halt service at a crashing node, preserving queued messages."""
        if self.ingress is None:
            return
        q = self.ingress.queue_of(ad_id)
        q.epoch += 1  # orphan any scheduled _pump
        if q.serving is not None:
            q.items.appendleft((q.serving[0], q.serving[1], 0))
            q.serving = None
        q.busy = False

    def flush_ingress(self, ad_id: ADId) -> int:
        """Discard a node's pending ingress queue (state-losing restart).

        Returns the number of messages lost; each is counted as a queue
        drop.
        """
        if self.ingress is None:
            return 0
        q = self.ingress.queue_of(ad_id)
        self._freeze_ingress(ad_id)
        lost = len(q.items)
        q.items.clear()
        q.dropped += lost
        for _ in range(lost):
            self.metrics.count_queue_drop()
        return lost

    def _resume_ingress(self, ad_id: ADId) -> None:
        """Restart the service pump for a restored node's retained queue."""
        if self.ingress is None:
            return
        q = self.ingress.queue_of(ad_id)
        if q.busy or not q.items:
            return
        src, msg, _ = q.items.popleft()
        q.busy = True
        q.serving = (src, msg)
        self.sim.schedule(self.ingress.config.service_time, self._pump, ad_id, q.epoch)

    # -------------------------------------------------------------- channel

    def set_channel(self, model: Optional["ChannelModel"]) -> None:
        """Attach an impairment channel (``None`` restores perfect links)."""
        self.channel = model

    def set_impairment(
        self, link: Optional[Tuple[ADId, ADId]], spec: "Impairment"
    ) -> None:
        """Change impairment parameters, attaching a channel if needed."""
        if self.channel is None:
            from repro.faults.channel import ImpairedChannel

            self.channel = ImpairedChannel()
        self.channel.set_impairment(link, spec)

    # ------------------------------------------------------------ failures

    def set_link_status(self, a: ADId, b: ADId, up: bool) -> None:
        """Change a link's status now and notify both endpoint nodes."""
        link = self.graph.set_link_status(a, b, up)
        for end in (a, b):
            if end in self._crashed:
                continue
            node = self.nodes.get(end)
            if node is not None:
                node.on_link_change(link, up)

    # --------------------------------------------------------------- crashes

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
        self._freeze_ingress(ad_id)

    def restore_node(
        self, ad_id: ADId, node: Optional[ProtocolNode] = None
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
            node.attach(self)
        self._resume_ingress(ad_id)

    def is_crashed(self, ad_id: ADId) -> bool:
        return ad_id in self._crashed

    def schedule_failure_plan(self, plan: FailurePlan) -> None:
        """Schedule every status change of a failure plan on the engine."""
        for ev in plan:
            self.sim.schedule_at(ev.time, self.set_link_status, ev.a, ev.b, ev.up)

    # -------------------------------------------------------------- helpers

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 5_000_000,
        raise_on_limit: bool = True,
    ) -> int:
        """Run the engine (see :meth:`Simulator.run`)."""
        return self.sim.run(
            until=until, max_events=max_events, raise_on_limit=raise_on_limit
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimNetwork(ads={self.graph.num_ads}, nodes={len(self.nodes)})"
