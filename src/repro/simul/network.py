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

from typing import TYPE_CHECKING, Optional

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.simul.engine import Simulator
from repro.simul.ingress import SERVICE_TIME, IngressModel
from repro.simul.messages import Message
from repro.simul.node import ProtocolNode
from repro.simul.profiling import PhaseProfiler
from repro.simul.transport import Clock, SimClock, Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.channel import ChannelModel


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
        super().__init__(graph, profiler)
        self.sim = sim or Simulator(profiler=profiler)
        self.channel: Optional["ChannelModel"] = None
        self.ingress: Optional[IngressModel] = None
        self._clock = SimClock(self.sim)

    @property
    def clock(self) -> Clock:
        """The engine behind the substrate-neutral :class:`Clock` API."""
        return self._clock

    def set_profiler(self, profiler: Optional[PhaseProfiler]) -> None:
        """Attach (or detach) a wall-clock profiler to network and engine."""
        super().set_profiler(profiler)
        self.sim.profiler = profiler

    def start(self) -> None:
        """Schedule the start hooks and Hellos at t=0, in their order.

        With wire negotiation off -- the default -- no Hello is ever
        scheduled and the event stream is byte-identical to the
        pre-versioning engine.
        """
        for hook in self._start_hooks():
            self.sim.schedule(0.0, hook)

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

    def _deliver(self, src: ADId, dst: ADId, msg: Message) -> None:
        # A link that died in flight still delivers what was already sent;
        # the failure notification races the last messages, as in reality.
        if dst in self._crashed:
            self.metrics.count_drop()
            return
        if self.ingress is not None:
            self._enqueue(src, dst, msg)
            return
        # type(msg).__name__ / sim._now are msg.type_name / sim.now minus
        # the two property calls (this line runs once per message).
        self.metrics.count_message(
            type(msg).__name__, msg.size_bytes(), self.sim._now
        )
        self.nodes[dst].receive(src, msg)

    # -------------------------------------------------------------- ingress

    def set_ingress(self, model: Optional[IngressModel]) -> None:
        """Attach a bounded ingress stage (``None`` restores instant delivery)."""
        self.ingress = model

    def _enqueue(self, src: ADId, dst: ADId, msg: Message) -> None:
        """Admit a delivered message to ``dst``'s bounded input queue."""
        assert self.ingress is not None
        q = self.ingress.queue_of(dst)
        if q.serving is None:
            q.serving = (src, msg)
            q.peak_depth = max(q.peak_depth, q.depth)
            self.sim.schedule(SERVICE_TIME, self._pump, dst, q.epoch)
            return
        if len(q.items) < self.ingress.capacity:
            q.items.append((src, msg))
            q.peak_depth = max(q.peak_depth, q.depth)
            return
        q.dropped += 1
        self.metrics.count_queue_drop()

    def _pump(self, dst: ADId, epoch: int) -> None:
        """Finish servicing ``dst``'s current message; start the next."""
        assert self.ingress is not None
        q = self.ingress.queue_of(dst)
        if epoch != q.epoch or q.serving is None:
            return  # cancelled by a crash or flush since being scheduled
        src, msg = q.serving
        q.serving = None
        q.busy_time += SERVICE_TIME
        q.served += 1
        self.metrics.count_message(msg.type_name, msg.size_bytes(), self.sim.now)
        self.nodes[dst].receive(src, msg)
        if q.items:
            q.serving = q.items.popleft()
            self.sim.schedule(SERVICE_TIME, self._pump, dst, q.epoch)

    def _freeze_ingress(self, ad_id: ADId) -> None:
        """Halt service at a crashing node, preserving queued messages."""
        if self.ingress is None:
            return
        q = self.ingress.queue_of(ad_id)
        q.epoch += 1  # orphan any scheduled _pump
        if q.serving is not None:
            q.items.appendleft(q.serving)
            q.serving = None

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
        self.metrics.count_queue_drop(lost)
        return lost

    def _resume_ingress(self, ad_id: ADId) -> None:
        """Restart the service pump for a restored node's retained queue."""
        if self.ingress is None:
            return
        q = self.ingress.queue_of(ad_id)
        if q.serving is not None or not q.items:
            return
        q.serving = q.items.popleft()
        self.sim.schedule(SERVICE_TIME, self._pump, ad_id, q.epoch)

    # -------------------------------------------------------------- channel

    def set_channel(self, model: Optional["ChannelModel"]) -> None:
        """Attach an impairment channel (``None`` restores perfect links)."""
        self.channel = model

    # --------------------------------------------------------------- crashes

    def crash_node(self, ad_id: ADId) -> None:
        """:meth:`Transport.crash_node`, then freeze the AD's ingress queue."""
        super().crash_node(ad_id)
        self._freeze_ingress(ad_id)

    def restore_node(
        self, ad_id: ADId, node: Optional[ProtocolNode] = None
    ) -> None:
        """:meth:`Transport.restore_node`, then resume the retained queue."""
        super().restore_node(ad_id, node)
        self._resume_ingress(ad_id)

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
