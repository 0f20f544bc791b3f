"""Bounded per-node ingress queues: the finite control plane.

Real routers do not process updates instantly — each message occupies a
finite input queue and takes CPU time to service.  :class:`IngressModel`
gives every simulated node that bottleneck: a bounded FIFO served one
message per :data:`SERVICE_TIME`.  It attaches to a
:class:`~repro.simul.network.SimNetwork` the same way a
:class:`~repro.faults.channel.ChannelModel` does — ``set_ingress(None)``
(the default) keeps the exact legacy instant-delivery path, so every
committed benchmark output stays byte-identical until a queue is
explicitly configured.

Overflow is tail-drop: an arrival finding the queue full is discarded
and counted (``queue_dropped`` in :class:`MetricsSnapshot`).

Crash semantics follow the NVRAM model: crashing a node freezes its
queue (the message in service is pushed back to the head); restoring
with retained state resumes service, while a state-losing restart
flushes the queue (counted as drops) before the fresh node starts.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.adgraph.ad import ADId
from repro.simul.messages import Message

#: Simulated time to process one message.
SERVICE_TIME = 0.5


class _NodeQueue:
    """Mutable per-node queue state."""

    __slots__ = (
        "items", "serving", "epoch",
        "peak_depth", "dropped", "served", "busy_time",
    )

    def __init__(self) -> None:
        self.items: Deque[Tuple[ADId, Message]] = deque()
        #: The message in service; ``None`` while the server is idle.
        self.serving: Optional[Tuple[ADId, Message]] = None
        self.epoch = 0
        self.peak_depth = 0
        self.dropped = 0
        self.served = 0
        self.busy_time = 0.0

    @property
    def depth(self) -> int:
        return len(self.items) + (1 if self.serving is not None else 0)


class IngressModel:
    """All per-node queues plus aggregate accounting for one network."""

    def __init__(self, capacity: int) -> None:
        """``capacity`` bounds the messages *waiting*; the message in
        service has left the queue."""
        if capacity < 0:
            raise ValueError("queue capacity must be >= 0")
        self.capacity = capacity
        self.queues: Dict[ADId, _NodeQueue] = {}

    def queue_of(self, ad_id: ADId) -> _NodeQueue:
        q = self.queues.get(ad_id)
        if q is None:
            q = self.queues[ad_id] = _NodeQueue()
        return q

    # ------------------------------------------------------------- rollups

    @property
    def peak_depth(self) -> int:
        return max((q.peak_depth for q in self.queues.values()), default=0)

    @property
    def dropped(self) -> int:
        return sum(q.dropped for q in self.queues.values())

    @property
    def served(self) -> int:
        return sum(q.served for q in self.queues.values())

    def duty_cycle(self, elapsed: float, n_nodes: int) -> float:
        """Mean fraction of time a node's control plane was busy."""
        if elapsed <= 0 or n_nodes <= 0:
            return 0.0
        busy = sum(q.busy_time for q in self.queues.values())
        return busy / (elapsed * n_nodes)

    def counters(self, elapsed: float = 0.0, n_nodes: int = 0) -> Dict[str, object]:
        """Aggregate overload telemetry for a run record."""
        return {
            "capacity": self.capacity,
            "service_time": SERVICE_TIME,
            "peak_depth": self.peak_depth,
            "dropped": self.dropped,
            "served": self.served,
            "duty_cycle": round(self.duty_cycle(elapsed, n_nodes), 6),
        }
