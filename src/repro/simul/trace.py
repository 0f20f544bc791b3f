"""Structured event tracing for protocol debugging.

A :class:`Tracer` taps a :class:`~repro.simul.network.SimNetwork` and
records every control-message delivery and link status change as typed
records.  Protocol debugging on a 60-AD internet is hopeless from print
statements; the tracer gives filtered timelines instead::

    tracer = Tracer.attach(network)
    protocol.converge()
    print(tracer.timeline(ad=7, limit=20))       # what AD 7 saw
    print(tracer.message_counts())

Tracing is opt-in and purely observational: it never alters delivery
order or timing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional

from repro.adgraph.ad import ADId
from repro.simul.messages import Message
from repro.simul.network import SimNetwork


@dataclass(frozen=True)
class TraceRecord:
    """One observed event."""

    time: float
    kind: str  # "msg" | "link"
    src: Optional[ADId]
    dst: Optional[ADId]
    detail: str
    size: int = 0

    def render(self) -> str:
        if self.kind == "msg":
            return (
                f"[{self.time:10.2f}] {self.src:>4} -> {self.dst:<4} "
                f"{self.detail} ({self.size}B)"
            )
        return f"[{self.time:10.2f}] link {self.src}-{self.dst} {self.detail}"


class Tracer:
    """Records deliveries and link changes on a network."""

    def __init__(self, network: SimNetwork, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.network = network
        self.capacity = capacity
        self.records: List[TraceRecord] = []
        self.dropped_records = 0

    @classmethod
    def attach(cls, network: SimNetwork, capacity: int = 100_000) -> "Tracer":
        """Wrap the network's delivery and link-change paths."""
        tracer = cls(network, capacity)
        original_deliver = network._deliver
        original_set_link = network.set_link_status

        def traced_deliver(
            src: ADId, dst: ADId, msg: Message, attempt: int = 0
        ) -> None:
            # ``attempt`` is the bounded ingress's redelivery count; each
            # attempt is a delivery event and is recorded as one.
            tracer._record(
                TraceRecord(
                    time=network.sim.now,
                    kind="msg",
                    src=src,
                    dst=dst,
                    detail=msg.type_name,
                    size=msg.size_bytes(),
                )
            )
            original_deliver(src, dst, msg, attempt)

        def traced_set_link(a: ADId, b: ADId, up: bool) -> None:
            tracer._record(
                TraceRecord(
                    time=network.sim.now,
                    kind="link",
                    src=a,
                    dst=b,
                    detail="up" if up else "DOWN",
                )
            )
            original_set_link(a, b, up)

        network._deliver = traced_deliver  # type: ignore[method-assign]
        network.set_link_status = traced_set_link  # type: ignore[method-assign]
        return tracer

    def _record(self, record: TraceRecord) -> None:
        if len(self.records) >= self.capacity:
            self.dropped_records += 1
            return
        self.records.append(record)

    # -------------------------------------------------------------- queries

    def filtered(
        self,
        ad: Optional[ADId] = None,
        kind: Optional[str] = None,
        msg_type: Optional[str] = None,
        since: float = 0.0,
    ) -> List[TraceRecord]:
        """Records matching all given filters."""
        out = []
        for rec in self.records:
            if rec.time < since:
                continue
            if kind is not None and rec.kind != kind:
                continue
            if msg_type is not None and rec.detail != msg_type:
                continue
            if ad is not None and ad not in (rec.src, rec.dst):
                continue
            out.append(rec)
        return out

    def timeline(
        self,
        ad: Optional[ADId] = None,
        limit: int = 50,
        since: float = 0.0,
    ) -> str:
        """Human-readable event timeline (most recent ``limit`` lines)."""
        records = self.filtered(ad=ad, since=since)
        lines = [r.render() for r in records[-limit:]]
        if len(records) > limit:
            lines.insert(0, f"... {len(records) - limit} earlier events elided ...")
        return "\n".join(lines) if lines else "(no events)"

    def message_counts(self) -> Counter:
        """Delivered messages per type."""
        return Counter(r.detail for r in self.records if r.kind == "msg")

    def conversation(
        self, a: ADId, b: ADId
    ) -> List[TraceRecord]:
        """All messages exchanged between two ADs, in order."""
        return [
            r
            for r in self.records
            if r.kind == "msg" and {r.src, r.dst} == {a, b}
        ]

    def __len__(self) -> int:
        return len(self.records)
