"""Structured event tracing for protocol debugging.

A :class:`Tracer` taps a :class:`~repro.simul.transport.Transport` --
the simulator's or the live one -- and records every control-message
delivery and link status change as typed records.  Protocol debugging
on a 60-AD internet is hopeless from print statements; the tracer gives
filtered timelines instead::

    tracer = Tracer.attach(network)
    protocol.converge()
    print(tracer.timeline(ad=7, limit=20))       # what AD 7 saw
    print(tracer.message_counts())

Attaching sets the transport's one trace hook (``Transport.tracer``),
read where a message reaches its destination AD and in
``set_link_status``.  Tracing is opt-in and purely observational: it
never alters delivery order or timing; with no tracer attached the hook
costs one attribute test per delivery.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional

from repro.adgraph.ad import ADId
from repro.simul.messages import Message
from repro.simul.transport import Transport


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


#: Records a tracer keeps; later events are only counted
#: (``dropped_records``, rendered by :meth:`Tracer.truncation`), so a
#: long run cannot exhaust memory.
CAPACITY = 100_000


class Tracer:
    """Records deliveries and link changes on a network."""

    def __init__(self, network: Transport) -> None:
        self.network = network
        self.records: List[TraceRecord] = []
        self.dropped_records = 0

    @classmethod
    def attach(cls, network: Transport) -> "Tracer":
        """Set the network's trace hook to a new tracer (replacing any)."""
        tracer = cls(network)
        network.tracer = tracer
        return tracer

    def on_message(self, src: ADId, dst: ADId, msg: Message) -> None:
        """The hook: ``msg`` from ``src`` reached ``dst``."""
        self._record("msg", src, dst, msg.type_name, msg.size_bytes())

    def on_link(self, a: ADId, b: ADId, up: bool) -> None:
        """The hook: the link ``a``-``b`` is being set up or down."""
        self._record("link", a, b, "up" if up else "DOWN")

    def _record(
        self, kind: str, src: ADId, dst: ADId, detail: str, size: int = 0
    ) -> None:
        if len(self.records) >= CAPACITY:
            self.dropped_records += 1
            return
        self.records.append(
            TraceRecord(self.network.clock.now, kind, src, dst, detail, size)
        )

    def truncation(self) -> Optional[str]:
        """A line saying how many records were not kept, or ``None``.

        The tracer keeps the *first* :data:`CAPACITY` records of a run,
        so a rendered tail of what was kept stops short of the run's
        end; this line, appended after that tail, says so.
        """
        if not self.dropped_records:
            return None
        return (
            f"... {self.dropped_records} later records not kept: the tracer "
            f"keeps the first {CAPACITY} (over all ADs) ..."
        )

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
        truncation = self.truncation()
        if truncation is not None:
            lines.append(truncation)
        return "\n".join(lines) if lines else "(no events)"

    def message_counts(self) -> Counter:
        """Delivered messages per type."""
        return Counter(r.detail for r in self.records if r.kind == "msg")

    def __len__(self) -> int:
        return len(self.records)
