"""Metrics collection for simulation runs.

One :class:`MetricsCollector` instance lives on each
:class:`~repro.simul.network.SimNetwork` and accumulates:

* control messages and bytes, per message type;
* dropped messages (sent over dead links);
* per-AD computation counters (route computations, SPF runs, ...),
  incremented by protocol code via :meth:`MetricsCollector.note_computation`;
* the time of last protocol activity, from which convergence time is
  derived.

:meth:`MetricsCollector.snapshot` returns an immutable
:class:`MetricsSnapshot`; deltas between snapshots isolate a single
reconvergence episode.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.adgraph.ad import ADId


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable copy of collector state at a point in simulated time."""

    time: float
    messages: Mapping[str, int]
    bytes: Mapping[str, int]
    dropped: int
    computations: Mapping[Tuple[ADId, str], int]
    last_activity: float
    channel_dropped: int = 0
    queue_dropped: int = 0
    live_send_retries: int = 0
    live_send_drops: int = 0
    #: Messages rejected on version grounds (failed negotiations plus
    #: frames dropped from version-blocked peers).
    version_rejected: int = 0
    #: ``"ad>peer" -> negotiated wire version`` for every pair that has
    #: completed the HELLO handshake.  State, not a counter: a delta
    #: carries the *later* snapshot's census as-is.
    negotiated_versions: Mapping[str, int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.negotiated_versions is None:
            object.__setattr__(self, "negotiated_versions", {})

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def delta(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """This snapshot minus an earlier one (per-key subtraction)."""
        messages = _sub(self.messages, earlier.messages)
        byts = _sub(self.bytes, earlier.bytes)
        comps = _sub(self.computations, earlier.computations)
        return MetricsSnapshot(
            time=self.time - earlier.time,
            messages=messages,
            bytes=byts,
            dropped=self.dropped - earlier.dropped,
            computations=comps,
            last_activity=self.last_activity,
            channel_dropped=self.channel_dropped - earlier.channel_dropped,
            queue_dropped=self.queue_dropped - earlier.queue_dropped,
            live_send_retries=(
                self.live_send_retries - earlier.live_send_retries
            ),
            live_send_drops=self.live_send_drops - earlier.live_send_drops,
            version_rejected=self.version_rejected - earlier.version_rejected,
            negotiated_versions=self.negotiated_versions,
        )


def _sub(a: Mapping, b: Mapping) -> Dict:
    out = dict(a)
    for key, val in b.items():
        out[key] = out.get(key, 0) - val
        if out[key] == 0:
            del out[key]
    return out


class MetricsCollector:
    """Mutable accumulator of simulation metrics."""

    def __init__(self) -> None:
        self.messages: Counter = Counter()
        self.bytes: Counter = Counter()
        self.dropped = 0
        self.computations: Counter = Counter()
        self.last_activity = 0.0
        self.channel_dropped = 0
        self.queue_dropped = 0
        self.live_send_retries = 0
        self.live_send_drops = 0
        self.version_rejected = 0
        self.negotiated_versions: Dict[str, int] = {}

    def count_message(self, type_name: str, size: int, time: float) -> None:
        """Record one delivered control message."""
        self.messages[type_name] += 1
        self.bytes[type_name] += size
        self.last_activity = max(self.last_activity, time)

    def count_drop(self, n: int = 1) -> None:
        """Record messages lost to a dead link."""
        self.dropped += n

    def count_channel_drop(self) -> None:
        """Record a message lost to channel impairment (not a dead link)."""
        self.channel_dropped += 1

    def count_queue_drop(self, n: int = 1) -> None:
        """Record messages lost to a full or flushed ingress queue."""
        self.queue_dropped += n

    def count_live_send_retry(self) -> None:
        """Record a transient UDP send error that will be retried."""
        self.live_send_retries += 1

    def count_live_send_drop(self, n: int = 1) -> None:
        """Record frames given up on (retry budget spent, endpoint closed)."""
        self.live_send_drops += n

    def count_version_reject(self) -> None:
        """Record a message rejected on wire-version grounds."""
        self.version_rejected += 1

    def note_negotiated(self, ad_id: ADId, peer: ADId, version: int) -> None:
        """Record a completed per-neighbour version negotiation."""
        self.negotiated_versions[f"{ad_id}>{peer}"] = version

    def note_computation(self, ad_id: ADId, kind: str, count: int = 1) -> None:
        """Record protocol computation work at an AD (e.g. one SPF run)."""
        self.computations[(ad_id, kind)] += count

    def computations_by_ad(self, kind: str) -> Dict[ADId, int]:
        """Per-AD totals for one computation kind."""
        out: Dict[ADId, int] = {}
        for (ad_id, k), n in self.computations.items():
            if k == kind:
                out[ad_id] = out.get(ad_id, 0) + n
        return out

    def snapshot(self, time: float) -> MetricsSnapshot:
        """Freeze current state."""
        return MetricsSnapshot(
            time=time,
            messages=dict(self.messages),
            bytes=dict(self.bytes),
            dropped=self.dropped,
            computations=dict(self.computations),
            last_activity=self.last_activity,
            channel_dropped=self.channel_dropped,
            queue_dropped=self.queue_dropped,
            live_send_retries=self.live_send_retries,
            live_send_drops=self.live_send_drops,
            version_rejected=self.version_rejected,
            negotiated_versions=dict(self.negotiated_versions),
        )
