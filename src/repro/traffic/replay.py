"""Batched replay: drive a whole workload through a compiled FIB.

:meth:`TrafficReplay.replay` computes verdicts **per flow class**
against a liveness snapshot and then weights them by the per-class flow
and byte sums the workload summed when it was generated, so replaying
10^6 flows costs O(classes x hops) and never touches a per-flow column;
that is what lets E14 re-run the full workload at every convergence
epoch of a fault storm.  The per-packet reference it is checked against
(``forward_verdict``) lives with the other test oracles in
``tests/oracles.py``.

Latency is modelled as the sum of link ``delay`` metrics along the
delivered path; stretch as delivered hop count over the policy-blind
BFS shortest hop count on the same graph (the Krioukov/claffy
stretch-vs-state observable).  Percentiles are flow-weighted across
classes: a head class with 200k flows moves p50 the way 200k samples
would.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.protocols.base import (
    DEAD_LINK,
    DELIVERED,
    LOOP,
    VERDICT_NAMES,
)
from repro.traffic.fib import CompiledFIB
from repro.traffic.workload import FlowWorkload


def shortest_hops(
    graph: InterADGraph, pairs: Sequence[Tuple[ADId, ADId]]
) -> array:
    """Policy-blind BFS hop counts for (src, dst) pairs (-1: unreachable).

    One BFS per distinct source, shared across every pair that uses it;
    liveness is ignored -- this is the fixed stretch denominator, taken
    against the intact topology.
    """
    by_src: Dict[ADId, Dict[ADId, int]] = {}
    out = array("i")
    for src, dst in pairs:
        dists = by_src.get(src)
        if dists is None:
            dists = {src: 0}
            queue = deque([src])
            while queue:
                node = queue.popleft()
                for nbr in graph.neighbors(node, include_down=True):
                    if nbr not in dists:
                        dists[nbr] = dists[node] + 1
                        queue.append(nbr)
            by_src[src] = dists
        out.append(dists.get(dst, -1))
    return out


def weighted_percentile(
    samples: Sequence[Tuple[float, int]], quantile: float
) -> float:
    """Flow-weighted percentile: ``samples`` is (value, weight) pairs.

    Returns the smallest value v such that at least ``quantile`` of the
    total weight lies at or below v (the inverse-CDF convention); 0.0 on
    an empty sample.
    """
    total = sum(w for _, w in samples)
    if total <= 0:
        return 0.0
    target = quantile * total
    acc = 0
    ordered = sorted(samples)
    for value, weight in ordered:
        acc += weight
        if acc >= target:
            return value
    return ordered[-1][0]


@dataclass(frozen=True)
class ReplaySummary:
    """Flow-weighted outcome of one workload replay."""

    flows: int
    classes: int
    #: Flow counts by verdict, aligned with VERDICT_NAMES.
    verdict_flows: Tuple[int, ...]
    delivered_bytes: int
    total_bytes: int
    latency_p50: float
    latency_p99: float
    latency_p999: float
    stretch_p50: float
    stretch_p99: float
    stretch_p999: float

    @property
    def delivered(self) -> int:
        return self.verdict_flows[DELIVERED]

    @property
    def reach_gap(self) -> float:
        """Fraction of flows NOT delivered (the E14 headline)."""
        if not self.flows:
            return 0.0
        return 1.0 - self.delivered / self.flows

    @property
    def loops(self) -> int:
        return self.verdict_flows[LOOP]

    @property
    def blackholes(self) -> int:
        return self.verdict_flows[DEAD_LINK]

    def as_dict(self) -> Dict[str, object]:
        return {
            "flows": self.flows,
            "classes": self.classes,
            "verdicts": dict(zip(VERDICT_NAMES, self.verdict_flows)),
            "reach_gap": self.reach_gap,
            "delivered_bytes": self.delivered_bytes,
            "total_bytes": self.total_bytes,
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "latency_p999": self.latency_p999,
            "stretch_p50": self.stretch_p50,
            "stretch_p99": self.stretch_p99,
            "stretch_p999": self.stretch_p999,
        }


class TrafficReplay:
    """Replays one workload against compiled FIBs."""

    def __init__(self, workload: FlowWorkload, graph: InterADGraph) -> None:
        self.workload = workload
        #: Fixed stretch denominators, one per class, on the intact graph.
        self.baseline_hops = shortest_hops(
            graph, [(f.src, f.dst) for f in workload.classes]
        )

    # ------------------------------------------------------------ aggregate

    def _summarise(self, verdicts: array, fib: CompiledFIB) -> ReplaySummary:
        wl = self.workload
        counts = wl.class_counts
        class_bytes = wl.class_bytes
        verdict_flows = [0] * len(VERDICT_NAMES)
        latency: List[Tuple[float, int]] = []
        stretch: List[Tuple[float, int]] = []
        delivered_bytes = 0
        for c, verdict in enumerate(verdicts):
            n = counts[c]
            if not n:
                continue
            verdict_flows[verdict] += n
            if verdict == DELIVERED:
                latency.append((fib.path_delays[c], n))
                base = self.baseline_hops[c]
                if base > 0:
                    stretch.append((fib.path_hops[c] / base, n))
                delivered_bytes += class_bytes[c]
        return ReplaySummary(
            flows=len(wl),
            classes=wl.num_classes,
            verdict_flows=tuple(verdict_flows),
            delivered_bytes=delivered_bytes,
            total_bytes=wl.total_bytes,
            latency_p50=weighted_percentile(latency, 0.50),
            latency_p99=weighted_percentile(latency, 0.99),
            latency_p999=weighted_percentile(latency, 0.999),
            stretch_p50=weighted_percentile(stretch, 0.50),
            stretch_p99=weighted_percentile(stretch, 0.99),
            stretch_p999=weighted_percentile(stretch, 0.999),
        )

    # --------------------------------------------------------------- replay

    def replay(
        self, fib: CompiledFIB, liveness: Optional[bytearray] = None
    ) -> ReplaySummary:
        """Aggregate replay: O(classes x hops), flow counts as weights."""
        return self._summarise(fib.class_verdicts(liveness), fib)


# ------------------------------------------------------------- epoch series


@dataclass
class EpochSample:
    """One convergence epoch of E14: FIB snapshot + replay result."""

    time: float
    label: str
    summary: ReplaySummary
    fib_bytes: int

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"time": self.time, "label": self.label}
        out.update(self.summary.as_dict())
        out["fib_bytes"] = self.fib_bytes
        return out


@dataclass
class TailSeries:
    """The E14 time series: per-epoch replays + across-epoch flow tails.

    ``outage_p99`` answers the marquee question: across the storm, what
    fraction of epochs did the unluckiest 1% of *flows* spend
    unreachable?  Per-class outage fractions are weighted by flow
    counts, so tail percentiles are over flows, not classes -- and only
    over flows whose class was delivered at the first (converged)
    epoch: a flow the design point could never route is a policy/
    availability fact (E3), not a convergence outage, and would
    saturate the tail (the same routability filter RoutePulse applies
    to its probe set).
    """

    workload: FlowWorkload
    epochs: List[EpochSample] = field(default_factory=list)
    #: Per-class count of epochs in which the class was not delivered.
    _class_outage: Optional[array] = None
    #: Delivered-at-first-epoch mask: the ever-routable flow population
    #: the outage percentiles are taken over.
    _baseline_ok: Optional[bytearray] = None

    def record(
        self,
        time: float,
        label: str,
        fib: CompiledFIB,
        replay: TrafficReplay,
    ) -> EpochSample:
        verdicts = fib.class_verdicts()
        if self._class_outage is None:
            self._class_outage = array("l", [0] * self.workload.num_classes)
            self._baseline_ok = bytearray(
                1 if v == DELIVERED else 0 for v in verdicts
            )
        outage = self._class_outage
        for c, verdict in enumerate(verdicts):
            if verdict != DELIVERED:
                outage[c] += 1
        sample = EpochSample(
            time=time,
            label=label,
            summary=replay._summarise(verdicts, fib),
            fib_bytes=fib.stats.bytes,
        )
        self.epochs.append(sample)
        return sample

    def outage_fractions(self) -> List[Tuple[float, int]]:
        if not self.epochs or self._class_outage is None:
            return []
        n_epochs = len(self.epochs)
        counts = self.workload.class_counts
        ok = self._baseline_ok
        return [
            (self._class_outage[c] / n_epochs, counts[c])
            for c in range(len(counts))
            if counts[c] and ok[c]
        ]

    def outage_percentile(self, quantile: float) -> float:
        return weighted_percentile(self.outage_fractions(), quantile)

    def worst_gap(self) -> float:
        return max((e.summary.reach_gap for e in self.epochs), default=0.0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "epochs": [e.as_dict() for e in self.epochs],
            "outage_p50": self.outage_percentile(0.50),
            "outage_p99": self.outage_percentile(0.99),
            "outage_p999": self.outage_percentile(0.999),
            "worst_gap": self.worst_gap(),
        }
