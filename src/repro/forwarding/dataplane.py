"""Forward flows over a converged protocol's decisions, with enforcement.

This is the packet's-eye view of a routing architecture: given converged
control state, what actually happens to traffic?  Each hop:

* must have a live link to the next hop (else: blackhole);
* if ``enforce_policy`` is set, each *transit* AD checks its own Policy
  Terms against the actual (prev, next) hops and drops violating traffic
  -- the paper's position that a transit AD enforces its own policies
  regardless of who computed the route;
* loops are detected by revisit.

The resulting delivery/drop/loop statistics are the data-plane view of
availability (E3) and of the consistency requirements of hop-by-hop
schemes (Section 5.3).

The compiled FIBs of :mod:`repro.traffic` replay traffic in bulk and are
validated against this per-packet walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.adgraph.ad import ADId
from repro.policy.flows import FlowSpec
from repro.protocols.base import ForwardingMode, RoutingProtocol


@dataclass(frozen=True)
class ForwardingOutcome:
    """What happened to one flow's packet."""

    flow: FlowSpec
    delivered: bool
    path: Tuple[ADId, ...]
    reason: str = ""

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)


def _check_path(
    protocol: RoutingProtocol,
    flow: FlowSpec,
    path: Sequence[ADId],
    enforce_policy: bool,
) -> ForwardingOutcome:
    """Validate a concrete path hop by hop, as the packet would.

    Per-transit enforcement rides the policy database's memoized decision
    engine: a packet following a freshly synthesised route re-asks exactly
    the questions synthesis just answered, so enforcement is cache hits.
    """
    graph = protocol.graph
    permits = protocol.policies.transit_permits
    for i, (a, b) in enumerate(zip(path, path[1:])):
        if not graph.has_link(a, b) or not graph.link(a, b).up:
            return ForwardingOutcome(
                flow, False, tuple(path[: i + 1]), f"no live link {a}-{b}"
            )
        if enforce_policy and i > 0:
            transit, prev, nxt = a, path[i - 1], b
            if not permits(transit, flow, prev, nxt):
                return ForwardingOutcome(
                    flow,
                    False,
                    tuple(path[: i + 1]),
                    f"AD {transit} policy drop",
                )
    return ForwardingOutcome(flow, True, tuple(path))


def forward_flow(
    protocol: RoutingProtocol,
    flow: FlowSpec,
    enforce_policy: bool = True,
) -> ForwardingOutcome:
    """Send one (modelled) packet for ``flow`` and report its fate."""
    if flow.src == flow.dst:
        return ForwardingOutcome(flow, True, (flow.src,))
    if protocol.mode is ForwardingMode.SOURCE:
        path = protocol.source_route(flow)
        if path is None:
            return ForwardingOutcome(flow, False, (flow.src,), "no source route")
        return _check_path(protocol, flow, path, enforce_policy)
    # Hop-by-hop: follow live decisions, enforcing policy at each transit.
    path: List[ADId] = [flow.src]
    seen = {flow.src}
    prev: Optional[ADId] = None
    current = flow.src
    graph = protocol.graph
    permits = protocol.policies.transit_permits
    for _ in range(graph.num_ads):
        nxt = protocol.next_hop(current, flow, prev)
        if nxt is None:
            return ForwardingOutcome(flow, False, tuple(path), f"no route at AD {current}")
        if not graph.has_link(current, nxt) or not graph.link(current, nxt).up:
            return ForwardingOutcome(
                flow, False, tuple(path), f"no live link {current}-{nxt}"
            )
        if enforce_policy and prev is not None:
            if not permits(current, flow, prev, nxt):
                return ForwardingOutcome(
                    flow, False, tuple(path), f"AD {current} policy drop"
                )
        if nxt in seen:
            return ForwardingOutcome(
                flow, False, tuple(path) + (nxt,), "forwarding loop"
            )
        path.append(nxt)
        seen.add(nxt)
        if nxt == flow.dst:
            return ForwardingOutcome(flow, True, tuple(path))
        prev, current = current, nxt
    return ForwardingOutcome(flow, False, tuple(path), "hop budget exceeded")


@dataclass
class DataPlaneReport:
    """Aggregate data-plane behaviour over a traffic sample."""

    outcomes: List[ForwardingOutcome] = field(default_factory=list)

    @property
    def n_flows(self) -> int:
        return len(self.outcomes)

    @property
    def delivered(self) -> int:
        return sum(1 for o in self.outcomes if o.delivered)

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.n_flows if self.n_flows else 1.0

    @property
    def loops(self) -> int:
        return sum(1 for o in self.outcomes if o.reason == "forwarding loop")

    @property
    def policy_drops(self) -> int:
        return sum(1 for o in self.outcomes if "policy drop" in o.reason)

    @property
    def blackholes(self) -> int:
        return sum(
            1
            for o in self.outcomes
            if not o.delivered and "no live link" in o.reason
        )

    def mean_hops(self) -> float:
        delivered = [o.hops for o in self.outcomes if o.delivered]
        return sum(delivered) / len(delivered) if delivered else 0.0


def run_traffic(
    protocol: RoutingProtocol,
    flows: Sequence[FlowSpec],
    enforce_policy: bool = True,
) -> DataPlaneReport:
    """Forward a whole traffic sample and aggregate the outcomes."""
    report = DataPlaneReport()
    for flow in flows:
        report.outcomes.append(forward_flow(protocol, flow, enforce_policy))
    return report
