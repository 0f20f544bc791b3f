"""The four design points Section 5.5 dismisses, implemented anyway.

The paper excludes these "from more detailed coverage" with brief
arguments; implementing them lets the scorecard (E1) *measure* the
dismissals instead of taking them on faith:

* **LS + topology** (hop-by-hop and source): link-state flooding with the
  partial-ordering/up-down rule as the only policy expression.  Section
  5.5.1: "we see these two design choices as presenting no particular
  advantages over those schemes already described."
* **DV + source routing** (topology and terms): path-vector protocols in
  which "the source uses the full AD path information it receives in
  routing updates to create a source route."  Section 5.5.2: "there is
  little advantage in using source routing without also using a link
  state scheme" -- the source gets loop-free source routes but still only
  ever sees the single route its neighbours chose to advertise.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.adgraph.ad import ADId, ADKind
from repro.adgraph.graph import InterADGraph
from repro.adgraph.partial_order import Direction, PartialOrder
from repro.core.design_space import (
    DV_SRC_TERMS,
    DV_SRC_TOPOLOGY,
    LS_HBH_TOPOLOGY,
    LS_SRC_TOPOLOGY,
)
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.policy.selection import OPEN_SELECTION, RouteSelectionPolicy
from repro.policy.sets import ADSet
from repro.protocols.base import ForwardingMode, RoutingProtocol
from repro.protocols.flooding import LSDBGenerations, LSNode, successor_on
from repro.protocols.idrp import IDRPNode, IDRPProtocol, RouteAd
from repro.simul.network import SimNetwork


def valley_free_shortest_path(
    graph: InterADGraph,
    order: PartialOrder,
    src: ADId,
    dst: ADId,
    metric: str = "delay",
) -> Optional[Tuple[ADId, ...]]:
    """Cheapest path satisfying the up/down rule, or ``None``.

    Dijkstra over ``(AD, has-gone-down)`` states: once the path takes a
    down traversal the ``gone_down`` flag is set and up traversals are
    pruned.  Within each phase the total-order key is strictly monotone,
    so paths are simple and the search is polynomial.  Deterministic
    tie-breaking makes every node with the same view compute the same
    path (required for hop-by-hop consistency).
    """
    if src == dst:
        return (src,)
    start = (src, False)
    dist: Dict[Tuple[ADId, bool], float] = {start: 0.0}
    parent: Dict[Tuple[ADId, bool], Optional[Tuple[ADId, bool]]] = {start: None}
    heap: List[Tuple[float, ADId, bool]] = [(0.0, src, False)]
    goal: Optional[Tuple[ADId, bool]] = None
    while heap:
        d, u, gone_down = heapq.heappop(heap)
        state = (u, gone_down)
        if d > dist.get(state, float("inf")):
            continue
        if u == dst:
            goal = state
            break
        for link in graph.links_of(u):
            v = link.other(u)
            direction = order.direction(u, v)
            if direction is Direction.UP and gone_down:
                continue
            nstate = (v, gone_down or direction is Direction.DOWN)
            nd = d + link.metric(metric)
            if nd < dist.get(nstate, float("inf")):
                dist[nstate] = nd
                parent[nstate] = state
                heapq.heappush(heap, (nd, v, nstate[1]))
    if goal is None:
        return None
    path: List[ADId] = []
    cursor: Optional[Tuple[ADId, bool]] = goal
    while cursor is not None:
        path.append(cursor[0])
        cursor = parent[cursor]
    path.reverse()
    return tuple(path)


class _ValleyFreeLSNode(LSNode):
    """LS node computing valley-free routes for whole flows."""

    def __init__(
        self,
        ad_id: ADId,
        order: PartialOrder,
        generations: LSDBGenerations,
    ) -> None:
        super().__init__(
            ad_id, own_terms=(), include_terms=False, generations=generations
        )
        #: Read by the shared computation, so it must be the one
        #: protocol-wide ordering (every node gets the driver's object).
        self.order = order
        self._cache: Dict[Tuple[ADId, ADId, str], Tuple[int, Optional[Tuple[ADId, ...]]]] = {}

    def flow_route(self, flow: FlowSpec) -> Optional[Tuple[ADId, ...]]:
        if flow.qos.is_bottleneck:
            # Valley-free SPF is additive; bandwidth traffic rides the
            # default-metric table (honest era behaviour).
            flow = replace(flow, qos=QOS.DEFAULT)
        key = (flow.src, flow.dst, flow.qos.metric)
        cached = self._cache.get(key)
        if cached is not None and cached[0] == self.db_version:
            return cached[1]
        profiler = self.profiler
        # This node's table above is the modelled one (a miss is charged
        # to this AD below); the SPF itself runs once per LSDB content.
        if profiler is None:
            path = self.generation_route(key, self._compute_route, flow)
        else:
            with profiler.phase("proto.spf"):
                path = self.generation_route(key, self._compute_route, flow)
        self._cache[key] = (self.db_version, path)
        self.note_computation("valley_free_spf")
        return path

    def _compute_route(self, flow: FlowSpec) -> Optional[Tuple[ADId, ...]]:
        graph, _ = self.local_view()
        if flow.src in graph and flow.dst in graph:
            return valley_free_shortest_path(
                graph, self.order, flow.src, flow.dst, flow.qos.metric
            )
        return None


class _LSTopologyProtocolBase(RoutingProtocol):
    """Shared driver for the two LS+topology variants."""

    def __init__(
        self,
        graph: InterADGraph,
        policies: PolicyDatabase,
        order: Optional[PartialOrder] = None,
    ) -> None:
        super().__init__(graph, policies)
        self.order = order or PartialOrder.from_hierarchy(graph)
        self.generations = LSDBGenerations()

    def _make_nodes(self, network: SimNetwork) -> None:
        for ad_id in self.graph.ad_ids():
            network.add_node(
                _ValleyFreeLSNode(ad_id, self.order, self.generations)
            )

    def rib_size(self, ad_id: ADId) -> int:
        node = self.network.node(ad_id)
        assert isinstance(node, _ValleyFreeLSNode)
        return len(node.lsdb) + len(node._cache)


class LSHbHTopologyProtocol(_LSTopologyProtocolBase):
    """LS / hop-by-hop / policy-in-topology (Section 5.5.1)."""

    name: ClassVar[str] = "ls-hbh-topo"
    design_point = LS_HBH_TOPOLOGY
    mode = ForwardingMode.HOP_BY_HOP

    def next_hop(
        self, ad_id: ADId, flow: FlowSpec, prev: Optional[ADId]
    ) -> Optional[ADId]:
        node = self.network.node(ad_id)
        assert isinstance(node, _ValleyFreeLSNode)
        return successor_on(node.flow_route(flow), ad_id)


class LSSourceTopologyProtocol(_LSTopologyProtocolBase):
    """LS / source / policy-in-topology (Section 5.5.1)."""

    name: ClassVar[str] = "ls-src-topo"
    design_point = LS_SRC_TOPOLOGY
    mode = ForwardingMode.SOURCE

    def source_route(
        self, flow: FlowSpec, selection: RouteSelectionPolicy = OPEN_SELECTION
    ) -> Optional[Tuple[ADId, ...]]:
        node = self.network.node(flow.src)
        assert isinstance(node, _ValleyFreeLSNode)
        path = node.flow_route(flow)
        if path is not None and not selection.acceptable(path):
            return None
        return path


class DVSourceTermsProtocol(IDRPProtocol):
    """DV / source / policy terms: IDRP with source-built source routes.

    The source turns the single advertised AD path into a source route.
    Availability is inherited from path-vector advertisement (one route
    per destination/class); what source routing adds is that the source
    can at least *reject* a route violating its own selection criteria
    instead of forwarding blind.
    """

    name: ClassVar[str] = "pv-src"
    design_point = DV_SRC_TERMS
    mode = ForwardingMode.SOURCE

    def source_route(
        self, flow: FlowSpec, selection: RouteSelectionPolicy = OPEN_SELECTION
    ) -> Optional[Tuple[ADId, ...]]:
        node = self.network.node(flow.src)
        assert isinstance(node, IDRPNode)
        entry = node.entry_for(
            flow.dst, self._qos_for(flow), node.class_of(flow.src)
        )
        if entry is None or not entry.allowed.matches(flow.src):
            return None
        if not selection.acceptable(entry.path):
            return None
        return entry.path


class _TopoVectorNode(IDRPNode):
    """Path-vector node whose only policy is the partial ordering.

    Candidates must satisfy the up/down rule end to end (recomputed from
    the full advertised path); export is constrained by AD role: stubs
    advertise only themselves, hybrids only serve their down-side.
    """

    def __init__(
        self,
        ad_id: ADId,
        qos_classes,
        order: PartialOrder,
        may_transit: bool,
        down_only_transit: bool,
    ) -> None:
        super().__init__(ad_id, own_terms=(), qos_classes=qos_classes)
        self.order = order
        self.may_transit = may_transit
        self.down_only_transit = down_only_transit
        self._honest_transit = (may_transit, down_only_transit)

    def _candidate_usable(self, ad: RouteAd) -> bool:
        return self.order.path_is_valid((self.ad_id,) + ad.path)

    def _path_implausible(self, ad: RouteAd) -> Optional[str]:
        # No terms in this regime: validate each transit hop against the
        # *registered* AD roles instead (stubs may not transit; hybrids
        # only toward their down-side), mirroring honest export exactly.
        if self.trusted_graph is None:
            return None
        for i in range(len(ad.path) - 1):
            hop = ad.path[i]
            prev = self.ad_id if i == 0 else ad.path[i - 1]
            if not self.trusted_graph.has_ad(hop):
                return "unregistered AD on path"
            kind = self.trusted_graph.ad(hop).kind
            if not kind.may_transit:
                return "registered stub AD transits"
            if (
                kind is ADKind.HYBRID
                and self.order.direction(hop, prev) is not Direction.DOWN
            ):
                return "registered hybrid AD transits upward"
        return None

    def _tell_lie(self, lie: str, target: Optional[ADId] = None) -> bool:
        if lie == "route-leak":
            if self.may_transit and not self.down_only_transit:
                # Already permitted full transit by the topology regime;
                # there is nothing to leak.
                return False
            self._active_lies[lie] = None
            self.may_transit = True
            self.down_only_transit = False
            self._pending.update(self.loc)
            self._schedule_flush()
            return True
        return super()._tell_lie(lie, target)

    def behave(self) -> None:
        super().behave()
        self.may_transit, self.down_only_transit = self._honest_transit

    def _export_scope(
        self, entry, dest: ADId, qos, to_nbr: ADId, cls: int = 0
    ) -> ADSet:
        if dest == self.ad_id:
            return ADSet.everyone()
        if not self.may_transit:
            return ADSet.none()
        if self.down_only_transit:
            if self.order.direction(self.ad_id, to_nbr) is not Direction.DOWN:
                return ADSet.none()
        # The receiver revalidates the up/down rule itself; no term scopes.
        return ADSet.everyone()


class DVSourceTopologyProtocol(RoutingProtocol):
    """DV / source / policy-in-topology (Section 5.5.2).

    A path-vector under the partial-ordering regime; the source builds a
    source route from the advertised path.
    """

    name: ClassVar[str] = "topo-vector-src"
    design_point = DV_SRC_TOPOLOGY
    mode = ForwardingMode.SOURCE
    #: Path-vector under partial ordering: the advertised path depends
    #: on destination and the QOS class of the request only.
    fib_key_fields: ClassVar[Tuple[str, ...]] = ("src", "dst", "qos")

    def __init__(
        self,
        graph: InterADGraph,
        policies: PolicyDatabase,
        order: Optional[PartialOrder] = None,
    ) -> None:
        super().__init__(graph, policies)
        self.order = order or PartialOrder.from_hierarchy(graph)
        self.qos_classes = (QOS.DEFAULT,)

    def _make_nodes(self, network: SimNetwork) -> None:
        for ad in self.graph.ads():
            network.add_node(
                _TopoVectorNode(
                    ad.ad_id,
                    qos_classes=self.qos_classes,
                    order=self.order,
                    may_transit=ad.kind.may_transit,
                    down_only_transit=ad.kind is ADKind.HYBRID,
                )
            )

    def source_route(
        self, flow: FlowSpec, selection: RouteSelectionPolicy = OPEN_SELECTION
    ) -> Optional[Tuple[ADId, ...]]:
        node = self.network.node(flow.src)
        assert isinstance(node, _TopoVectorNode)
        entry = node.entry_for(flow.dst, self.qos_classes[0])
        if entry is None or not selection.acceptable(entry.path):
            return None
        return entry.path

    def rib_size(self, ad_id: ADId) -> int:
        node = self.network.node(ad_id)
        assert isinstance(node, _TopoVectorNode)
        return len(node.loc)
