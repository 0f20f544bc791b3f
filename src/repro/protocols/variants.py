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
from repro.protocols.ecma import TransitRole
from repro.protocols.flooding import LSNode, successor_on
from repro.protocols.idrp import IDRPNode, IDRPProtocol, RouteAd
from repro.protocols.lsdb import LSDBGenerations
from repro.simul.network import SimNetwork


class ValleyFreeSearch:
    """One source's valley-free Dijkstra, resumed for each destination asked.

    Dijkstra over ``(AD, has-gone-down)`` states: once the path takes a
    down traversal the ``gone_down`` flag is set and up traversals are
    pruned.  Within each phase the total-order key is strictly monotone,
    so paths are simple and the search is polynomial.  A state is the int
    ``2 * AD + gone_down``, so the heap order ``(distance, state)`` is
    ``(distance, AD, gone_down)``: deterministic tie-breaking makes every
    node with the same view compute the same path (required for
    hop-by-hop consistency).

    :meth:`path_to` answers from the states already popped or resumes
    popping until the destination's first state is popped, expanding
    every popped state before it returns.  Legality depends on the
    source, the state and the link direction, never on the destination,
    and relaxation is strict over non-negative weights, so a popped
    state's parent is frozen: the answer is the one a fresh search
    stopping at that destination would give, ties and zero weights
    included.

    **Precondition:** ``graph`` must not change while the search is kept
    -- retain one only over a published, read-only view (an
    :class:`~repro.protocols.lsdb.LSDBGeneration`'s).
    """

    __slots__ = ("graph", "order", "src", "metric", "dist", "parent", "heap", "first", "pops")

    def __init__(
        self,
        graph: InterADGraph,
        order: PartialOrder,
        src: ADId,
        metric: str = "delay",
    ) -> None:
        self.graph: Optional[InterADGraph] = graph
        self.order = order
        self.src = src
        self.metric = metric
        start = 2 * src
        self.dist: Optional[Dict[int, float]] = {start: 0.0}
        self.parent: Dict[int, Optional[int]] = {start: None}
        self.heap: List[Tuple[float, int]] = [(0.0, start)]
        #: AD -> its first popped state, the goal of a path to it.
        self.first: Dict[ADId, int] = {}
        #: Heap pops so far, stale ones included (observability).
        self.pops = 0

    def path_to(self, dst: ADId) -> Optional[Tuple[ADId, ...]]:
        """Cheapest path from the source to ``dst`` satisfying the up/down rule, or ``None``."""
        if dst == self.src:
            return (dst,)
        goal = self.first.get(dst)
        if goal is None and self.heap:
            goal = self._resume(dst)
        if goal is None:
            return None
        parent = self.parent
        path: List[ADId] = []
        cursor: Optional[int] = goal
        while cursor is not None:
            path.append(cursor >> 1)
            cursor = parent[cursor]
        path.reverse()
        return tuple(path)

    def _resume(self, dst: ADId) -> Optional[int]:
        """Pop until ``dst``'s first state is popped (and expanded) or the heap runs out."""
        heap, dist, parent, first = self.heap, self.dist, self.parent, self.first
        links_of, direction, metric = self.graph.links_of, self.order.direction, self.metric
        pop, push, up = heapq.heappop, heapq.heappush, Direction.UP
        inf = float("inf")
        pops = self.pops
        goal = None
        while heap:
            d, state = pop(heap)
            pops += 1
            if d > dist[state]:
                continue
            u, gone_down = state >> 1, state & 1
            if u not in first:
                first[u] = state
                if u == dst:
                    goal = state
            for link in links_of(u):
                v = link.other(u)
                if direction(u, v) is up:
                    if gone_down:
                        continue
                    nstate = 2 * v
                else:
                    nstate = 2 * v + 1
                nd = d + link.metric(metric)
                if nd < dist.get(nstate, inf):
                    dist[nstate] = nd
                    parent[nstate] = state
                    push(heap, (nd, nstate))
            if goal is not None:
                break
        self.pops = pops
        if not heap:
            # Exhausted: every reachable AD has its goal; the rest is dead.
            self.dist = self.graph = None
        return goal


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
        profiler = self.transport.profiler
        # This node's table above is the modelled one (a miss is charged
        # to this AD below); the route is searched once per LSDB content,
        # by one resumable SPF per (source, metric) of the generation.
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
        if flow.src not in graph or flow.dst not in graph:
            return None
        # One resumable search per (source, metric) on this generation's
        # read-only view answers every destination asked of it.
        searches = self._generation.searches
        if searches is None:
            searches = self._generation.searches = {}
        key = (flow.src, flow.qos.metric)
        search = searches.get(key)
        if search is None:
            search = searches[key] = ValleyFreeSearch(
                graph, self.order, flow.src, flow.qos.metric
            )
        return search.path_to(flow.dst)


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


class _TopoVectorNode(TransitRole, IDRPNode):
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
        self._init_role(order, may_transit, down_only_transit)

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

    def _export_scope(
        self, entry, dest: ADId, qos, to_nbr: ADId, cls: int = 0
    ) -> ADSet:
        # The receiver revalidates the up/down rule itself; no term scopes.
        if self._offers_transit(dest, to_nbr):
            return ADSet.everyone()
        return ADSet.none()


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
