"""Router-level expansion of an AD-level topology.

Section 4.1 fixes the paper's abstraction: inter-AD routing sees ADs, not
routers.  To *price* that abstraction (experiment E9) — and to model
intra-AD path realisation at all — this module expands each AD into an
internal router network:

* each AD becomes a ring of routers (ring size by hierarchy level:
  backbones are bigger networks than campuses);
* each inter-AD link attaches to a specific *border router* on each side
  (deterministically chosen per neighbour, so a multi-homed AD has
  multiple distinct borders);
* internal hops carry a configurable delay.

The expansion yields a :class:`networkx.Graph` whose nodes are
``(ad_id, router_index)`` pairs, plus helpers to evaluate an AD-level
route's best router-level realisation ("corridor" cost) against the
unconstrained router-level optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.adgraph.ad import ADId, Level
from repro.adgraph.graph import InterADGraph

if TYPE_CHECKING:
    import networkx as nx

#: Default internal routers per hierarchy level.
DEFAULT_ROUTERS_PER_LEVEL: Dict[Level, int] = {
    Level.BACKBONE: 8,
    Level.REGIONAL: 5,
    Level.METRO: 4,
    Level.CAMPUS: 3,
}

RouterId = Tuple[ADId, int]


@dataclass(frozen=True)
class ExpansionConfig:
    """Parameters for :class:`RouterExpansion`.

    Attributes:
        routers_per_level: Ring size per hierarchy level.
        internal_hop_delay: Delay of one intra-AD router hop.
    """

    routers_per_level: Dict[Level, int] = field(
        default_factory=lambda: dict(DEFAULT_ROUTERS_PER_LEVEL)
    )
    internal_hop_delay: float = 0.5

    def __post_init__(self) -> None:
        if self.internal_hop_delay < 0:
            raise ValueError("internal_hop_delay must be non-negative")
        for level, n in self.routers_per_level.items():
            if n < 1:
                raise ValueError(f"{level} needs at least one router, got {n}")


class RouterExpansion:
    """A router-level view of an AD-level internet."""

    def __init__(
        self, graph: InterADGraph, config: Optional[ExpansionConfig] = None
    ) -> None:
        self.ad_graph = graph
        self.config = config or ExpansionConfig()
        self.router_graph = self._expand()

    def router_count(self, ad_id: ADId) -> int:
        """Internal routers of an AD."""
        return self.config.routers_per_level[self.ad_graph.ad(ad_id).level]

    def total_routers(self) -> int:
        return sum(self.router_count(a) for a in self.ad_graph.ad_ids())

    def border_router(self, ad_id: ADId, neighbor: ADId) -> RouterId:
        """The router of ``ad_id`` that terminates the link to ``neighbor``.

        Deterministic (hash of the neighbour id into the ring), so
        distinct neighbours usually land on distinct borders.
        """
        return (ad_id, neighbor % self.router_count(ad_id))

    def _expand(self) -> nx.Graph:
        import networkx as nx

        g = nx.Graph()
        delay = self.config.internal_hop_delay
        for ad in self.ad_graph.ads():
            n = self.router_count(ad.ad_id)
            for i in range(n):
                g.add_node((ad.ad_id, i))
            for i in range(n):
                if n > 1:
                    g.add_edge(
                        (ad.ad_id, i), (ad.ad_id, (i + 1) % n), delay=delay
                    )
        for link in self.ad_graph.links(include_down=False):
            g.add_edge(
                self.border_router(link.a, link.b),
                self.border_router(link.b, link.a),
                delay=link.metric("delay"),
            )
        return g

    # ------------------------------------------------------------- analysis

    def host_router(self, ad_id: ADId) -> RouterId:
        """The router standing in for the AD's end systems (router 0)."""
        return (ad_id, 0)

    def optimal_cost(self, src_ad: ADId, dst_ad: ADId) -> Optional[float]:
        """Unconstrained router-level shortest delay between two ADs."""
        import networkx as nx

        try:
            return nx.shortest_path_length(
                self.router_graph,
                self.host_router(src_ad),
                self.host_router(dst_ad),
                weight="delay",
            )
        except nx.NetworkXNoPath:
            return None

    def corridor(self, ad_path: Sequence[ADId]) -> nx.Graph:
        """Router subgraph realising an AD-level route.

        Keeps only routers of the route's ADs, internal edges inside
        those ADs, and inter-AD edges between *consecutive* route ADs --
        the packet must honour the AD sequence the route server chose.
        """
        import networkx as nx

        allowed = set(ad_path)
        consecutive = set(zip(ad_path, ad_path[1:]))
        consecutive |= {(b, a) for a, b in consecutive}
        sub = nx.Graph()
        for node in self.router_graph.nodes:
            if node[0] in allowed:
                sub.add_node(node)
        for u, v, data in self.router_graph.edges(data=True):
            if u not in sub or v not in sub:
                continue
            if u[0] == v[0] or (u[0], v[0]) in consecutive:
                sub.add_edge(u, v, **data)
        return sub

    def realized_cost(self, ad_path: Sequence[ADId]) -> Optional[float]:
        """Best router-level delay achievable along an AD-level route."""
        import networkx as nx

        if not ad_path:
            return None
        if len(ad_path) == 1:
            return 0.0
        corridor = self.corridor(ad_path)
        try:
            return nx.shortest_path_length(
                corridor,
                self.host_router(ad_path[0]),
                self.host_router(ad_path[-1]),
                weight="delay",
            )
        except nx.NetworkXNoPath:
            return None

    def stretch(self, ad_path: Sequence[ADId]) -> Optional[float]:
        """Cost ratio: AD-level route realisation / router-level optimum.

        ``None`` when either cost is undefined; 1.0 means the abstraction
        cost nothing for this flow.
        """
        if len(ad_path) < 2:
            return 1.0
        optimal = self.optimal_cost(ad_path[0], ad_path[-1])
        realised = self.realized_cost(ad_path)
        if optimal is None or realised is None or optimal <= 0:
            return None
        return realised / optimal

    def information_volume(self) -> Tuple[int, int]:
        """(AD-level, router-level) routing-information unit counts.

        One unit per node plus two per (directed) link -- the LSA-entry
        count a link-state protocol would flood at each granularity.
        """
        ad_level = self.ad_graph.num_ads + 2 * self.ad_graph.num_links
        router_level = (
            self.router_graph.number_of_nodes()
            + 2 * self.router_graph.number_of_edges()
        )
        return ad_level, router_level
