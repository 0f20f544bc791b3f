"""Hierarchical (corridor-pruned) route synthesis.

Section 6 of the paper: route synthesis at internet scale needs
"heuristics for pruning precomputations and for focusing on-demand
computations".  This module implements the natural pruning heuristic for
a Figure-1 internet:

1. partition ADs into *regions* (each regional transit AD plus its
   customer subtree; all backbones form the core region);
2. route at region granularity first — a handful of candidate region
   sequences over the small super-graph;
3. run the exact constrained search *inside the corridor* of those
   regions only, which shrinks the state space by roughly the square of
   the partition factor;
4. optionally fall back to the full-topology search when every corridor
   fails (keeping the synthesiser complete at a bounded extra cost).

Ablation A5 measures the saved work, the corridor hit rate, and the
availability lost when the fallback is disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.adgraph.ad import ADId, Level, LinkKind
from repro.adgraph.graph import InterADGraph
from repro.core.routes import Route
from repro.core.synthesis import SynthesisStats, synthesize_route
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.selection import OPEN_SELECTION, RouteSelectionPolicy

if TYPE_CHECKING:
    import networkx as nx

#: Region id of the backbone core.
CORE_REGION = 0


def partition_by_region(graph: InterADGraph) -> Dict[ADId, int]:
    """Assign every AD to a region.

    Backbones form region 0; every regional AD founds a region containing
    its hierarchical customer subtree (multi-claimed ADs go to the
    lowest-numbered region); anything left over (exotic hand-built
    topologies) joins the core.
    """
    region: Dict[ADId, int] = {}
    for ad in graph.ads_by_level(Level.BACKBONE):
        region[ad.ad_id] = CORE_REGION
    next_region = 1
    for regional in graph.ads_by_level(Level.REGIONAL):
        rid = next_region
        next_region += 1
        frontier = [regional.ad_id]
        while frontier:
            node = frontier.pop()
            if node in region:
                continue
            region[node] = rid
            for link in graph.links_of(node, include_down=True):
                if link.kind is not LinkKind.HIERARCHICAL:
                    continue
                nbr = link.other(node)
                if graph.ad(nbr).level > graph.ad(node).level and nbr not in region:
                    frontier.append(nbr)
    for ad_id in graph.ad_ids():
        region.setdefault(ad_id, CORE_REGION)
    return region


def build_super_graph(
    graph: InterADGraph, region: Dict[ADId, int]
) -> nx.Graph:
    """Region-level graph: an edge where any live inter-AD link crosses."""
    import networkx as nx

    sg = nx.Graph()
    sg.add_nodes_from(sorted(set(region.values())))
    for link in graph.links(include_down=False):
        ra, rb = region[link.a], region[link.b]
        if ra == rb:
            continue
        weight = link.metric("delay")
        if not sg.has_edge(ra, rb) or weight < sg[ra][rb]["weight"]:
            sg.add_edge(ra, rb, weight=weight)
    return sg


@dataclass
class HierarchicalStats:
    """Work accounting for hierarchical synthesis (ablation A5)."""

    requests: int = 0
    corridor_hits: int = 0
    corridor_misses: int = 0
    fallbacks: int = 0
    synthesis: SynthesisStats = field(default_factory=SynthesisStats)

    @property
    def hit_ratio(self) -> float:
        return self.corridor_hits / self.requests if self.requests else 0.0


class HierarchicalSynthesizer:
    """Corridor-pruned policy route synthesis over a region partition."""

    def __init__(
        self,
        graph: InterADGraph,
        policies: PolicyDatabase,
        region: Optional[Dict[ADId, int]] = None,
        max_region_paths: int = 3,
        fallback: bool = True,
    ) -> None:
        if max_region_paths < 1:
            raise ValueError("max_region_paths must be positive")
        self.graph = graph
        self.policies = policies
        self.region = region or partition_by_region(graph)
        self.super_graph = build_super_graph(graph, self.region)
        self.max_region_paths = max_region_paths
        self.fallback = fallback
        self.stats = HierarchicalStats()
        self._members: Dict[int, FrozenSet[ADId]] = {}
        for ad_id, rid in self.region.items():
            self._members.setdefault(rid, frozenset())
        grouped: Dict[int, set] = {}
        for ad_id, rid in self.region.items():
            grouped.setdefault(rid, set()).add(ad_id)
        self._members = {rid: frozenset(m) for rid, m in grouped.items()}

    def members(self, region_id: int) -> FrozenSet[ADId]:
        """ADs of one region."""
        return self._members.get(region_id, frozenset())

    def _region_paths(self, src_region: int, dst_region: int) -> List[Tuple[int, ...]]:
        """Candidate region sequences: k cheapest, plus the via-core path.

        The k cheapest sequences tend to favour lateral shortcuts, which
        restrictive policies often refuse; the hierarchy's natural
        default -- up to the backbone core and back down -- is therefore
        always offered as a candidate too.
        """
        import networkx as nx

        if src_region == dst_region:
            candidates = [(src_region,)]
            if self.super_graph.has_edge(src_region, CORE_REGION):
                # Allow hairpinning through the core (a route may need to
                # leave the region and re-enter when intra-region policy
                # blocks the direct path).
                candidates.append((src_region, CORE_REGION))
            return candidates
        candidates: List[Tuple[int, ...]] = []
        try:
            paths = nx.shortest_simple_paths(
                self.super_graph, src_region, dst_region, weight="weight"
            )
            candidates = [tuple(p) for p in islice(paths, self.max_region_paths)]
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return []
        core = None
        if (
            CORE_REGION not in (src_region, dst_region)
            and self.super_graph.has_edge(src_region, CORE_REGION)
            and self.super_graph.has_edge(CORE_REGION, dst_region)
        ):
            core = (src_region, CORE_REGION, dst_region)
            if core not in candidates:
                candidates.append(core)
        # Final, widest corridor: the union of everything above.
        union = tuple(sorted({rid for path in candidates for rid in path}))
        if len(candidates) > 1 and union not in candidates:
            candidates.append(union)
        return candidates

    def _corridor_selection(
        self, corridor: FrozenSet[ADId], selection: RouteSelectionPolicy
    ) -> Optional[RouteSelectionPolicy]:
        """Merge the corridor restriction into the caller's criteria."""
        outside = frozenset(self.graph.ad_ids()) - corridor
        avoid = selection.avoid_ads | outside
        if selection.require_ads & outside:
            return None  # a required AD lies outside this corridor
        return RouteSelectionPolicy(
            avoid_ads=avoid,
            require_ads=selection.require_ads,
            max_hops=selection.max_hops,
            charge_weight=selection.charge_weight,
        )

    def route(
        self,
        flow: FlowSpec,
        selection: RouteSelectionPolicy = OPEN_SELECTION,
    ) -> Optional[Route]:
        """Synthesise a route through region corridors, cheapest first."""
        self.stats.requests += 1
        src_region = self.region.get(flow.src)
        dst_region = self.region.get(flow.dst)
        if src_region is None or dst_region is None:
            return None
        for region_path in self._region_paths(src_region, dst_region):
            corridor = frozenset().union(
                *(self.members(rid) for rid in region_path)
            )
            merged = self._corridor_selection(corridor, selection)
            if merged is None:
                continue
            route = synthesize_route(
                self.graph, self.policies, flow, merged, stats=self.stats.synthesis
            )
            if route is not None:
                self.stats.corridor_hits += 1
                return route
        self.stats.corridor_misses += 1
        if not self.fallback:
            return None
        self.stats.fallbacks += 1
        return synthesize_route(
            self.graph, self.policies, flow, selection, stats=self.stats.synthesis
        )
