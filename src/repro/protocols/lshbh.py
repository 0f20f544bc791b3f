"""Link state + hop-by-hop + policy terms: Section 5.3's design point.

Link state updates carry Policy Terms, so "each AD [has] global knowledge
of all links and their associated policy restrictions" and "can compute
routes satisfying any set of policy restrictions to all other ADs" --
availability is as good as source routing.

The structural cost, which this implementation makes measurable: to
forward a packet, *every AD along the route* must compute (or cache) the
same source-rooted legal route for the packet's (source, destination,
class).  "Because we allow for the possibility of source specific
policies, an AD potentially must compute a separate spanning tree for
each potential source of traffic ... the replicated nature of this
computation may become an excessive burden for transit ADs."

Consistency (and hence loop freedom) relies on deterministic synthesis
over identical LSDBs; each node literally recomputes the *source's* best
route and forwards to its own successor on it.  Per-node computation
counts and cache sizes are experiment E5's hop-by-hop burden curve.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Optional, Tuple

from repro.adgraph.ad import ADId
from repro.core.design_space import LS_HBH_TERMS
from repro.core.synthesis import SynthesisStats, synthesize_route
from repro.policy.flows import FlowSpec
from repro.protocols.base import ForwardingMode, RoutingProtocol
from repro.protocols.flooding import LSNode, successor_on
from repro.protocols.lsdb import LSDBGenerations
from repro.simul.network import SimNetwork


class LSHbHNode(LSNode):
    """LS node that recomputes each flow's source-rooted policy route."""

    def __init__(self, ad_id, own_terms, generations: LSDBGenerations) -> None:
        super().__init__(
            ad_id, own_terms=own_terms, include_terms=True, generations=generations
        )
        # Version-keyed wholesale invalidation, mirroring the policy
        # database's decision-cache contract: one version check guards the
        # whole cache, and stale routes never linger past an LSDB change.
        self._route_cache: Dict[FlowSpec, Optional[Tuple[ADId, ...]]] = {}
        self._route_cache_version = -1

    def flow_route(self, flow: FlowSpec) -> Optional[Tuple[ADId, ...]]:
        """The canonical route for ``flow``, from this node's view.

        Three cache layers keep the paper's "replicated nature of this
        computation" (Section 5.3) affordable enough to measure at scale.
        This node's own table is the *modelled* one: a miss in it is one
        computation charged to this AD, whoever does the work.  The work
        itself -- constrained synthesis over the local view -- is shared
        by every node holding the same LSDB content
        (:meth:`~repro.protocols.lsdb.LSDBGenerations.route`), and
        its per-edge legality queries are memoized in the view's policy
        database.  Modelled computations are counted per AD; host
        computations are shared per LSDB state.
        """
        if self._route_cache_version != self.db_version:
            self._route_cache.clear()
            self._route_cache_version = self.db_version
        elif flow in self._route_cache:
            return self._route_cache[flow]
        path = self.generation_route(flow, self._synthesize, flow)
        self._route_cache[flow] = path
        self.note_computation("policy_route")
        return path

    def _synthesize(self, flow: FlowSpec) -> Optional[Tuple[ADId, ...]]:
        graph, policies = self.local_view()
        if flow.src not in graph or flow.dst not in graph:
            return None
        stats = SynthesisStats()
        route = synthesize_route(graph, policies, flow, stats=stats)
        if stats.fallback_runs:
            # A budget-bounded branch-and-bound: link loss off its answer
            # can change it, so the next generation recomputes.
            self._generation.uncarried.add(flow)
        return None if route is None else route.path

    def cache_entries(self) -> int:
        """Cached per-flow routes (the replicated-table burden metric)."""
        return len(self._route_cache)


class LinkStateHopByHopProtocol(RoutingProtocol):
    """Driver for the LS / hop-by-hop / policy-terms design point."""

    name: ClassVar[str] = "ls-hbh"
    design_point = LS_HBH_TERMS
    mode = ForwardingMode.HOP_BY_HOP

    def __init__(self, graph, policies) -> None:
        super().__init__(graph, policies)
        self.generations = LSDBGenerations()

    def _make_nodes(self, network: SimNetwork) -> None:
        for ad in self.graph.ads():
            network.add_node(
                LSHbHNode(
                    ad.ad_id,
                    own_terms=self.policies.terms_of(ad.ad_id),
                    generations=self.generations,
                )
            )

    def next_hop(
        self, ad_id: ADId, flow: FlowSpec, prev: Optional[ADId]
    ) -> Optional[ADId]:
        node = self.network.node(ad_id)
        assert isinstance(node, LSHbHNode)
        return successor_on(node.flow_route(flow), ad_id)

    def rib_size(self, ad_id: ADId) -> int:
        node = self.network.node(ad_id)
        assert isinstance(node, LSHbHNode)
        return len(node.lsdb) + node.cache_entries()
