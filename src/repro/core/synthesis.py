"""Policy route synthesis.

This is the computation the paper identifies as "probably the most
difficult aspect" of the recommended architecture (Section 6): given the
flooded topology + Policy Term database, find a legal, loop-free,
preference-optimal AD route for a flow.

Because Policy Terms constrain each traversal by the *previous* and *next*
AD, shortest-path optimality over plain ADs does not hold; instead we run
Dijkstra over the **state graph** whose states are ``(current AD, previous
AD)`` pairs.  That search is polynomial and complete over *walks*; legal
routes must additionally be loop-free, so when the best walk revisits an
AD (rare, but possible when entry constraints force detours) we fall back
to an exact branch-and-bound search over simple paths.  The fallback is
also used when hard selection criteria (hop bounds, required ADs) reject
the Dijkstra result.  Policy routing with such constraints is NP-hard in
general, which is precisely the paper's point that "precomputation of all
policy routes in a large internet is computationally intractable"; the
bounded fallback makes the trade-off explicit and measurable.

Charges and ``charge_weight`` must be finite and non-negative (their
constructors refuse anything else): ``0.0 * inf`` is NaN, and a search skips
the policy query once the charge-free bound fails, exact only for charges >= 0.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.core.routes import Route
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.legality import is_legal_path, path_metric
from repro.policy.selection import OPEN_SELECTION, RouteSelectionPolicy

#: Default expansion budget for the exact fallback search.
DEFAULT_FALLBACK_BUDGET = 200_000

_LinkKey = Tuple[ADId, ADId]
_State = Tuple[ADId, Optional[ADId]]


@dataclass
class SynthesisStats:
    """Work counters for route synthesis (the E10 cost metrics)."""

    dijkstra_runs: int = 0
    fallback_runs: int = 0
    states_expanded: int = 0
    routes_found: int = 0
    routes_failed: int = 0

    def merge(self, other: "SynthesisStats") -> None:
        self.dijkstra_runs += other.dijkstra_runs
        self.fallback_runs += other.fallback_runs
        self.states_expanded += other.states_expanded
        self.routes_found += other.routes_found
        self.routes_failed += other.routes_failed


def route_charges(
    graph: InterADGraph,
    policies: PolicyDatabase,
    path: Tuple[ADId, ...],
    flow: FlowSpec,
) -> float:
    """Total advertised charge of the PTs a legal path relies on."""
    total = 0.0
    for i in range(1, len(path) - 1):
        charge = policies.transit_charge(path[i], flow, path[i - 1], path[i + 1])
        if charge is None:
            raise ValueError(f"path {path} is not legal at AD {path[i]}")
        total += charge
    return total


# Per-relaxation legality+cost queries inside the searches below go
# through ``PolicyDatabase.transit_charge`` (hoisted to a local ``transit``
# in each inner loop): ``None`` means the traversal is refused, a float is
# the advertised charge.  The flow's source originates its own traffic and
# needs no transit permission, hence the ``u != src`` guards.  The call
# rides the database's indexed, version-memoized decision engine, so
# re-deriving the same route (the LS-hop-by-hop replication, k-alternative
# re-runs, availability sweeps) costs a dictionary hit per edge; it is made
# only once the charge-free bound shows the relaxation can succeed.


class _OutEdges(dict):
    """One search's AD -> ``((neighbour, metric), ...)``, in ``links_of`` order.

    Built per AD on first expansion from the edges any previous AD may take:
    live, not back to the source, not excluded, to a permitted neighbour or
    the destination.  Graphs mutate, so a table never outlives its search.
    """

    def __init__(
        self,
        graph: InterADGraph,
        flow: FlowSpec,
        selection: RouteSelectionPolicy,
        excluded_links: FrozenSet[_LinkKey],
    ) -> None:
        super().__init__()
        self.search = graph.links_of, flow.src, flow.dst, flow.qos.metric
        self.filters = selection.permits_node, excluded_links

    def __missing__(self, u: ADId) -> Tuple[Tuple[ADId, float], ...]:
        (links_of, src, dst, metric), (permits, excluded) = self.search, self.filters
        out = []
        for link in links_of(u):
            v = link.b if link.a == u else link.a
            if v == src or excluded and (min(u, v), max(u, v)) in excluded:
                continue
            if v == dst or permits(v):
                out.append((v, link.metric(metric)))
        edges = self[u] = tuple(out)
        return edges


def _walk_back(parent: Dict[_State, Optional[_State]], goal: Optional[_State]) -> Tuple[ADId, ...]:
    """The AD sequence from the source state to ``goal``."""
    path: List[ADId] = []
    while goal is not None:
        path.append(goal[0])
        goal = parent[goal]
    return tuple(reversed(path))


def _widest_constrained_search(
    graph: InterADGraph,
    policies: PolicyDatabase,
    flow: FlowSpec,
    selection: RouteSelectionPolicy,
    excluded_links: FrozenSet[_LinkKey],
    stats: Optional[SynthesisStats],
) -> Optional[Tuple[ADId, ...]]:
    """Widest legal walk (max-min bandwidth) over (AD, previous) states.

    The bottleneck analogue of the constrained Dijkstra: labels carry the
    narrowest link seen so far and the search greedily extends the widest
    frontier.  Charges are not folded into the optimisation (bandwidth
    and money do not compose); selection hard criteria still apply.
    """
    if stats is not None:
        stats.dijkstra_runs += 1
    src, dst = flow.src, flow.dst
    if src == dst:
        return (src,)

    width: Dict[_State, float] = {(src, None): float("inf")}
    parent: Dict[_State, Optional[_State]] = {(src, None): None}
    heap: List[Tuple[float, ADId, Optional[ADId]]] = [(-float("inf"), src, None)]
    expanded = 0
    goal: Optional[_State] = None
    transit = policies.transit_charge
    out_edges = _OutEdges(graph, flow, selection, excluded_links)

    while heap:
        neg_w, u, p = heapq.heappop(heap)
        w = -neg_w
        state = (u, p)
        if w < width.get(state, 0.0):
            continue
        expanded += 1
        if u == dst:
            goal = state
            break
        for v, m in out_edges[u]:
            if v == p:
                continue
            nw = m if m < w else w  # min(w, m)
            nstate = (v, u)
            if not nw > width.get(nstate, 0.0):
                continue
            if u != src and transit(u, flow, p, v) is None:
                continue
            width[nstate] = nw
            parent[nstate] = state
            heapq.heappush(heap, (-nw, v, u))

    if stats is not None:
        stats.states_expanded += expanded
    return None if goal is None else _walk_back(parent, goal)


def constrained_dijkstra(
    graph: InterADGraph,
    policies: PolicyDatabase,
    flow: FlowSpec,
    selection: RouteSelectionPolicy = OPEN_SELECTION,
    excluded_links: FrozenSet[_LinkKey] = frozenset(),
    stats: Optional[SynthesisStats] = None,
) -> Optional[Tuple[ADId, ...]]:
    """Cheapest legal *walk* from flow source to destination.

    Runs Dijkstra over ``(current, previous)`` states with edge weights
    ``metric + charge_weight * transit charge``; bottleneck QOS classes
    dispatch to the widest-path variant instead.  The result is optimal
    over walks; callers must verify loop-freeness (a walk that is a simple
    path is an optimal legal route over paths too, since every path is a
    walk).

    Returns ``None`` when no legal walk exists -- which also proves no
    legal simple path exists.
    """
    if flow.qos.is_bottleneck:
        return _widest_constrained_search(
            graph, policies, flow, selection, excluded_links, stats
        )
    if stats is not None:
        stats.dijkstra_runs += 1
    src, dst = flow.src, flow.dst
    if src == dst:
        return (src,)

    inf = float("inf")
    dist: Dict[_State, float] = {(src, None): 0.0}
    parent: Dict[_State, Optional[_State]] = {(src, None): None}
    heap: List[Tuple[float, ADId, Optional[ADId]]] = [(0.0, src, None)]
    expanded = 0
    goal: Optional[_State] = None
    transit = policies.transit_charge
    out_edges = _OutEdges(graph, flow, selection, excluded_links)
    charge_weight = selection.charge_weight

    while heap:
        d, u, p = heapq.heappop(heap)
        state = (u, p)
        if d > dist.get(state, inf):
            continue
        expanded += 1
        if u == dst:
            goal = state
            break
        for v, m in out_edges[u]:
            if v == p:
                continue
            nstate = (v, u)
            label = dist.get(nstate, inf)
            if d + m >= label:
                continue  # no charge can bring it below the label
            charge = 0.0 if u == src else transit(u, flow, p, v)
            if charge is None:
                continue
            nd = d + (m + charge_weight * charge)
            if nd < label:
                dist[nstate] = nd
                parent[nstate] = state
                heapq.heappush(heap, (nd, v, u))

    if stats is not None:
        stats.states_expanded += expanded
    return None if goal is None else _walk_back(parent, goal)


def _widest_exhaustive(
    graph: InterADGraph,
    policies: PolicyDatabase,
    flow: FlowSpec,
    selection: RouteSelectionPolicy,
    excluded_links: FrozenSet[_LinkKey],
    budget: int,
    stats: Optional[SynthesisStats],
) -> Optional[Tuple[ADId, ...]]:
    """Exact widest legal simple path (bottleneck branch-and-bound)."""
    if stats is not None:
        stats.fallback_runs += 1
    src, dst = flow.src, flow.dst
    if src == dst:
        return (src,)
    max_hops = selection.max_hops or graph.num_ads

    best_path: Optional[Tuple[ADId, ...]] = None
    best_width = 0.0
    heap: List[Tuple[float, Tuple[ADId, ...]]] = [(-float("inf"), (src,))]
    expanded = 0
    transit = policies.transit_charge
    out_edges = _OutEdges(graph, flow, selection, excluded_links)
    while heap and expanded < budget:
        neg_w, path = heapq.heappop(heap)
        w = -neg_w
        if w <= best_width:
            continue  # width only shrinks as the path grows
        expanded += 1
        u = path[-1]
        p = path[-2] if len(path) > 1 else None
        if len(path) - 1 >= max_hops:
            continue
        for v, m in out_edges[u]:
            if v in path:
                continue
            nw = m if m < w else w  # min(w, m)
            if not nw > best_width:
                continue
            if u != src and transit(u, flow, p, v) is None:
                continue
            npath = path + (v,)
            if v != dst:
                heapq.heappush(heap, (-nw, npath))
            elif selection.acceptable(npath):
                best_width = nw
                best_path = npath
    if stats is not None:
        stats.states_expanded += expanded
    return best_path


def exhaustive_best_path(
    graph: InterADGraph,
    policies: PolicyDatabase,
    flow: FlowSpec,
    selection: RouteSelectionPolicy = OPEN_SELECTION,
    excluded_links: FrozenSet[_LinkKey] = frozenset(),
    budget: int = DEFAULT_FALLBACK_BUDGET,
    stats: Optional[SynthesisStats] = None,
) -> Optional[Tuple[ADId, ...]]:
    """Exact best legal *simple path*, by branch-and-bound over paths.

    Complete and optimal within the expansion ``budget``; exponential in
    the worst case (the problem is NP-hard with required-AD and hop
    constraints), so the budget caps work and the best path found so far
    is returned when it runs out.  Bottleneck QOS classes dispatch to the
    widest-path variant.
    """
    if flow.qos.is_bottleneck:
        return _widest_exhaustive(
            graph, policies, flow, selection, excluded_links, budget, stats
        )
    if stats is not None:
        stats.fallback_runs += 1
    src, dst = flow.src, flow.dst
    if src == dst:
        return (src,)
    max_hops = selection.max_hops or graph.num_ads

    best_path: Optional[Tuple[ADId, ...]] = None
    best_cost = float("inf")
    # Heap entries: (cost so far, path).  Tuples of ints compare fine.
    heap: List[Tuple[float, Tuple[ADId, ...]]] = [(0.0, (src,))]
    expanded = 0
    transit = policies.transit_charge
    out_edges = _OutEdges(graph, flow, selection, excluded_links)
    charge_weight = selection.charge_weight

    while heap and expanded < budget:
        cost, path = heapq.heappop(heap)
        if cost >= best_cost:
            continue
        expanded += 1
        u = path[-1]
        p = path[-2] if len(path) > 1 else None
        if len(path) - 1 >= max_hops:
            continue
        for v, m in out_edges[u]:
            if v in path:
                continue
            bound = cost + m
            if bound >= best_cost:
                continue  # no charge can bring it below the best
            charge = 0.0 if u == src else transit(u, flow, p, v)
            if charge is None:
                continue
            ncost = bound + charge_weight * charge
            npath = path + (v,)
            if v == dst:
                if ncost < best_cost and selection.acceptable(npath):
                    best_cost = ncost
                    best_path = npath
            elif ncost < best_cost:
                heapq.heappush(heap, (ncost, npath))

    if stats is not None:
        stats.states_expanded += expanded
    return best_path


def _needs_fallback(
    path: Optional[Tuple[ADId, ...]], selection: RouteSelectionPolicy
) -> bool:
    """Whether the Dijkstra result must be re-derived exactly."""
    if path is None:
        # No legal walk exists => no legal path exists, unless required-AD
        # criteria were never consulted (they are post-hoc): requirement
        # sets don't create paths, so None is final.
        return False
    if len(set(path)) != len(path):
        return True
    return not selection.acceptable(path)


def synthesize_route(
    graph: InterADGraph,
    policies: PolicyDatabase,
    flow: FlowSpec,
    selection: RouteSelectionPolicy = OPEN_SELECTION,
    excluded_links: FrozenSet[_LinkKey] = frozenset(),
    fallback_budget: int = DEFAULT_FALLBACK_BUDGET,
    stats: Optional[SynthesisStats] = None,
) -> Optional[Route]:
    """Synthesise the preferred legal route for a flow, or ``None``.

    Fast path: constrained Dijkstra over (AD, previous) states.  Exact
    fallback when the walk optimum is loopy or violates hard selection
    criteria.  ``require_ads`` criteria always validate post-hoc, so a
    flow whose only legal routes miss a required AD yields ``None``.
    """
    path = constrained_dijkstra(
        graph, policies, flow, selection, excluded_links, stats
    )
    if _needs_fallback(path, selection):
        path = exhaustive_best_path(
            graph, policies, flow, selection, excluded_links, fallback_budget, stats
        )
    if path is None or not selection.acceptable(path):
        if stats is not None:
            stats.routes_failed += 1
        return None
    if stats is not None:
        stats.routes_found += 1
    return Route(
        path=path,
        flow=flow,
        cost=path_metric(graph, path, flow.qos),
        charges=route_charges(graph, policies, path, flow),
    )


def k_alternative_routes(
    graph: InterADGraph,
    policies: PolicyDatabase,
    flow: FlowSpec,
    k: int = 3,
    selection: RouteSelectionPolicy = OPEN_SELECTION,
    stats: Optional[SynthesisStats] = None,
) -> List[Route]:
    """Up to ``k`` distinct legal routes, best first (Yen-style pruning).

    The best route is computed, then each of its links is excluded in turn
    and synthesis re-run, accumulating distinct alternatives.  Source
    routing makes multiple routes per destination *feasible* without
    replicating routing tables (Section 5.4) -- this is the mechanism.
    """
    if k < 1:
        raise ValueError("k must be positive")
    best = synthesize_route(graph, policies, flow, selection, stats=stats)
    if best is None:
        return []
    found: Dict[Tuple[ADId, ...], Route] = {best.path: best}
    for a, b in zip(best.path, best.path[1:]):
        if len(found) >= k:
            break
        excluded = frozenset({(min(a, b), max(a, b))})
        alt = synthesize_route(
            graph, policies, flow, selection, excluded_links=excluded, stats=stats
        )
        if alt is not None and alt.path not in found:
            found[alt.path] = alt
    ranked = sorted(
        found.values(),
        key=lambda r: selection.rank_key(graph, r.path, flow.qos, r.charges),
    )
    return ranked[:k]


class RouteSynthesizer:
    """A Route Server's synthesis engine: graph + policies + counters.

    One synthesiser per ORWG Route Server (or per evaluation run); all
    queries funnel through it so work is accounted centrally.
    """

    def __init__(
        self,
        graph: InterADGraph,
        policies: PolicyDatabase,
        fallback_budget: int = DEFAULT_FALLBACK_BUDGET,
    ) -> None:
        self.graph = graph
        self.policies = policies
        self.fallback_budget = fallback_budget
        self.stats = SynthesisStats()

    def route(
        self,
        flow: FlowSpec,
        selection: RouteSelectionPolicy = OPEN_SELECTION,
    ) -> Optional[Route]:
        """Best legal route for a flow, or ``None``."""
        return synthesize_route(
            self.graph,
            self.policies,
            flow,
            selection,
            fallback_budget=self.fallback_budget,
            stats=self.stats,
        )

    def k_routes(
        self,
        flow: FlowSpec,
        k: int = 3,
        selection: RouteSelectionPolicy = OPEN_SELECTION,
    ) -> List[Route]:
        """Up to ``k`` alternatives, best first."""
        return k_alternative_routes(
            self.graph, self.policies, flow, k, selection, stats=self.stats
        )

    def verify(self, route: Route) -> bool:
        """Re-check a route's legality against current state."""
        return is_legal_path(self.graph, self.policies, route.path, route.flow)
