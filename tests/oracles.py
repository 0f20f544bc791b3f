"""Reference implementations the fast paths are compared against.

Each oracle is the plain version of a production path, kept here (not in
``src/``) because only tests call it:

* the four policy-constrained searches as they were before the synthesis
  kernel: every relaxation walks ``graph.links_of``, applies every filter
  per state and asks the policy database before comparing labels.
  ``tests/test_synthesis_kernel.py`` requires identical paths and
  :class:`~repro.core.synthesis.SynthesisStats` from the kernel;
* :func:`scan_permitting_term`, the linear term scan the indexed policy
  engine must cite identically;
* :func:`spf_next_hops`, the full Dijkstra whose first-hop table
  :class:`~repro.protocols.spf.IncrementalSPFState` must derive exactly;
* :func:`valley_free_shortest_path`, the early-exit search per (source,
  destination) whose answer every
  :class:`~repro.protocols.variants.ValleyFreeSearch` destination must
  equal (``tests/test_valley_free_search.py``);
* :func:`forward_verdict`, one modelled packet forwarded hop by hop
  against ground truth, written apart from ``RoutingProtocol.walk``:
  the compiled FIB's verdict on every class must be its verdict
  (``tests/test_traffic_fib.py``, ``tests/test_traffic_replay.py``);
* :func:`nx_graph`, the networkx export of an
  :class:`~repro.adgraph.graph.InterADGraph`; :func:`legal_simple_paths`,
  every policy-legal simple path it holds for a flow, with its two
  reducers :func:`brute_force_best` (cheapest) and
  :func:`brute_force_widest` (widest bottleneck), which synthesis must
  match (``tests/test_core_synthesis.py``,
  ``tests/test_core_bandwidth.py``); and the networkx forms of the
  fault planners' candidate lists, connectivity and EGP's forest test,
  which the in-tree DFS/BFS must answer identically
  (``tests/test_graph_cut_points.py``);
* :func:`idrp_selection`, IDRP's decision process as one pass over the
  per-peer Adj-RIB-Ins with the rank spelled out as a tuple, which every
  Loc-RIB entry must equal (``tests/test_idrp_rib.py``), and
  :func:`idrp_export_scope`, IDRP's export scope as a scan of the own
  terms with ``matches_except_source``, which the compiled transit rows
  must answer identically (``tests/test_idrp_export_scope.py``);
* :func:`reference_frame` (over :func:`framed`), one ``json.dumps`` of a
  whole frame envelope, which every ``encode_frame`` output must equal
  byte for byte, memo cold or warm, container spliced or not
  (``tests/test_wire_frame_path.py``);
* :func:`reference_broadcast`, one ``send`` per live neighbour, the loop
  every substrate's ``Transport.broadcast`` must match delivery for
  delivery (``tests/test_message_path.py``).
"""

from __future__ import annotations

import heapq
import json
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

import networkx as nx

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.adgraph.partial_order import Direction, PartialOrder
from repro.core.synthesis import DEFAULT_FALLBACK_BUDGET, SynthesisStats
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.legality import is_legal_path, path_cost, path_metric
from repro.policy.qos import QOS
from repro.policy.selection import OPEN_SELECTION, RouteSelectionPolicy
from repro.policy.sets import ADSet
from repro.policy.terms import PolicyTerm
from repro.protocols.base import (
    DEAD_LINK,
    DELIVERED,
    HOP_BUDGET,
    LOOP,
    NO_ROUTE,
    POLICY_DROP,
    ForwardingMode,
    RoutingProtocol,
)
from repro.protocols.idrp import TEMPLATE_HOUR, TEMPLATE_UCI, IDRPNode, _Key, _LocEntry
from repro.simul.wire import to_wire

_LinkKey = Tuple[ADId, ADId]
_State = Tuple[ADId, Optional[ADId]]


def reference_frame(src, dst, msg, version: int) -> bytes:
    """The pre-memo encoder: one ``json.dumps`` of the whole envelope."""
    envelope = {"s": src, "d": dst, "m": to_wire(msg, version=version)}
    if version > 1:
        envelope["v"] = version
    return framed(envelope)


def framed(envelope, **dumps_options) -> bytes:
    """A length-prefixed frame around ``json.dumps(envelope)`` (canonical
    options unless overridden)."""
    options = dict(sort_keys=True, separators=(",", ":"))
    options.update(dumps_options)
    body = json.dumps(envelope, **options).encode("utf-8")
    return len(body).to_bytes(4, "big") + body


def reference_broadcast(transport, src, msg, exclude=None) -> None:
    """The loop ``Transport.broadcast`` replaced, verbatim."""
    for nbr in transport.neighbors(src):
        if nbr != exclude:
            transport.send(src, nbr, msg)


def scan_permitting_term(
    db: PolicyDatabase, ad_id: ADId, flow: FlowSpec, prev: ADId, nxt: ADId
) -> Optional[PolicyTerm]:
    """The first term of ``ad_id`` permitting the traversal, by linear scan.

    The seed semantics of :meth:`PolicyDatabase.permitting_term`; its
    signature lets tests monkeypatch it over that method.
    """
    for term in db.terms_of(ad_id):
        if term.permits(flow, prev, nxt):
            return term
    return None


def spf_next_hops(
    graph: InterADGraph, root: ADId, metric: str
) -> Dict[ADId, ADId]:
    """Dijkstra from ``root``: destination -> first hop, deterministic.

    Ties break toward the lexicographically smaller (cost, dest, parent)
    labels, so every node with the same view produces the same trees.
    """
    dist: Dict[ADId, float] = {root: 0.0}
    first: Dict[ADId, ADId] = {}
    heap = [(0.0, root, root)]
    done = set()
    inf = float("inf")
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u, via = pop(heap)
        if u in done:
            continue
        done.add(u)
        if u != root:
            first[u] = via
        for link in graph.links_of(u):
            v = link.b if link.a == u else link.a
            if v in done:
                continue
            nd = d + link.metrics.get(metric, 1.0)
            if nd < dist.get(v, inf):
                dist[v] = nd
                nxt_via = v if u == root else via
                push(heap, (nd, v, nxt_via))
    return first


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


def forward_verdict(
    protocol: RoutingProtocol, flow: FlowSpec, enforce_policy: bool = True
) -> Tuple[int, Tuple[ADId, ...]]:
    """Send one modelled packet for ``flow``: (verdict code, path taken).

    Each hop asks the protocol for the decision (or reads the source
    route), then checks the link exists and is up, then -- at a transit,
    with ``enforce_policy`` -- that the transit's own terms permit the
    traversal, and only then looks for a revisit: first failure wins.
    """
    graph, permits = protocol.graph, protocol.policies.transit_permits
    if flow.src == flow.dst:
        return DELIVERED, (flow.src,)
    route = None
    if protocol.mode is ForwardingMode.SOURCE:
        route = protocol.source_route(flow)
        if route is None:
            return NO_ROUTE, (flow.src,)
    path: List[ADId] = [flow.src]
    prev: Optional[ADId] = None
    for _ in range(graph.num_ads):
        current = path[-1]
        nxt = route[len(path)] if route is not None else protocol.next_hop(current, flow, prev)
        if nxt is None:
            return NO_ROUTE, tuple(path)
        link = graph.link_if_exists(current, nxt)
        if link is None or not link.up:
            return DEAD_LINK, tuple(path)
        if enforce_policy and prev is not None and not permits(current, flow, prev, nxt):
            return POLICY_DROP, tuple(path)
        if route is None and nxt in path:
            return LOOP, tuple(path) + (nxt,)
        path.append(nxt)
        if nxt == flow.dst if route is None else len(path) == len(route):
            return DELIVERED, tuple(path)
        prev = current
    return HOP_BUDGET, tuple(path)


# ------------------------------------------------------ networkx, test-only


def nx_graph(graph: InterADGraph, live_only: bool = True) -> nx.Graph:
    """A networkx graph of ``graph`` (live links only by default); edges
    carry the link's kind and metrics."""
    g = nx.Graph()
    g.add_nodes_from(graph.ad_ids())
    for ln in graph.links(include_down=not live_only):
        g.add_edge(ln.a, ln.b, kind=ln.kind, **ln.metrics)
    return g


def legal_simple_paths(
    graph: InterADGraph, policies: PolicyDatabase, flow: FlowSpec
) -> Iterator[List[ADId]]:
    """Every policy-legal simple path for ``flow`` over live links, by
    brute-force enumeration."""
    nxg = nx_graph(graph)
    if flow.src not in nxg or flow.dst not in nxg:
        return
    for path in nx.all_simple_paths(nxg, flow.src, flow.dst):
        if is_legal_path(graph, policies, path, flow):
            yield path


def brute_force_best(
    graph: InterADGraph, policies: PolicyDatabase, flow: FlowSpec
) -> Optional[Tuple[float, Tuple[ADId, ...]]]:
    """``(cost, path)`` of the cheapest legal simple path, or ``None``."""
    best = None
    for path in legal_simple_paths(graph, policies, flow):
        cost = path_cost(graph, path, flow.qos.metric)
        if best is None or cost < best[0]:
            best = (cost, tuple(path))
    return best


def brute_force_widest(
    graph: InterADGraph, policies: PolicyDatabase, flow: FlowSpec
) -> Optional[float]:
    """The widest bottleneck of any legal simple path, or ``None``."""
    best = None
    for path in legal_simple_paths(graph, policies, flow):
        width = path_metric(graph, path, flow.qos)
        if best is None or width > best:
            best = width
    return best


def nx_safe_failure_candidates(graph: InterADGraph) -> List[_LinkKey]:
    """Live non-bridge link keys in ``graph.links()`` order, by networkx."""
    bridges = {tuple(sorted(e)) for e in nx.bridges(nx_graph(graph))}
    return [ln.key for ln in graph.links(include_down=False) if ln.key not in bridges]


def nx_crash_candidates(graph: InterADGraph) -> List[ADId]:
    """Non-articulation ADs in ``graph.ad_ids()`` order, by networkx."""
    cut = set(nx.articulation_points(nx_graph(graph)))
    return [ad_id for ad_id in graph.ad_ids() if ad_id not in cut]


def nx_is_connected(graph: InterADGraph, live_only: bool = True) -> bool:
    """Whether the (live) graph is one component (or empty), by networkx."""
    g = nx_graph(graph, live_only)
    return g.number_of_nodes() == 0 or nx.is_connected(g)


def nx_is_forest(graph: InterADGraph) -> bool:
    """EGP's old cycle check: the live graph has no cycle basis."""
    return not nx.cycle_basis(nx_graph(graph))


# ------------------------------------------------------- IDRP decision process


def idrp_selection(node: IDRPNode, key: _Key) -> Optional[_LocEntry]:
    """The best usable candidate for ``key`` over every peer's table, peers
    in ascending id order, ranked by ``(metric, len(path), -plausible_size,
    path)``, the first of equal ranks winning."""
    me, cls_set, ranked = node.ad_id, node.class_sets[key[2]], []
    for nbr in sorted(node.rib_in):
        ad, link = node.rib_in[nbr].get(key), node.transport.graph.link_if_exists(me, nbr)
        if ad is None or link is None or not link.up or me in ad.path:
            continue
        if node._candidate_usable(ad) and not ad.allowed.intersect(cls_set).is_empty:
            metric = ad.metric + link.metric(key[1].metric)
            rank = (metric, len(ad.path), -ad.allowed.plausible_size(), ad.path)
            ranked.append((rank, nbr, ad))
    for rank, nbr, ad in sorted(ranked, key=lambda r: r[0])[:1]:  # stable sort
        return _LocEntry(nbr, (me,) + ad.path, rank[0], ad.allowed)
    return None


def idrp_export_scope(
    node: IDRPNode, entry: _LocEntry, dest: ADId, qos: QOS, to_nbr: ADId, cls: int = 0
) -> ADSet:
    """The source scope ``node`` exports ``entry`` to ``to_nbr`` with: the
    union of the sources of every own term matching the traversal at the
    flow template, narrowed by the downstream scope and the class."""
    if dest == node.ad_id:
        return node.class_sets[cls]
    permitted = ADSet.none()
    for term in node.own_terms:
        if term.matches_except_source(dest, to_nbr, entry.via, qos, TEMPLATE_UCI, TEMPLATE_HOUR):
            if not node.source_scope:
                return ADSet.everyone()  # BGP-2: any matching term exports
            permitted = permitted.union(term.sources)
    return entry.allowed.intersect(permitted).intersect(node.class_sets[cls])


# ------------------------------------------------- the four searches, verbatim


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
    metric = flow.qos.metric

    width: Dict[_State, float] = {(src, None): float("inf")}
    parent: Dict[_State, Optional[_State]] = {(src, None): None}
    heap: List[Tuple[float, ADId, Optional[ADId]]] = [(-float("inf"), src, None)]
    expanded = 0
    goal: Optional[_State] = None
    transit = policies.transit_charge

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
        for link in graph.links_of(u):
            v = link.other(u)
            if v == p or v == src:
                continue
            if (min(u, v), max(u, v)) in excluded_links:
                continue
            if v != dst and not selection.permits_node(v):
                continue
            if u != src and transit(u, flow, p, v) is None:
                continue
            nw = min(w, link.metric(metric))
            nstate = (v, u)
            if nw > width.get(nstate, 0.0):
                width[nstate] = nw
                parent[nstate] = state
                heapq.heappush(heap, (-nw, v, u))

    if stats is not None:
        stats.states_expanded += expanded
    if goal is None:
        return None
    path: List[ADId] = []
    cursor: Optional[_State] = goal
    while cursor is not None:
        path.append(cursor[0])
        cursor = parent[cursor]
    path.reverse()
    return tuple(path)


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
    metric = flow.qos.metric

    dist: Dict[_State, float] = {(src, None): 0.0}
    parent: Dict[_State, Optional[_State]] = {(src, None): None}
    heap: List[Tuple[float, ADId, Optional[ADId]]] = [(0.0, src, None)]
    expanded = 0
    goal: Optional[_State] = None
    transit = policies.transit_charge

    while heap:
        d, u, p = heapq.heappop(heap)
        state = (u, p)
        if d > dist.get(state, float("inf")):
            continue
        expanded += 1
        if u == dst:
            goal = state
            break
        for link in graph.links_of(u):
            v = link.other(u)
            if v == p or v == src:
                continue
            if (min(u, v), max(u, v)) in excluded_links:
                continue
            if v != dst and not selection.permits_node(v):
                continue
            charge = 0.0 if u == src else transit(u, flow, p, v)
            if charge is None:
                continue
            weight = link.metric(metric) + selection.charge_weight * charge
            nd = d + weight
            nstate = (v, u)
            if nd < dist.get(nstate, float("inf")):
                dist[nstate] = nd
                parent[nstate] = state
                heapq.heappush(heap, (nd, v, u))

    if stats is not None:
        stats.states_expanded += expanded
    if goal is None:
        return None
    path: List[ADId] = []
    cursor: Optional[_State] = goal
    while cursor is not None:
        path.append(cursor[0])
        cursor = parent[cursor]
    path.reverse()
    return tuple(path)


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
    metric = flow.qos.metric
    max_hops = selection.max_hops or graph.num_ads

    best_path: Optional[Tuple[ADId, ...]] = None
    best_width = 0.0
    heap: List[Tuple[float, Tuple[ADId, ...]]] = [(-float("inf"), (src,))]
    expanded = 0
    transit = policies.transit_charge
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
        for link in graph.links_of(u):
            v = link.other(u)
            if v in path:
                continue
            if (min(u, v), max(u, v)) in excluded_links:
                continue
            if v != dst and not selection.permits_node(v):
                continue
            if u != src and transit(u, flow, p, v) is None:
                continue
            nw = min(w, link.metric(metric))
            npath = path + (v,)
            if v == dst:
                if nw > best_width and selection.acceptable(npath):
                    best_width = nw
                    best_path = npath
            elif nw > best_width:
                heapq.heappush(heap, (-nw, npath))
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
    metric = flow.qos.metric
    max_hops = selection.max_hops or graph.num_ads

    best_path: Optional[Tuple[ADId, ...]] = None
    best_cost = float("inf")
    # Heap entries: (cost so far, path).  Tuples of ints compare fine.
    heap: List[Tuple[float, Tuple[ADId, ...]]] = [(0.0, (src,))]
    expanded = 0
    transit = policies.transit_charge

    while heap and expanded < budget:
        cost, path = heapq.heappop(heap)
        if cost >= best_cost:
            continue
        expanded += 1
        u = path[-1]
        p = path[-2] if len(path) > 1 else None
        if len(path) - 1 >= max_hops:
            continue
        for link in graph.links_of(u):
            v = link.other(u)
            if v in path:
                continue
            if (min(u, v), max(u, v)) in excluded_links:
                continue
            if v != dst and not selection.permits_node(v):
                continue
            charge = 0.0 if u == src else transit(u, flow, p, v)
            if charge is None:
                continue
            ncost = cost + link.metric(metric) + selection.charge_weight * charge
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
