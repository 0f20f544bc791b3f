"""Plain link-state shortest path first: the policy-blind LS baseline.

The "new generation IGP" of Section 3 (OSPF/IS-IS style) lifted to the
AD level: flood link state, compute shortest paths, forward hop by hop
along each node's own SPF tree.  Loop freedom relies on all nodes
computing over identical LSDBs with identical tie-breaking.

Like the DV baseline it ignores policy entirely; under restrictive
scenarios its routes are fast, consistent -- and illegal.
"""

from __future__ import annotations

import heapq
from typing import Callable, ClassVar, Dict, List, Optional, Set, Sized, Tuple

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.protocols.base import ForwardingMode, RoutingProtocol
from repro.protocols.flooding import LSDBGenerations, LSNode
from repro.simul.network import SimNetwork

#: A link key: the canonical (smaller, larger) endpoint pair.
LinkKey = Tuple[ADId, ADId]


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


class IncrementalSPFState:
    """One root's SPF tree, repairable under edge deltas.

    Maintains ``dist`` and a *canonical parent* per reachable node; the
    first-hop table :func:`spf_next_hops` would produce is derived from
    the parents.  For strictly positive edge weights the operational
    oracle's tie-break is exactly canonical: every settled node's parent
    is the optimal predecessor minimising ``(dist[parent], parent)``
    (optimal parents settle strictly earlier, in lexicographic
    ``(dist, id)`` pop order, and the first to relax wins the strict
    ``<`` test).  That characterisation is what makes local repair
    possible -- parents can be recomputed from final distances alone.

    :meth:`apply` takes the link keys that may differ between two LSDB
    versions (from :meth:`~repro.protocols.flooding.LSNode.view_edge_changes`)
    and the current believed graph, and repairs just the affected region.
    The state keeps no graph: believed views are immutable values that a
    later LSDB state replaces (DESIGN section 4), so every call is handed
    the one to read, and old weights come from the state's own snapshot:

    * removed / worsened **tree** edges dirty the subtree hanging below
      them (non-tree removals and increases are provably no-ops);
    * dirty nodes are re-seeded with their best offer from clean
      neighbours; added / improved edges seed strict improvements;
    * a bounded Dijkstra settles the region, recomputing canonical
      parents from final distances, with equal-cost offers to *clean*
      nodes handled as pure parent swaps.

    Any situation outside the proof -- a zero-weight edge (metric-lie
    misbehavior advertises zeroed metrics), a change batch touching a
    large fraction of the graph -- falls back to a full recompute.
    """

    __slots__ = ("root", "metric", "dist", "parent", "_weights", "_zero",
                 "full_recomputes", "repairs")

    def __init__(self, graph: InterADGraph, root: ADId, metric: str) -> None:
        self.root = root
        self.metric = metric
        self.full_recomputes = 0
        self.repairs = 0
        self.full_recompute(graph)

    def full_recompute(self, graph: InterADGraph) -> None:
        """Rebuild distances, parents, and the weight snapshot from scratch."""
        root, metric = self.root, self.metric
        weights: Dict[LinkKey, float] = {}
        zero = False
        for link in graph.links(include_down=False):
            w = link.metrics.get(metric, 1.0)
            weights[link.key] = w
            if w <= 0.0:
                zero = True
        self._weights = weights
        self._zero = zero
        dist: Dict[ADId, float] = {root: 0.0}
        parent: Dict[ADId, ADId] = {}
        heap: List[Tuple[float, ADId, ADId]] = [(0.0, root, root)]
        done: Set[ADId] = set()
        inf = float("inf")
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            d, u, p = pop(heap)
            if u in done:
                continue
            done.add(u)
            if u != root:
                parent[u] = p
            for link in graph.links_of(u):
                v = link.b if link.a == u else link.a
                if v in done:
                    continue
                nd = d + link.metrics.get(metric, 1.0)
                if nd < dist.get(v, inf):
                    dist[v] = nd
                    push(heap, (nd, v, u))
        self.dist = dist
        self.parent = parent
        self.full_recomputes += 1

    def apply(self, keys: List[LinkKey], graph: InterADGraph) -> None:
        """Bring the tree up to date with ``graph``, which may differ from
        the graph last seen on the given links only.

        Each key's old weight comes from the internal snapshot and its new
        weight from ``graph`` (absent or down -> gone), so over-reporting
        unchanged keys is harmless.
        """
        metric, weights = self.metric, self._weights
        changes: List[Tuple[LinkKey, Optional[float], Optional[float]]] = []
        seen: Set[LinkKey] = set()
        for key in keys:
            if key in seen:
                continue
            seen.add(key)
            old_w = weights.get(key)
            link = graph.link_if_exists(key[0], key[1])
            new_w: Optional[float] = None
            if link is not None and link.up:
                new_w = link.metrics.get(metric, 1.0)
            if new_w == old_w:
                continue
            changes.append((key, old_w, new_w))
            if new_w is None:
                del weights[key]
            else:
                weights[key] = new_w
                if new_w <= 0.0:
                    self._zero = True
        if not changes:
            return
        if self._zero:
            # Outside the strictly-positive-weights proof: stay exact by
            # running the oracle until the zero-weight edges heal.
            self.full_recompute(graph)
            return
        if len(changes) * 4 > max(32, len(weights)):
            self.full_recompute(graph)
            return
        self._repair(changes, graph)

    def _repair(
        self,
        changes: List[Tuple[LinkKey, Optional[float], Optional[float]]],
        graph: InterADGraph,
    ) -> None:
        dist, parent, root = self.dist, self.parent, self.root
        metric = self.metric
        # Phase A: dirty the subtrees below worsened/removed tree edges.
        # (A worsened or removed non-tree edge changes nothing: clean
        # distances ride intact tree paths, and since the edge was not
        # optimal before it cannot have become optimal by worsening.)
        children: Dict[ADId, List[ADId]] = {}
        for v, p in parent.items():
            children.setdefault(p, []).append(v)
        dirty: Set[ADId] = set()
        stack: List[ADId] = []
        for (a, b), old_w, new_w in changes:
            if new_w is not None and (old_w is None or new_w < old_w):
                continue  # improvement: handled by seeding below
            if parent.get(b) == a:
                stack.append(b)
            elif parent.get(a) == b:
                stack.append(a)
        while stack:
            v = stack.pop()
            if v in dirty:
                continue
            dirty.add(v)
            stack.extend(children.get(v, ()))
        for v in dirty:
            del dist[v]
            del parent[v]
        heap: List[Tuple[float, ADId]] = []
        push, pop = heapq.heappush, heapq.heappop
        # Phase B seeds: each dirty node's best offer from a clean
        # neighbour (a valid path length; possibly not yet final -- the
        # neighbour re-relaxes at its own settle if it improves) ...
        for v in dirty:
            best: Optional[float] = None
            for link in graph.links_of(v):
                u = link.b if link.a == v else link.a
                if u in dirty:
                    continue
                du = dist.get(u)
                if du is None:
                    continue
                cand = du + link.metrics.get(metric, 1.0)
                if best is None or cand < best:
                    best = cand
            if best is not None:
                dist[v] = best
                push(heap, (best, v))
        # ... plus strict improvements through added/improved edges, and
        # equal-cost parent swaps for clean nodes.
        for (a, b), old_w, new_w in changes:
            if new_w is None or (old_w is not None and new_w >= old_w):
                continue
            for u, v in ((a, b), (b, a)):
                if u in dirty:
                    continue
                du = dist.get(u)
                if du is None:
                    continue
                nd = du + new_w
                dv = dist.get(v)
                if dv is None or nd < dv:
                    dist[v] = nd
                    push(heap, (nd, v))
                elif nd == dv and v != root and v not in dirty:
                    pv = parent.get(v)
                    if pv is not None and (du, u) < (dist[pv], pv):
                        parent[v] = u
        # Bounded Dijkstra over the affected region.  Invariant: when a
        # non-stale (nd, v) pops, every node with a smaller distance is
        # final, so canonical parents are computable from dist alone.
        settled: Set[ADId] = set()
        while heap:
            nd, v = pop(heap)
            if v in settled:
                continue
            dv = dist.get(v)
            if dv is None or nd > dv:
                continue  # stale entry
            settled.add(v)
            if v != root:
                best_u: Optional[Tuple[float, ADId]] = None
                for link in graph.links_of(v):
                    u = link.b if link.a == v else link.a
                    du = dist.get(u)
                    if du is None:
                        continue
                    if du + link.metrics.get(metric, 1.0) == nd:
                        if best_u is None or (du, u) < best_u:
                            best_u = (du, u)
                if best_u is None:  # pragma: no cover - escape hatch
                    self.full_recompute(graph)
                    return
                parent[v] = best_u[1]
            for link in graph.links_of(v):
                u = link.b if link.a == v else link.a
                if u in settled:
                    continue
                nu = nd + link.metrics.get(metric, 1.0)
                du = dist.get(u)
                if du is None or nu < du:
                    dist[u] = nu
                    push(heap, (nu, u))
                elif nu == du and u != root and u not in dirty:
                    pu = parent.get(u)
                    if pu is not None and (nd, v) < (dist[pu], pu):
                        parent[u] = v
        self.repairs += 1

    def first_hops(self) -> Dict[ADId, ADId]:
        """Derive the destination -> first hop table from the parents.

        Identical to what :func:`spf_next_hops` returns for the same
        graph: the ``via`` labels it propagates satisfy exactly
        ``via(v) = v if parent(v) == root else via(parent(v))``.
        """
        parent, root = self.parent, self.root
        first: Dict[ADId, ADId] = {}
        for v in parent:
            x = v
            chain: List[ADId] = []
            while x not in first:
                p = parent[x]
                if p == root:
                    first[x] = x
                    break
                chain.append(x)
                x = p
            for y in reversed(chain):
                first[y] = first[parent[y]]
        return first

    def first_hop(self, dest: ADId) -> Optional[ADId]:
        """``first_hops().get(dest)`` by one walk up the parents.

        What a prober asks for -- one destination per tree version --
        without deriving the other entries.
        """
        parent, root = self.parent, self.root
        p = parent.get(dest)
        while p is not None and p != root:
            dest = p
            p = parent[p]
        return None if p is None else dest


class SPFNode(LSNode):
    """LS node with per-QOS SPF next-hop tables."""

    def __init__(self, ad_id: ADId, generations: LSDBGenerations) -> None:
        super().__init__(
            ad_id, own_terms=(), include_terms=False, generations=generations
        )
        #: qos -> (db version computed at, destination -> first hop lookup,
        #: number of destinations it answers for).
        self._tables: Dict[
            QOS, Tuple[int, Callable[[ADId], Optional[ADId]], Sized]
        ] = {}
        #: metric -> (view version the state is synced to, repairable tree).
        self._spf_states: Dict[str, Tuple[int, IncrementalSPFState]] = {}

    def next_hop_to(self, dest: ADId, qos: QOS) -> Optional[ADId]:
        if qos.is_bottleneck:
            # The 1990 LS baseline repeats additive SPF per metric; it has
            # no widest-path mode, so bandwidth traffic rides the default
            # table (honest era behaviour).
            qos = QOS.DEFAULT
        cached = self._tables.get(qos)
        if cached is None or cached[0] != self.db_version:
            profiler = self.profiler
            if profiler is None:
                lookup, entries = self._compute_table(qos)
            else:
                with profiler.phase("proto.spf"):
                    lookup, entries = self._compute_table(qos)
            self._tables[qos] = (self.db_version, lookup, entries)
            self.note_computation("spf")
        else:
            lookup = cached[1]
        return lookup(dest)

    def _compute_table(
        self, qos: QOS
    ) -> Tuple[Callable[[ADId], Optional[ADId]], Sized]:
        """Sync the QOS's tree to the view: (first-hop lookup, its entries)."""
        graph, _ = self.local_view()
        metric = qos.metric
        if not self.perf.incremental_spf:
            table = spf_next_hops(graph, self.ad_id, metric)
            return table.get, table
        entry = self._spf_states.get(metric)
        state: Optional[IncrementalSPFState] = None
        if entry is not None:
            changes = self.view_edge_changes(entry[0])
            if changes is not None:
                state = entry[1]
                state.apply(changes, graph)
        if state is None:
            state = IncrementalSPFState(graph, self.ad_id, metric)
        self._spf_states[metric] = (self.db_version, state)
        # The first hop is walked per asked destination, not derived for
        # all of them: a prober asks for one per tree version.
        return state.first_hop, state.parent

    def table_size(self) -> int:
        return sum(len(t[2]) for t in self._tables.values())


class PlainLinkStateProtocol(RoutingProtocol):
    """Driver for the plain LS baseline."""

    name: ClassVar[str] = "plain-ls"
    design_point = None
    mode = ForwardingMode.HOP_BY_HOP
    policy_aware: ClassVar[bool] = False
    #: Plain SPF forwards on destination and QOS metric choice.
    fib_key_fields: ClassVar[Tuple[str, ...]] = ("src", "dst", "qos")

    def __init__(self, graph, policies) -> None:
        super().__init__(graph, policies)
        self.generations = LSDBGenerations()

    def _make_nodes(self, network: SimNetwork) -> None:
        for ad_id in self.graph.ad_ids():
            network.add_node(SPFNode(ad_id, self.generations))

    def next_hop(
        self, ad_id: ADId, flow: FlowSpec, prev: Optional[ADId]
    ) -> Optional[ADId]:
        node = self.network.node(ad_id)
        assert isinstance(node, SPFNode)
        return node.next_hop_to(flow.dst, flow.qos)

    def rib_size(self, ad_id: ADId) -> int:
        node = self.network.node(ad_id)
        assert isinstance(node, SPFNode)
        # LSDB entries are the protocol's routing information state.
        return len(node.lsdb)
