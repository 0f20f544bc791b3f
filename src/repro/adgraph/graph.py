"""Typed inter-AD topology graph.

:class:`InterADGraph` holds AD/link value types in plain dicts behind the
small query surface the protocols need: neighbours, live links, link
lookup, status changes, and deterministic iteration order.  The three
whole-graph questions the fault planners and EGP ask -- bridges,
articulation ADs, connected components -- are answered here by one DFS
and one BFS, so no run imports a graph library.

Protocols treat the graph as ground truth for *physical* connectivity; what
each protocol node actually *knows* about the topology is up to the
protocol (DV nodes only ever see their neighbours, LS nodes flood).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.adgraph.ad import (
    AD,
    ADId,
    ADKind,
    InterADLink,
    Level,
    LinkKind,
    canonical_link_key,
    intern_ad_id,
)


class InterADGraph:
    """The inter-AD topology: ADs as nodes, inter-AD links as edges.

    The graph is undirected.  Iteration orders (``ads()``, ``links()``,
    ``neighbors()``) are deterministic: sorted by AD id / link key, so that
    simulations are reproducible run to run.
    """

    def __init__(self) -> None:
        self._ads: Dict[ADId, AD] = {}
        self._links: Dict[Tuple[ADId, ADId], InterADLink] = {}
        # Per-AD adjacency (neighbour -> link) and a lazily built sorted
        # incident-link cache.  Both are structure-only: link *status*
        # changes need no invalidation (every reader filters ``up`` per
        # call), only add_link/remove_link do.
        self._adj: Dict[ADId, Dict[ADId, InterADLink]] = {}
        self._incident: Dict[ADId, Tuple[InterADLink, ...]] = {}

    # ------------------------------------------------------------------ ADs

    def add_ad(self, ad: AD) -> AD:
        """Register an AD.  Raises ``ValueError`` on duplicate id."""
        if ad.ad_id in self._ads:
            raise ValueError(f"duplicate AD id {ad.ad_id}")
        ad_id = intern_ad_id(ad.ad_id)
        self._ads[ad_id] = ad
        self._adj[ad_id] = {}
        return ad

    def ad(self, ad_id: ADId) -> AD:
        """Look up an AD by id."""
        return self._ads[ad_id]

    def has_ad(self, ad_id: ADId) -> bool:
        return ad_id in self._ads

    def ads(self) -> List[AD]:
        """All ADs, sorted by id."""
        return [self._ads[i] for i in sorted(self._ads)]

    def ad_ids(self) -> List[ADId]:
        """All AD ids, sorted."""
        return sorted(self._ads)

    def ads_by_level(self, level: Level) -> List[AD]:
        return [a for a in self.ads() if a.level == level]

    def transit_ads(self) -> List[AD]:
        """ADs whose kind permits carrying third-party traffic."""
        return [a for a in self.ads() if a.kind.may_transit]

    def stub_ads(self) -> List[AD]:
        """ADs that never carry transit traffic (stub + multi-homed)."""
        return [a for a in self.ads() if not a.kind.may_transit]

    @property
    def num_ads(self) -> int:
        return len(self._ads)

    # ---------------------------------------------------------------- links

    def add_link(self, link: InterADLink) -> InterADLink:
        """Register a link.  Both endpoints must already exist."""
        for end in (link.a, link.b):
            if end not in self._ads:
                raise ValueError(f"link endpoint AD {end} not in graph")
        if link.key in self._links:
            raise ValueError(f"duplicate link {link.key}")
        self._links[link.key] = link
        self._adj[link.a][link.b] = link
        self._adj[link.b][link.a] = link
        self._incident.pop(link.a, None)
        self._incident.pop(link.b, None)
        return link

    def remove_link(self, a: ADId, b: ADId) -> InterADLink:
        """Delete a link entirely (endpoints stay).  ``KeyError`` if absent."""
        link = self._links.pop(canonical_link_key(a, b))
        del self._adj[link.a][link.b]
        del self._adj[link.b][link.a]
        self._incident.pop(link.a, None)
        self._incident.pop(link.b, None)
        return link

    def connect(
        self,
        a: ADId,
        b: ADId,
        kind: LinkKind = LinkKind.HIERARCHICAL,
        metrics: Optional[Dict[str, float]] = None,
    ) -> InterADLink:
        """Convenience: build and add a link in one call."""
        return self.add_link(InterADLink(a, b, kind, dict(metrics or {})))

    def link(self, a: ADId, b: ADId) -> InterADLink:
        """Look up the link between two ADs (order-insensitive)."""
        return self._links[canonical_link_key(a, b)]

    def link_if_exists(self, a: ADId, b: ADId) -> Optional[InterADLink]:
        """The link between two ADs, or ``None`` (no tuple allocation)."""
        adj = self._adj.get(a)
        return None if adj is None else adj.get(b)

    def has_link(self, a: ADId, b: ADId) -> bool:
        adj = self._adj.get(a)
        return adj is not None and b in adj

    def links(self, include_down: bool = True) -> List[InterADLink]:
        """All links in canonical key order; optionally only live ones."""
        out = [self._links[k] for k in sorted(self._links)]
        if not include_down:
            out = [ln for ln in out if ln.up]
        return out

    def incident(self, ad_id: ADId) -> Tuple[InterADLink, ...]:
        """Every link incident to ``ad_id``, up or down, sorted by neighbour.

        The cached tuple itself, not a copy: the per-message fan-out scans
        it and reads each ``link.up`` as it goes, so a status change (even
        a direct ``link.up = ...`` write) is seen by the very next scan.
        """
        inc = self._incident.get(ad_id)
        if inc is None:
            adj = self._adj[ad_id]
            inc = tuple(adj[nbr] for nbr in sorted(adj))
            self._incident[ad_id] = inc
        return inc

    def links_of(self, ad_id: ADId, include_down: bool = False) -> List[InterADLink]:
        """Links incident to ``ad_id`` (live only by default), sorted."""
        # SPF and synthesis call this once per node expansion: read the
        # cache here and pay the extra call only to fill it.
        inc = self._incident.get(ad_id)
        if inc is None:
            inc = self.incident(ad_id)
        if include_down:
            return list(inc)
        return [ln for ln in inc if ln.up]

    def neighbors(self, ad_id: ADId, include_down: bool = False) -> List[ADId]:
        """Neighbouring AD ids over live links (sorted)."""
        return [
            ln.b if ln.a == ad_id else ln.a
            for ln in self.links_of(ad_id, include_down)
        ]

    def degree(self, ad_id: ADId) -> int:
        """Number of live incident links."""
        return len(self.links_of(ad_id))

    @property
    def num_links(self) -> int:
        return len(self._links)

    def set_link_status(self, a: ADId, b: ADId, up: bool) -> InterADLink:
        """Mark a link up or down; returns the link."""
        ln = self.link(a, b)
        ln.up = up
        return ln

    # ------------------------------------------------------------- analysis

    def cut_points(self) -> Tuple[Set[Tuple[ADId, ADId]], Set[ADId]]:
        """Bridges (link keys) and articulation ADs of the live topology.

        One iterative lowlink DFS over live links: a tree link into
        ``child`` is a bridge iff no back link from ``child``'s subtree
        reaches above it (``low[child] > disc[parent]``); a non-root AD is
        a cut point iff some child's subtree reaches no higher than it
        (``low[child] >= disc[ad]``), a DFS root iff it has two or more
        children.  Both sets are properties of the graph, so the visiting
        order does not matter.
        """
        disc: Dict[ADId, int] = {}
        low: Dict[ADId, int] = {}
        bridges: Set[Tuple[ADId, ADId]] = set()
        cut: Set[ADId] = set()
        for root in self._ads:
            if root in disc:
                continue
            disc[root] = low[root] = len(disc)
            root_children = 0
            # Frames: (AD, tree link it was entered by, its live links left).
            stack = [(root, None, iter(self.links_of(root)))]
            while stack:
                ad, via, links = stack[-1]
                for ln in links:
                    if ln is via:
                        continue
                    nbr = ln.other(ad)
                    if nbr in disc:
                        if disc[nbr] < low[ad]:
                            low[ad] = disc[nbr]
                    else:
                        disc[nbr] = low[nbr] = len(disc)
                        stack.append((nbr, ln, iter(self.links_of(nbr))))
                        break
                else:
                    stack.pop()
                    if not stack:
                        continue
                    parent = stack[-1][0]
                    if low[ad] < low[parent]:
                        low[parent] = low[ad]
                    if low[ad] > disc[parent]:
                        bridges.add(via.key)
                    if low[ad] >= disc[parent]:
                        if parent == root:
                            root_children += 1
                        else:
                            cut.add(parent)
            if root_children > 1:
                cut.add(root)
        return bridges, cut

    def component_count(self, live_only: bool = True) -> int:
        """Connected components of the (live) topology, by BFS."""
        seen: Set[ADId] = set()
        count = 0
        for start in self._ads:
            if start in seen:
                continue
            count += 1
            seen.add(start)
            frontier = [start]
            while frontier:
                for nbr, ln in self._adj[frontier.pop()].items():
                    if nbr not in seen and (ln.up or not live_only):
                        seen.add(nbr)
                        frontier.append(nbr)
        return count

    def is_connected(self, live_only: bool = True) -> bool:
        """Whether the (live) topology is a single connected component."""
        return self.component_count(live_only) <= 1

    def is_forest(self) -> bool:
        """Whether the live topology has no cycle: a graph is a forest iff
        it has exactly (ADs - components) links."""
        live = sum(1 for ln in self._links.values() if ln.up)
        return live == len(self._ads) - self.component_count()

    def link_kind_counts(self) -> Dict[LinkKind, int]:
        """Histogram of link kinds (all links, up or down)."""
        counts = {kind: 0 for kind in LinkKind}
        for ln in self.links():
            counts[ln.kind] += 1
        return counts

    def level_counts(self) -> Dict[Level, int]:
        """Histogram of AD levels."""
        counts = {level: 0 for level in Level}
        for ad in self.ads():
            counts[ad.level] += 1
        return counts

    def kind_counts(self) -> Dict[ADKind, int]:
        """Histogram of AD kinds."""
        counts = {kind: 0 for kind in ADKind}
        for ad in self.ads():
            counts[ad.kind] += 1
        return counts

    def copy(self) -> "InterADGraph":
        """Deep-enough copy: shares AD value objects, copies link state."""
        out = InterADGraph()
        for ad in self.ads():
            out.add_ad(ad)
        for ln in self.links():
            out.add_link(InterADLink(ln.a, ln.b, ln.kind, dict(ln.metrics), ln.up))
        return out

    def fork(self) -> "InterADGraph":
        """A structurally independent graph sharing every AD and link object.

        For a derived believed view (DESIGN section 4): the fork's owner
        *replaces* the links that changed (``remove_link`` + ``add_link``)
        and never writes to a shared one.  Dict copies only, no per-link
        work.
        """
        out = InterADGraph()
        out._ads = self._ads.copy()
        out._links = self._links.copy()
        out._adj = {ad_id: nbrs.copy() for ad_id, nbrs in self._adj.items()}
        out._incident = self._incident.copy()
        return out

    def __contains__(self, ad_id: object) -> bool:
        return ad_id in self._ads

    def __iter__(self) -> Iterator[ADId]:
        return iter(self.ad_ids())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InterADGraph(ads={self.num_ads}, links={self.num_links})"
