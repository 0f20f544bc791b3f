"""From LSDB content to a believed view and memoised routes.

A node's believed internet, and every deterministic route over it, are
functions of LSDB *content* (DESIGN section 4).  A content's view is
built cold or forked from the view its asker held before by diffing the
two snapshots, which also repairs SPF trees; routes are memoised per
seq-free content.  Flooding lives in :mod:`repro.protocols.flooding`.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.adgraph.ad import AD, ADId, ADKind, InterADLink, LinkKind, canonical_link_key
from repro.adgraph.graph import InterADGraph
from repro.policy.database import PolicyDatabase

if TYPE_CHECKING:
    from repro.protocols.flooding import LinkRecord, LinkStateAd

#: Route memos a pool keeps per seq-free LSDB content after their
#: generations die, least recently shared dropped first.
ROUTE_MEMOS = 16

#: A believed internet: what :meth:`LSNode.local_view` returns.
View = Tuple[InterADGraph, PolicyDatabase]

#: Origin -> its LSA: a node's database, or a generation's snapshot of one.
LSDB = Dict[ADId, "LinkStateAd"]


class LSDBGeneration:
    """One LSDB content that some node currently holds.

    The believed view and deterministic route computation over it are
    functions of LSDB content, so every node at this content shares one
    ``view`` and one ``routes`` memo -- the pool's memo of the content
    without sequence numbers, adopted on the first route asked -- and
    the ``searches`` that fill that memo, which are this generation's
    alone.
    """

    __slots__ = (
        "lsdb", "bucket", "view", "routes", "uncarried", "inherited", "searches", "holders"
    )

    def __init__(self, lsdb: LSDB, bucket: Hashable) -> None:
        #: Private snapshot (a node's own dict is mutated by ``_install``).
        self.lsdb = lsdb
        self.bucket = bucket
        #: The believed internet of this content, set once by the first
        #: node to ask and read-only from then on (links and the policy
        #: database are shared with the views forked from it).
        self.view: Optional[View] = None
        #: Protocol-defined route key -> computed route: the pool's memo of
        #: this content, set on the first route asked (never on acquire).
        self.routes: Optional[Dict[Hashable, Any]] = None
        #: Keys of ``routes`` answered by a search that link loss can
        #: change off the answer's path; never carried to a later content.
        self.uncarried: Optional[Set[Hashable]] = None
        #: ``(base.routes, base.uncarried, lost link keys)`` when this view
        #: is the base generation's with only links lost (up there, down or
        #: gone here): no AD added, no term changed, nothing came up.  The
        #: base's memo, not the base itself, so generations never chain.
        self.inherited: Optional[Tuple[Dict, Set, frozenset]] = None
        #: Protocol-defined search key -> a resumable search over ``view``,
        #: created by the first route asked of it.  Dies with this
        #: generation: never in ``routes``, never carried or adopted.
        self.searches: Optional[Dict[Hashable, Any]] = None
        #: Nodes currently at this generation; released at zero.
        self.holders = 0


class LSDBGenerations:
    """Content-addressed pool of the live :class:`LSDBGeneration` objects.

    One pool per :class:`~repro.protocols.base.RoutingProtocol` instance,
    handed to every node it constructs.  A generation is found by a cheap
    bucket key and *confirmed by LSDB equality* -- never by the key alone
    and never by ``(origin, seq)``, which a forged LSA may reuse.  Flooded
    LSAs are shared objects (sim) or decode-memoised (live), so the
    ``dict ==`` is pointer compares in practice.  Generations are
    reference-counted and dropped the moment the last node leaves, so
    what is shared never depends on garbage-collection timing.

    Route memos outlive them: the pool keeps the last :data:`ROUTE_MEMOS`
    by seq-free content, so a flap or crash that heals, re-flooding the
    same content under new sequence numbers, reuses its routes.
    """

    def __init__(self) -> None:
        self._buckets: Dict[Hashable, List[LSDBGeneration]] = {}
        #: Seq-free content -> ``(routes, uncarried)``, least recently
        #: shared first.
        self._memos: Dict[Hashable, Tuple[Dict, Set]] = {}

    def acquire(self, lsdb: LSDB) -> LSDBGeneration:
        """The generation holding exactly ``lsdb``'s content, +1 holder."""
        key = (len(lsdb), sum(lsa.seq for lsa in lsdb.values()))
        bucket = self._buckets.setdefault(key, [])
        for generation in bucket:
            if generation.lsdb == lsdb:
                break
        else:
            generation = LSDBGeneration(dict(lsdb), key)
            bucket.append(generation)
        generation.holders += 1
        return generation

    def release(self, generation: LSDBGeneration) -> None:
        generation.holders -= 1
        if generation.holders == 0:
            bucket = self._buckets[generation.bucket]
            bucket.remove(generation)
            if not bucket:
                del self._buckets[generation.bucket]

    def share_memo(self, generation: LSDBGeneration) -> None:
        """Point ``generation`` at the route memo of its seq-free content.

        The first generation at a content registers a new memo; a later one
        adopts it and moves it to the back of the eviction order.  The
        content -- each origin's links, terms and level -- is confirmed by
        full equality, never by hash or seq.
        """
        content = tuple(
            (origin, lsa.links, lsa.terms, lsa.origin_level)
            for origin, lsa in sorted(generation.lsdb.items())
        )
        memos = self._memos
        memo = memos.pop(content, None) or ({}, set())
        memos[content] = memo
        generation.routes, generation.uncarried = memo
        if len(memos) > ROUTE_MEMOS:
            del memos[next(iter(memos))]

    def route(
        self, generation: LSDBGeneration, key: Hashable, compute: Callable[..., Any], *args: Any
    ) -> Any:
        """``compute(*args)``, run once per (seq-free content of ``generation``, ``key``).

        The replicated hop-by-hop computation: every AD on a path counts
        it in its own modelled table, but the host runs it once per content
        and keeps the answer in the content's memo (:meth:`share_memo`)
        after every node has moved on.  ``compute`` may read only the asking
        node's view and protocol-wide constants.  When this view is its
        base's minus lost links, the base's answer is copied if it is
        ``None`` or an AD path over none of them.  So ``compute`` must
        return ``None`` or an AD path, and be an optimal path search whose
        every choice (parent, goal) is the first state popped in a fixed
        order of (distance or width, state) -- link loss cannot improve a
        state, so the answer's own states and tie-breaks stand (DESIGN
        section 4).  A key answered any other way is added to
        ``generation.uncarried`` by ``compute``.
        """
        if generation.routes is None:
            self.share_memo(generation)
        routes = generation.routes
        if key not in routes:
            inherited = generation.inherited
            if inherited is not None:
                base, uncarried, lost = inherited
                if key in base and key not in uncarried:
                    path = base[key]
                    if path is None or not any(
                        canonical_link_key(a, b) in lost for a, b in zip(path, path[1:])
                    ):
                        routes[key] = path
                        return path
            routes[key] = compute(*args)
        return routes[key]

    def live(self) -> List[LSDBGeneration]:
        """Every generation some node is at (tests and observability)."""
        return [g for bucket in self._buckets.values() for g in bucket]


def changed_origins(old: LSDB, new: LSDB) -> Dict[ADId, Optional["LinkStateAd"]]:
    """Origin -> its LSA in ``old`` (``None`` if absent), per origin whose LSA differs.

    In origin order.  Identity is tested first, then equality: on live,
    equal LSAs can be different decoded objects, and they are no change.
    """
    changed: Dict[ADId, Optional[LinkStateAd]] = {}
    for origin, lsa in new.items():
        was = old.get(origin)
        if was is not lsa and was != lsa:
            changed[origin] = was
    changed.update((origin, old[origin]) for origin in old.keys() - new.keys())
    return {origin: changed[origin] for origin in sorted(changed)}


def changed_links(old: LSDB, new: LSDB) -> List[Tuple[ADId, ADId]]:
    """Sorted keys of every link whose believed state may differ from ``old`` to ``new``.

    A believed link is a function of its two endpoints' LSAs, so these
    are the links a changed origin names, then or now: over-reported,
    never missed.
    """
    return _incident_keys(changed_origins(old, new), new)


def _incident_keys(
    changed: Dict[ADId, Optional["LinkStateAd"]], new: LSDB
) -> List[Tuple[ADId, ADId]]:
    """Sorted keys of every link a ``changed`` origin names, then or now."""
    keys = set()
    for origin, old in changed.items():
        for lsa in (old, new.get(origin)):
            if lsa is not None:
                for rec in lsa.links:
                    keys.add(canonical_link_key(origin, rec.neighbor))
    return sorted(keys)


def _believed_ad(origin: ADId, lsa: "LinkStateAd") -> AD:
    """The believed AD: its LSA's level (views are region-partitioned); kind is moot."""
    return AD(origin, f"ad{origin}", lsa.origin_level, ADKind.HYBRID)


def _believed_link(origin: ADId, rec: "LinkRecord", up: bool) -> InterADLink:
    """The believed link ``origin``'s record describes (its metrics win)."""
    return InterADLink(
        origin,
        rec.neighbor,
        LinkKind.HIERARCHICAL,
        {"delay": rec.delay, "cost": rec.cost, "bandwidth": rec.bandwidth},
        up=up,
    )


def _record(lsa: Optional["LinkStateAd"], neighbor: ADId) -> Optional["LinkRecord"]:
    """The first record of ``lsa`` naming ``neighbor``, if any."""
    if lsa is not None:
        for rec in lsa.links:
            if rec.neighbor == neighbor:
                return rec
    return None


def cold_view(lsdb: LSDB) -> View:
    """The believed internet of ``lsdb``, built from nothing.

    First demand's path and :func:`derive_view`'s oracle.  A link exists
    iff both endpoints' LSAs carry a record naming each other (the first
    such record wins), takes its metrics from the smaller endpoint's
    record, and is up only if both records say up.
    """
    origins = sorted(lsdb)
    graph, policies = InterADGraph(), PolicyDatabase()
    for origin in origins:
        graph.add_ad(_believed_ad(origin, lsdb[origin]))
        for term in lsdb[origin].terms:
            policies.add_term(term)
    for origin in origins:
        for rec in lsdb[origin].links:
            if rec.neighbor not in graph or graph.has_link(origin, rec.neighbor):
                continue
            other_rec = _record(lsdb.get(rec.neighbor), origin)
            if other_rec is not None:
                graph.add_link(_believed_link(origin, rec, rec.up and other_rec.up))
    return graph, policies


def derive_view(base: Optional[LSDBGeneration], generation: LSDBGeneration) -> Optional[View]:
    """``generation``'s view forked from ``base``'s, or ``None`` (cold build).

    One pass over the two snapshots, then O(LSAs that differ): untouched
    links and ADs are shared with ``base``'s view, a changed link is
    *replaced* in the fork, and the policy database is ``base``'s own
    object unless a term changed.  ``None`` on first demand, when an
    origin changed level or left (``AD`` objects are frozen and shared),
    or when terms changed while some LSA, old or current, carries a term
    it does not own -- per-owner replace is only exact when owners are
    independent.  When only links were lost, ``generation`` inherits
    ``base``'s routes, if it has any.
    """
    if base is None or base.view is None:
        return None
    lsdb = generation.lsdb
    changed = changed_origins(base.lsdb, lsdb)
    born, retermed = [], []
    for origin, old in changed.items():
        new = lsdb.get(origin)
        if old is None:
            born.append(origin)
        elif new is None or old.origin_level != new.origin_level:
            return None
        if (() if old is None else old.terms) != new.terms:
            retermed.append(origin)
    if retermed and any(
        term.owner != lsa.origin
        for lsa in chain(lsdb.values(), changed.values())
        if lsa is not None
        for term in lsa.terms
    ):
        return None
    graph, policies = base.view
    graph = graph.fork()
    # All new ADs first (mirroring the cold build's two passes): an
    # edge between two origins that both appeared since needs both.
    for origin in born:
        graph.add_ad(_believed_ad(origin, lsdb[origin]))
    ups = {key: _reconcile_edge(graph, key, lsdb) for key in _incident_keys(changed, lsdb)}
    if not (born or retermed or True in ups.values()) and base.routes is not None:
        lost = frozenset(key for key, up in ups.items() if up is False)
        generation.inherited = (base.routes, base.uncarried, lost)
    if retermed:
        # Per-owner replace reproduces the cold build's term-id
        # stamping exactly: add_term stamps position-in-owner's list.
        policies = policies.copy()
        for origin in retermed:
            policies.remove_terms(origin)
            for term in lsdb[origin].terms:
                policies.add_term(term)
    return graph, policies


def _reconcile_edge(graph: InterADGraph, key: Tuple[ADId, ADId], lsdb: LSDB) -> Optional[bool]:
    """Drive one believed link of a fork to the state :func:`cold_view` gives it.

    A link that differs is replaced by a new object: the old one belongs
    to other views too.  Returns ``None`` when no search can tell
    (unchanged, or down before and after), else whether the link is up
    now: ``False`` for a link *lost* (up in the fork's base), ``True``
    for one that came up or changed metrics while up.
    """
    a, b = key
    rec_a = _record(lsdb.get(a), b)
    rec_b = _record(lsdb.get(b), a)
    existing = graph.link_if_exists(a, b)
    was_up = existing is not None and existing.up
    if rec_a is None or rec_b is None:
        if existing is not None:
            graph.remove_link(a, b)
        return False if was_up else None
    up = rec_a.up and rec_b.up
    if existing is not None:
        metrics = existing.metrics
        if (
            existing.up == up
            and metrics["delay"] == rec_a.delay
            and metrics["cost"] == rec_a.cost
            and metrics["bandwidth"] == rec_a.bandwidth
        ):
            return None
        graph.remove_link(a, b)
    graph.add_link(_believed_link(a, rec_a, up))
    return up if up or was_up else None
