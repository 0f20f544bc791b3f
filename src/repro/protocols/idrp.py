"""IDRP / BGP-2: path-vector + hop-by-hop + explicit policy attributes.

Section 5.2's design point.  Routing updates carry:

* the **full AD path** to the destination, so "routes that contain AD
  loops can be avoided" without a partial ordering;
* an **allowed-sources scope** (IDRP): the set of source ADs the
  downstream path's policies admit, narrowed at every hop by the
  advertiser's own Policy Terms.  BGP version 2 "does not allow for the
  expression of such source specific policies" (paper footnote 6), so
  :class:`BGP2Protocol` propagates no scopes.

The architecture's structural limit, which the availability experiment
(E3) and the granularity experiment (E5) quantify: **one route per
(destination, QOS) is advertised**, so as policies become source-specific
the single chosen route serves ever fewer sources, and "source ADs may be
unable to use the routes they prefer" even when legal routes exist.

Scope computation uses the finite/cofinite :class:`~repro.policy.sets.ADSet`
algebra, with a representative (default-UCI, midday) flow template for
the non-source policy dimensions; UCI- and time-restricted terms
therefore export conservatively, mirroring how coarsely a real
path-vector attribute set captures fine-grained policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.core.design_space import DV_HBH_TERMS
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.policy.sets import ADSet
from repro.policy.terms import PolicyTerm
from repro.policy.uci import UCI
from repro.protocols.base import ForwardingMode, RoutingProtocol
from repro.protocols.vector import VectorNode
from repro.simul.messages import AD_ID_BYTES, METRIC_BYTES, Message
from repro.simul.network import SimNetwork

#: Representative user class / hour used when evaluating PTs in the
#: control plane (updates are not replicated per UCI or per hour).
TEMPLATE_UCI = UCI.DEFAULT
TEMPLATE_HOUR = 12

#: Sentinel term id for terms a misbehaving AD forged locally (never
#: produced by the policy generators, so ``behave`` can strip them).
FORGED_TERM_ID = 9_999

_EVERYONE = ADSet.everyone()
_NONE = ADSet.none()

#: The link metric each QOS class optimises, read without a property call.
_METRIC_NAME = {qos: qos.metric for qos in QOS}


@dataclass(frozen=True, slots=True)
class RouteAd:
    """One advertised route: destination, class, path, metric, scope.

    ``path`` starts at the advertising AD and ends at ``dest``.  An empty
    path is a withdrawal.  ``allowed`` is the source scope (IDRP's policy
    attribute); BGP-2 always sends the universal set.

    ``cls`` is the route's *policy-class tag*: Section 5.2 observes that
    "it is possible to advertise multiple routes, and still avoid
    looping, so long as each route and each packet can be identified with
    a unique set of policy attributes".  With a single class (tag 0) the
    protocol is classic IDRP; with more, one route is selected and
    advertised per (destination, QOS, class) -- availability recovers at
    the cost of a class-fold routing-table replication (ablation A4).

    An advertiser builds one instance per (key, scope) in a flush and
    hands it to every neighbour that gets that scope, so equal ads held
    in different Adj-RIB-Ins are one object.
    """

    dest: ADId
    qos: QOS
    path: Tuple[ADId, ...]
    metric: float
    allowed: ADSet
    cls: int = 0
    #: Memoized wire size: it is asked per delivery of a shared ad.
    _size: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def is_withdrawal(self) -> bool:
        return not self.path

    def size_bytes(self) -> int:
        if not self._size:  # dest, qos tag, class tag, metric, path, scope
            size = AD_ID_BYTES + 1 + 1 + METRIC_BYTES + AD_ID_BYTES * len(self.path)
            object.__setattr__(self, "_size", size + self.allowed.size_bytes())
        return self._size


@dataclass(frozen=True)
class IDRPUpdate(Message):
    """A batch of route advertisements/withdrawals."""

    routes: Tuple[RouteAd, ...]

    def size_bytes(self) -> int:
        return super().size_bytes() + sum(map(RouteAd.size_bytes, self.routes))


@dataclass(slots=True)
class _LocEntry:
    """The selected route at an AD: the neighbour it came from, the full
    path from this AD, the metric at this AD, and the source scope."""

    via: ADId
    path: Tuple[ADId, ...]
    metric: float
    allowed: ADSet


#: Loc-RIB / Adj-RIB key: (destination, QOS class, policy-class tag).
#: Keys sort natively in flush order: ``QOS`` orders by value.
_Key = Tuple[ADId, QOS, int]


def _axis(adset: ADSet) -> tuple:
    """An AD-set axis as ``(members, inside)``: ``ad`` is in the set iff
    ``(ad in members) is inside``."""
    return (frozenset() if adset.is_universal else adset.members), adset.is_finite


def compile_transit_terms(terms: Tuple[PolicyTerm, ...]) -> Tuple[tuple, ...]:
    """``terms`` as the ``(dests, prev_ads, next_ads, qos_classes,
    sources)`` rows ``_export_scope`` scans: the template's UCI and hour
    are folded in (a term they fail is left out)."""
    return tuple(
        (_axis(t.dests), _axis(t.prev_ads), _axis(t.next_ads),
         frozenset(QOS) if t.qos_classes is None else t.qos_classes, t.sources)
        for t in terms
        if (t.ucis is None or TEMPLATE_UCI in t.ucis) and t.window.matches(TEMPLATE_HOUR)
    )


def _tie_rank(ad: RouteAd) -> tuple:
    """Rank among equal metrics: shorter path, wider scope, smaller path."""
    return len(ad.path), -ad.allowed.plausible_size(), ad.path


class IDRPNode(VectorNode):
    """Per-AD path-vector process.

    ``table`` is the Loc-RIB (also reachable as ``loc``): the single
    selected route per (dest, qos, class) key.
    """

    #: The ``own_terms`` tuple (a lie reassigns it) ``_transit_rows`` holds.
    _compiled_terms: Optional[Tuple[PolicyTerm, ...]] = None

    def __init__(
        self,
        ad_id: ADId,
        own_terms: Tuple[PolicyTerm, ...],
        qos_classes: Tuple[QOS, ...],
        source_scope: bool = True,
        class_sets: Tuple[ADSet, ...] = (ADSet.everyone(),),
    ) -> None:
        super().__init__(ad_id)
        self.own_terms = own_terms
        self.qos_classes = qos_classes
        self.source_scope = source_scope
        #: Source-class partition for multi-route advertisement; one
        #: route is selected per (dest, qos, class).  The default single
        #: universal class is classic IDRP.
        self.class_sets = class_sets
        # Adj-RIB-In: one table per peer, the latest usable ad per key.
        # Peers are kept in ascending id order, the decision process's
        # tie-break order (see ``_peer_table``).
        self.rib_in: Dict[ADId, Dict[_Key, RouteAd]] = {}
        # Every key ever received (withdrawals included), in first-seen
        # order, mapped to itself: the one key tuple all peer tables
        # share, and the order a link-down reselects the lost keys in.
        self._first_seen: Dict[_Key, _Key] = {}
        # What we last advertised to each neighbour (withdrawals are only
        # sent for keys actually advertised there).
        self._advertised: Dict[ADId, set] = {}
        for qos in qos_classes:
            for cls in range(len(class_sets)):
                self.table[(ad_id, qos, cls)] = _LocEntry(
                    via=ad_id, path=(ad_id,), metric=0.0, allowed=ADSet.everyone()
                )

    @property
    def loc(self) -> Dict[_Key, _LocEntry]:
        """The Loc-RIB: the selected route per key."""
        return self.table

    # --------------------------------------------------------------- control

    def on_message(self, sender: ADId, msg: Message) -> None:
        assert isinstance(msg, IDRPUpdate)
        if not self.transport.graph.has_link(self.ad_id, sender):
            return
        if self.guard is not None and self.guard.suppresses(sender):
            return
        # A cached flag: with every check off, no _rejects call per ad.
        checks = self.validation.checks_enabled
        first_seen = self._first_seen
        table = self.rib_in.get(sender)
        changed_keys = []
        for ad in msg.routes:
            if not 0 <= ad.cls < len(self.class_sets):
                continue
            if ad.qos not in self.qos_classes:
                continue  # a class we keep no table for: nothing reads it
            withdrawal = not ad.path  # ``ad.is_withdrawal``, asked once
            if (
                not withdrawal
                and checks
                and self._rejects(sender, self._check_ad, sender, ad)
            ):
                continue
            key = (ad.dest, ad.qos, ad.cls)
            key = first_seen.setdefault(key, key)
            if withdrawal:
                if table is None or table.pop(key, None) is None:
                    continue
            else:
                if table is None:
                    table = self._peer_table(sender)
                table[key] = ad
            if self._reselect(key):
                changed_keys.append(key)
        if changed_keys:
            self.note_computation("route_selection", len(changed_keys))
            self._pend(changed_keys)
            self._schedule_flush()

    def _drop_peer(self, nbr: ADId) -> List[_Key]:
        lost = self.rib_in.pop(nbr, None)
        if not lost:
            return []
        # First-seen order, as ``_damp_loss`` arms reuse timers in it.
        # Even unselected candidate loss is fine; only selection changes
        # need advertising.
        changed = [k for k in self._first_seen if k in lost and self._reselect(k)]
        self._pend(changed)
        return changed

    def _peer_table(self, peer: ADId) -> Dict[_Key, RouteAd]:
        """A new, empty Adj-RIB-In for ``peer``, keeping peers in id order."""
        rib_in = self.rib_in
        table = rib_in[peer] = {}
        if any(other > peer for other in rib_in):
            self.rib_in = {p: rib_in[p] for p in sorted(rib_in)}
        return table

    # ------------------------------------------------------------ validation

    def _check_ad(self, sender: ADId, ad: RouteAd) -> Optional[str]:
        cfg = self.validation
        path = ad.path
        if cfg.origin_check and self.trusted_graph is not None:
            if path[0] != sender:
                return "path does not start at the advertiser"
            if len(set(path)) != len(path):
                return "looping path"
            for hop in path:
                if not self.trusted_graph.has_ad(hop):
                    return "unregistered AD on path"
            for a, b in zip(path, path[1:]):
                if not self.trusted_graph.has_link(a, b):
                    return "unregistered adjacency on path"
        if cfg.path_check:
            reason = self._path_implausible(ad)
            if reason is not None:
                return reason
        if cfg.metric_guard and self.trusted_graph is not None:
            floor = 0.0
            for a, b in zip(path, path[1:]):
                if self.trusted_graph.has_link(a, b):
                    floor += self.trusted_graph.link(a, b).metric(ad.qos.metric)
            if ad.metric < floor - 1e-9:
                return "metric below registered path cost"
        return None

    def _path_implausible(self, ad: RouteAd) -> Optional[str]:
        """Check every transit hop against the *registered* policy terms.

        Mirrors the advertiser-side :meth:`_export_scope` template exactly
        (hop ``path[i]`` exported this route to ``path[i-1]`` -- or to us,
        for ``i == 0`` -- with next hop ``path[i+1]``), so an honest ad
        can never trip it: each hop's own terms are a subset of the
        registry, and its exported source scope is the intersection of
        their source sets with the downstream scope.  A leaked route
        rests on a term the registry lacks -- either wholesale (no
        registered term matches the traversal) or on the source axis
        alone (the advertised scope admits sources no registered term
        of some hop does).
        """
        if self.trusted_policies is None:
            return None
        scope_bound = ADSet.everyone()
        for i in range(len(ad.path) - 1):
            hop = ad.path[i]
            prev = self.ad_id if i == 0 else ad.path[i - 1]
            nxt = ad.path[i + 1]
            admitted = ADSet.none()
            for term in self.trusted_policies.terms_of(hop):
                if term.matches_except_source(
                    ad.dest, prev, nxt, ad.qos, TEMPLATE_UCI, TEMPLATE_HOUR
                ):
                    admitted = admitted.union(term.sources)
            if admitted.is_empty:
                return "transit hop has no registered policy term"
            scope_bound = scope_bound.intersect(admitted)
        if self.source_scope and not ad.allowed.is_subset_of(scope_bound):
            return "advertised source scope exceeds registered policy"
        return None

    # -------------------------------------------------------------- decision

    def _candidate_usable(self, ad: RouteAd) -> bool:
        """Extra per-candidate acceptance hook (variants override)."""
        return True

    def _reselect(self, key: _Key) -> bool:
        """Recompute the Loc-RIB entry for a key; True if it changed.  The
        lowest metric, then ``_tie_rank``, then the lowest peer id wins."""
        me = self.ad_id
        if key[0] == me:
            return False
        best_ad: Optional[RouteAd] = None
        cls_set = self.class_sets[key[2]]
        if cls_set is _EVERYONE:
            cls_set = None  # ``x ∩ everyone`` is empty iff ``x`` is
        metric_name = _METRIC_NAME[key[1]]
        link_to = self.transport.graph.link_if_exists
        for nbr, table in self.rib_in.items():  # ascending peer id
            ad = table.get(key)
            if ad is None or me in ad.path:
                continue  # no candidate, or loop suppression via full AD path
            if (ad.allowed if cls_set is None else ad.allowed.intersect(cls_set)).is_empty:
                continue  # serves no source of this route's class
            if not self._candidate_usable(ad):
                continue
            link = link_to(me, nbr)
            if link is None or not link.up:
                continue
            metric = ad.metric + link.metrics.get(metric_name, 1.0)  # link.metric()
            if (
                best_ad is None
                or metric < best_metric
                or (metric == best_metric and _tie_rank(ad) < _tie_rank(best_ad))
            ):
                best_ad, best_via, best_metric = ad, nbr, metric
        old = self.table.get(key)
        if best_ad is None:
            if old is not None:
                self._lose(key)
                return True
            return False
        path = (me,) + best_ad.path
        if (
            old is None
            or old.via != best_via
            or old.path != path
            or old.metric != best_metric
            or old.allowed != best_ad.allowed
        ):
            self.table[key] = _LocEntry(best_via, path, best_metric, best_ad.allowed)
            return True
        return False

    # --------------------------------------------------------------- export

    def _export_scope(
        self, entry: _LocEntry, dest: ADId, qos: QOS, to_nbr: ADId, cls: int = 0
    ) -> ADSet:
        """Narrow the source scope by our own transit policy toward ``to_nbr``.

        We are offering ``to_nbr`` transit through us: traffic would
        arrive from ``to_nbr`` (prev) and leave toward ``entry.via``
        (next).  The admitted sources are the union over our PTs matching
        that traversal of their source sets, intersected with the
        downstream scope and the route's class partition.
        """
        if dest == self.ad_id:
            return self.class_sets[cls]
        terms = self.own_terms
        if terms is not self._compiled_terms:
            self._transit_rows = compile_transit_terms(terms)
            self._compiled_terms = terms
        via, permitted = entry.via, _NONE
        for (dests, d_in), (prevs, p_in), (nexts, n_in), qoses, sources in self._transit_rows:
            if (
                (dest in dests) is d_in
                and (to_nbr in prevs) is p_in
                and (via in nexts) is n_in
                and qos in qoses
            ):
                if not self.source_scope:
                    # BGP-2: scopes are not expressible; export is all-or-
                    # nothing on whether *any* matching term exists.
                    return _EVERYONE
                permitted = permitted.union(sources)
        if permitted is _NONE:
            return permitted
        scope = entry.allowed.intersect(permitted)  # never ``ALL``: ``∩ everyone`` is a no-op
        cls_set = self.class_sets[cls]
        return scope if cls_set is _EVERYONE else scope.intersect(cls_set)

    def _batch(self, nbr: ADId) -> tuple:
        return nbr, self._advertised.setdefault(nbr, set()), []

    def _export(self, key: _Key, suppressed: bool, batches: List[tuple]) -> None:
        # A suppressed key exports nowhere: the ``_advertised`` sets then
        # emit its withdrawal exactly once per neighbour and stay silent
        # until the penalty decays (``_on_reuse`` re-pends it).  The Loc-
        # RIB lookup, the lie and the withdrawal are per key; only split
        # horizon and the export scope are per (key, neighbour), and
        # neighbours given equal scopes share one ``RouteAd``.
        dest, qos, cls = key
        entry = None if suppressed else self.table.get(key)
        if entry is not None:
            lying = "metric-lie" in self._active_lies and dest != self.ad_id
            metric = 0.0 if lying else entry.metric
        withdrawal = None
        shared: Dict[ADSet, RouteAd] = {}
        for nbr, advertised, routes in batches:
            if (
                entry is not None
                and entry.via != nbr  # split horizon on the path-vector
                and nbr not in entry.path  # receiver would reject anyway
            ):
                scope = self._export_scope(entry, dest, qos, nbr, cls)
                if not scope.is_empty:
                    advertised.add(key)
                    ad = shared.get(scope)
                    if ad is None:
                        ad = shared[scope] = RouteAd(
                            dest, qos, entry.path, metric, scope, cls
                        )
                    routes.append(ad)
                    continue
            if key in advertised:
                advertised.discard(key)
                if withdrawal is None:
                    withdrawal = RouteAd(dest, qos, (), 0.0, ADSet.none(), cls)
                routes.append(withdrawal)

    def _update(self, nbr: ADId, advertised: set, routes: list) -> Optional[IDRPUpdate]:
        return IDRPUpdate(tuple(routes)) if routes else None

    # ----------------------------------------------------------- misbehavior

    def _start_lie(self, lie: str) -> bool:
        if lie == "route-leak":
            # Forge a maximally permissive own term: export scope widens
            # to everything AND our own forwarding-time transit check now
            # passes, so we are complicit in carrying the leaked traffic.
            self.own_terms = self.own_terms + (
                PolicyTerm(owner=self.ad_id, term_id=FORGED_TERM_ID),
            )
            return True
        # stale-replay and term-forgery need sequenced / term-carrying
        # updates; a path-vector update has neither.
        return lie == "metric-lie"

    def _stop_lying(self) -> None:
        self.own_terms = tuple(
            t for t in self.own_terms if t.term_id != FORGED_TERM_ID
        )

    def _advertise_bogus_origin(self, victim: ADId) -> None:
        """Claim a zero-cost direct route to a non-adjacent victim AD."""
        routes = tuple(
            RouteAd(victim, qos, (self.ad_id, victim), 0.0, ADSet.everyone(), cls)
            for qos in self.qos_classes
            for cls in range(len(self.class_sets))
        )
        self.broadcast(IDRPUpdate(routes))

    # ------------------------------------------------------------ forwarding

    def class_of(self, src: ADId) -> int:
        """The policy-class tag a packet from ``src`` carries."""
        for cls, members in enumerate(self.class_sets):
            if members.matches(src):
                return cls
        return 0

    def entry_for(
        self, dest: ADId, qos: QOS, cls: int = 0
    ) -> Optional[_LocEntry]:
        return self.table.get((dest, qos, cls))


class IDRPProtocol(RoutingProtocol):
    """Driver for the IDRP design point (DV / hop-by-hop / policy terms).

    ``route_classes`` enables Section 5.2's multiple-routes extension:
    sources are partitioned into that many classes (by AD id, matching
    :func:`repro.policy.generators.source_class_of`) and one route is
    advertised per (destination, QOS, class).  The default 1 is classic
    IDRP -- a single route per destination per QOS.
    """

    name: ClassVar[str] = "idrp"
    design_point = DV_HBH_TERMS
    mode = ForwardingMode.HOP_BY_HOP
    source_scope: ClassVar[bool] = True

    def __init__(
        self,
        graph: InterADGraph,
        policies: PolicyDatabase,
        qos_classes: Tuple[QOS, ...] = (QOS.DEFAULT,),
        route_classes: int = 1,
    ) -> None:
        super().__init__(graph, policies)
        if route_classes < 1:
            raise ValueError("route_classes must be positive")
        self.qos_classes = qos_classes
        self.route_classes = route_classes

    def _class_sets(self) -> Tuple[ADSet, ...]:
        if self.route_classes == 1:
            return (ADSet.everyone(),)
        from repro.policy.generators import source_class_members

        return tuple(
            ADSet.of(source_class_members(self.graph, self.route_classes, cls))
            for cls in range(self.route_classes)
        )

    def _make_nodes(self, network: SimNetwork) -> None:
        class_sets = self._class_sets()
        for ad in self.graph.ads():
            network.add_node(
                IDRPNode(
                    ad.ad_id,
                    own_terms=self.policies.terms_of(ad.ad_id),
                    qos_classes=self.qos_classes,
                    source_scope=self.source_scope,
                    class_sets=class_sets,
                )
            )

    def _qos_for(self, flow: FlowSpec) -> QOS:
        """The routing class used for a flow (fall back to first table)."""
        return flow.qos if flow.qos in self.qos_classes else self.qos_classes[0]

    def next_hop(
        self, ad_id: ADId, flow: FlowSpec, prev: Optional[ADId]
    ) -> Optional[ADId]:
        node = self.network.node(ad_id)
        assert isinstance(node, IDRPNode)
        entry = node.entry_for(
            flow.dst, self._qos_for(flow), node.class_of(flow.src)
        )
        if entry is None:
            return None
        if prev is None and not entry.allowed.matches(flow.src):
            # The single advertised route does not admit this source --
            # the Section 5.2 starvation case.
            return None
        if prev is not None:
            # Transit ADs enforce their own policy on the actual hops.
            permitted = any(
                t.permits(flow, prev, entry.via) for t in node.own_terms
            )
            if not permitted:
                return None
        return entry.via


class BGP2Protocol(IDRPProtocol):
    """BGP version 2: IDRP without source-specific policy attributes."""

    name: ClassVar[str] = "bgp2"
    source_scope: ClassVar[bool] = False
