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

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.adgraph.ad import ADId, InterADLink
from repro.adgraph.graph import InterADGraph
from repro.core.design_space import DV_HBH_TERMS
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.policy.sets import ADSet
from repro.policy.terms import PolicyTerm
from repro.policy.uci import UCI
from repro.protocols.base import ForwardingMode, RoutingProtocol
from repro.protocols.pacing import OverloadDefenseMixin
from repro.simul.messages import AD_ID_BYTES, METRIC_BYTES, Message
from repro.simul.network import SimNetwork
from repro.simul.node import ProtocolNode

#: Delay before a triggered update batch is flushed.
TRIGGER_DELAY = 1.0

#: Representative user class / hour used when evaluating PTs in the
#: control plane (updates are not replicated per UCI or per hour).
TEMPLATE_UCI = UCI.DEFAULT
TEMPLATE_HOUR = 12

#: Sentinel term id for terms a misbehaving AD forged locally (never
#: produced by the policy generators, so ``behave`` can strip them).
FORGED_TERM_ID = 9_999


@dataclass(frozen=True)
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
    """

    dest: ADId
    qos: QOS
    path: Tuple[ADId, ...]
    metric: float
    allowed: ADSet
    cls: int = 0

    @property
    def is_withdrawal(self) -> bool:
        return not self.path

    def size_bytes(self) -> int:
        return (
            AD_ID_BYTES  # dest
            + 1  # qos tag
            + 1  # class tag
            + METRIC_BYTES
            + AD_ID_BYTES * len(self.path)
            + self.allowed.size_bytes()
        )


@dataclass(frozen=True)
class IDRPUpdate(Message):
    """A batch of route advertisements/withdrawals."""

    routes: Tuple[RouteAd, ...]

    def size_bytes(self) -> int:
        return super().size_bytes() + sum(r.size_bytes() for r in self.routes)


@dataclass
class _LocEntry:
    """The selected route at an AD: the neighbour it came from, the full
    path from this AD, the metric at this AD, and the source scope."""

    via: ADId
    path: Tuple[ADId, ...]
    metric: float
    allowed: ADSet


#: Loc-RIB / Adj-RIB key: (destination, QOS class, policy-class tag).
_Key = Tuple[ADId, QOS, int]


class IDRPNode(OverloadDefenseMixin, ProtocolNode):
    """Per-AD path-vector process."""

    #: A liar re-advertises periodically (bounded, so runs quiesce).
    LIE_REASSERT_INTERVAL = 60.0
    LIE_REASSERT_COUNT = 6

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
        # Adj-RIB-In: per (dest, qos), the latest usable ad per neighbour.
        self.rib_in: Dict[_Key, Dict[ADId, RouteAd]] = {}
        # Loc-RIB: the single selected route per (dest, qos).
        self.loc: Dict[_Key, _LocEntry] = {}
        # What we last advertised to each neighbour (withdrawals are only
        # sent for keys actually advertised there).
        self._advertised: Dict[ADId, set] = {}
        self._pending: set = set()
        self._flush_scheduled = False
        # Active misbehaviors: lie name -> optional target AD.
        self._active_lies: Dict[str, Optional[ADId]] = {}
        self._lie_ticks_left = 0
        self._lie_tick_pending = False

    # --------------------------------------------------------------- control

    def start(self) -> None:
        for qos in self.qos_classes:
            for cls in range(len(self.class_sets)):
                self.loc[(self.ad_id, qos, cls)] = _LocEntry(
                    via=self.ad_id,
                    path=(self.ad_id,),
                    metric=0.0,
                    allowed=ADSet.everyone(),
                )
                self._pending.add((self.ad_id, qos, cls))
        self._schedule_flush()

    def on_message(self, sender: ADId, msg: Message) -> None:
        assert isinstance(msg, IDRPUpdate)
        if not self.topology.has_link(self.ad_id, sender):
            return
        if self.guard is not None and self.guard.suppresses(sender):
            return
        changed_keys = []
        for ad in msg.routes:
            if not 0 <= ad.cls < len(self.class_sets):
                continue
            if ad.qos not in self.qos_classes:
                continue  # a class we keep no table for: nothing reads it
            if not ad.is_withdrawal and self._rejects(sender, ad):
                continue
            key = (ad.dest, ad.qos, ad.cls)
            per_nbr = self.rib_in.setdefault(key, {})
            if ad.is_withdrawal:
                if sender in per_nbr:
                    del per_nbr[sender]
                else:
                    continue
            else:
                per_nbr[sender] = ad
            if self._reselect(key):
                changed_keys.append(key)
        if changed_keys:
            self.note_computation("route_selection", len(changed_keys))
            self._pending.update(changed_keys)
            self._schedule_flush()

    def on_link_change(self, link: InterADLink, up: bool) -> None:
        nbr = link.other(self.ad_id)
        if up:
            # Session restart: everything we select is news to them, and
            # theirs to us arrives when they do the same.
            self._pending.update(self.loc)
            self._schedule_flush()
            return
        changed = []
        for key, per_nbr in self.rib_in.items():
            if nbr in per_nbr:
                del per_nbr[nbr]
                if self._reselect(key):
                    changed.append(key)
        # Even unselected candidate loss is fine; only selection changes
        # need advertising.
        if changed:
            self._enter_holddown()
            self._pending.update(changed)
            self._schedule_flush()

    # ------------------------------------------------------------ validation

    def _rejects(self, sender: ADId, ad: RouteAd) -> bool:
        """Receiver-side plausibility screen for one advertisement."""
        if not self.validation.checks_enabled:
            return False
        reason = self._check_ad(sender, ad)
        if reason is None:
            return False
        if self.guard is not None:
            self.guard.violation(sender, reason)
        return True

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

    def _candidate_rank(self, ad: RouteAd, link_metric: float):
        metric = ad.metric + link_metric
        return (metric, len(ad.path), -ad.allowed.plausible_size(), ad.path)

    def _candidate_usable(self, ad: RouteAd) -> bool:
        """Extra per-candidate acceptance hook (variants override)."""
        return True

    def _reselect(self, key: _Key) -> bool:
        """Recompute the Loc-RIB entry for a key; True if it changed."""
        me = self.ad_id
        if key[0] == me:
            return False
        best_ad: Optional[RouteAd] = None
        best_rank = None
        per_nbr = self.rib_in.get(key)
        if per_nbr:
            cls_set = self.class_sets[key[2]]
            metric_name = key[1].metric
            link_to = self.topology.link_if_exists
            # Churn mostly leaves one candidate: nothing to put in order.
            candidates = sorted(per_nbr.items()) if len(per_nbr) > 1 else per_nbr.items()
            for nbr, ad in candidates:
                if me in ad.path:
                    continue  # loop suppression via full AD path
                if ad.allowed.intersect(cls_set).is_empty:
                    continue  # serves no source of this route's class
                if not self._candidate_usable(ad):
                    continue
                link = link_to(me, nbr)
                if link is None or not link.up:
                    continue
                link_metric = link.metric(metric_name)
                rank = self._candidate_rank(ad, link_metric)
                if best_rank is None or rank < best_rank:
                    best_rank = rank
                    best_ad, best_via = ad, nbr
                    best_metric = ad.metric + link_metric
        old = self.loc.get(key)
        if best_ad is None:
            if old is not None:
                del self.loc[key]
                self._damp_loss(key)
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
            self.loc[key] = _LocEntry(best_via, path, best_metric, best_ad.allowed)
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
        if not self.source_scope:
            # BGP-2: scopes are not expressible; export is all-or-nothing
            # on whether *any* matching term exists.
            for term in self.own_terms:
                if term.matches_except_source(
                    dest, to_nbr, entry.via, qos, TEMPLATE_UCI, TEMPLATE_HOUR
                ):
                    return ADSet.everyone()
            return ADSet.none()
        permitted = ADSet.none()
        for term in self.own_terms:
            if term.matches_except_source(
                dest, to_nbr, entry.via, qos, TEMPLATE_UCI, TEMPLATE_HOUR
            ):
                permitted = permitted.union(term.sources)
        return entry.allowed.intersect(permitted).intersect(self.class_sets[cls])

    def _schedule_flush(self) -> None:
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.schedule(TRIGGER_DELAY, self._flush)

    def _flush(self) -> None:
        wait = self._pacing_defers_flush()
        if wait is not None:
            self.schedule(wait, self._flush)
            return
        self._flush_scheduled = False
        keys = sorted(self._pending, key=lambda k: (k[0], k[1].value, k[2]))
        self._pending.clear()
        if not keys:
            return
        # A suppressed key exports nowhere: the ``_advertised`` machinery
        # below then emits the withdrawal exactly once per neighbour and
        # stays silent until the penalty decays (``_on_reuse`` re-pends).
        suppressed: set = set()
        if self.pacing.damp and self._damper is not None:
            for key in keys:
                if key[0] != self.ad_id and self._damp_suppressed(key):
                    suppressed.add(key)
                    self.suppressed_announcements += 1
        # Keys outermost: the Loc-RIB lookup, the suppressed test, the lie
        # and the withdrawal are per key; only split horizon and the export
        # scope are per (key, neighbour).  Each neighbour's batch still
        # lists its keys in sorted order, and batches go out in
        # ``neighbors()`` order.
        batches: List[Tuple[ADId, set, List[RouteAd]]] = [
            (nbr, self._advertised.setdefault(nbr, set()), [])
            for nbr in self.neighbors()
        ]
        lying = "metric-lie" in self._active_lies
        for key in keys:
            dest, qos, cls = key
            entry = None if key in suppressed else self.loc.get(key)
            if entry is not None:
                metric = 0.0 if lying and dest != self.ad_id else entry.metric
            withdrawal = None
            for nbr, advertised, routes in batches:
                if (
                    entry is not None
                    and entry.via != nbr  # split horizon on the path-vector
                    and nbr not in entry.path  # receiver would reject anyway
                ):
                    scope = self._export_scope(entry, dest, qos, nbr, cls)
                    if not scope.is_empty:
                        advertised.add(key)
                        routes.append(
                            RouteAd(dest, qos, entry.path, metric, scope, cls)
                        )
                        continue
                if key in advertised:
                    advertised.discard(key)
                    if withdrawal is None:
                        withdrawal = RouteAd(dest, qos, (), 0.0, ADSet.none(), cls)
                    routes.append(withdrawal)
        for nbr, _, routes in batches:
            if routes:
                self.send(nbr, IDRPUpdate(tuple(routes)))

    def _on_reuse(self, key) -> None:
        # Damping lifted: re-advertise whatever the Loc-RIB holds now.
        self._pending.add(key)
        self._schedule_flush()

    # ----------------------------------------------------------- misbehavior

    def misbehave(self, lie: str, target: Optional[ADId] = None) -> bool:
        applied = self._tell_lie(lie, target)
        if applied and self._lie_ticks_left == 0:
            self._lie_ticks_left = self.LIE_REASSERT_COUNT
            self._arm_lie_tick()
        return applied

    def _tell_lie(self, lie: str, target: Optional[ADId] = None) -> bool:
        if lie == "route-leak":
            # Forge a maximally permissive own term: export scope widens
            # to everything AND our own forwarding-time transit check now
            # passes, so we are complicit in carrying the leaked traffic.
            self._active_lies[lie] = None
            self.own_terms = self.own_terms + (
                PolicyTerm(owner=self.ad_id, term_id=FORGED_TERM_ID),
            )
            self._pending.update(self.loc)
            self._schedule_flush()
            return True
        if lie == "metric-lie":
            self._active_lies[lie] = None
            self._pending.update(self.loc)
            self._schedule_flush()
            return True
        if lie == "bogus-origin":
            if target is None:
                return False
            self._active_lies[lie] = target
            self._advertise_bogus_origin(target)
            return True
        # stale-replay and term-forgery need sequenced / term-carrying
        # updates; a path-vector update has neither.
        return False

    def behave(self) -> None:
        self._active_lies.clear()
        self._lie_ticks_left = 0
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

    def _arm_lie_tick(self) -> None:
        if not self._lie_tick_pending:
            self._lie_tick_pending = True
            self.schedule(self.LIE_REASSERT_INTERVAL, self._lie_tick)

    def _lie_tick(self) -> None:
        self._lie_tick_pending = False
        if not self._active_lies or self._lie_ticks_left <= 0:
            return
        self._lie_ticks_left -= 1
        if "route-leak" in self._active_lies or "metric-lie" in self._active_lies:
            self._pending.update(self.loc)
            self._schedule_flush()
        victim = self._active_lies.get("bogus-origin")
        if victim is not None:
            self._advertise_bogus_origin(victim)
        if self._lie_ticks_left > 0:
            self._arm_lie_tick()

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
        return self.loc.get((dest, qos, cls))


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

    def rib_size(self, ad_id: ADId) -> int:
        node = self.network.node(ad_id)
        assert isinstance(node, IDRPNode)
        return len(node.loc)

    def adj_rib_size(self, ad_id: ADId) -> int:
        """Adj-RIB-In entries (candidate routes held, all neighbours)."""
        node = self.network.node(ad_id)
        assert isinstance(node, IDRPNode)
        return sum(len(per) for per in node.rib_in.values())


class BGP2Protocol(IDRPProtocol):
    """BGP version 2: IDRP without source-specific policy attributes."""

    name: ClassVar[str] = "bgp2"
    source_scope: ClassVar[bool] = False
