"""The ECMA/NIST architecture: DV + hop-by-hop + policy in the topology.

Section 5.1.1's proposal, mechanised:

* a **partial ordering** over ADs labels every link traversal up or down;
* routes advertise whether their data path **contains an up link**;
  accepting a route over a down first-hop is forbidden if it does ("once
  a packet traverses a down link, it cannot traverse another up link");
* the rule bounds how far stale routes can inflate, so withdrawal storms
  die out quickly (no count-to-infinity) -- measured against naive DV in
  experiment E4;
* **per-QOS routing databases** (FIBs): each AD keeps one table per QOS
  class it supports; an AD that does not support a QOS neither computes
  nor advertises routes for it (the "infinite metric" of the proposal);
* **policy-in-topology transit control**: stub/multi-homed ADs advertise
  only themselves; hybrid ADs re-advertise other routes only over *down*
  links (serving their customers below, never providing transit upward);
  transit ADs re-advertise freely, subject to the up/down rule.

What ECMA *cannot* express -- source-, UCI-, and time-specific policies
-- it silently ignores; the availability evaluator then counts its
illegal routes, quantifying Section 5.1.1's expressiveness complaint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.adgraph.ad import ADId, ADKind
from repro.adgraph.graph import InterADGraph
from repro.adgraph.partial_order import Direction, PartialOrder
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.protocols.base import ForwardingMode, RoutingProtocol
from repro.protocols.vector import VectorNode
from repro.simul.messages import AD_ID_BYTES, METRIC_BYTES, Message
from repro.simul.network import SimNetwork
from repro.core.design_space import DV_HBH_TOPOLOGY

#: Advertised metric meaning "withdrawn / unreachable".
INFINITE_METRIC = math.inf


@dataclass(frozen=True)
class ECMAUpdate(Message):
    """One batch of ECMA route advertisements.

    Each entry is ``(dest, qos, metric, hops, contains_up)``; an infinite
    metric withdraws the route.  ``poisons`` carries split-horizon
    poisoned-reverse keys separately: they are authoritative ("do not
    route this through me") but, unlike a genuine withdrawal, must not
    solicit a re-offer from the receiver -- conflating the two makes the
    triggered-update scheme oscillate forever.
    """

    entries: Tuple[Tuple[ADId, QOS, float, int, bool], ...]
    poisons: Tuple[Tuple[ADId, QOS], ...] = ()

    def size_bytes(self) -> int:
        # dest + qos tag + metric + hop count + flag byte
        per_entry = AD_ID_BYTES + 1 + METRIC_BYTES + 1 + 1
        per_poison = AD_ID_BYTES + 1
        return (
            super().size_bytes()
            + len(self.entries) * per_entry
            + len(self.poisons) * per_poison
        )


@dataclass
class _Entry:
    metric: float
    hops: int
    contains_up: bool
    next_hop: ADId


def supported_qos_classes(policies: PolicyDatabase, ad_id: ADId) -> FrozenSet[QOS]:
    """QOS classes an AD's policy terms will carry (topology-expressible).

    An AD with no terms supports every QOS for its *own* traffic; as it
    never offers transit, the distinction is moot and we return all.

    Bottleneck-composed classes (bandwidth) are excluded throughout:
    distance-vector updates compose metrics additively, so a 1990 DV
    protocol cannot route on a max-min metric -- part of the Section 3
    critique of the era's QOS support.
    """
    additive = frozenset(QOS.additive_classes())
    terms = policies.terms_of(ad_id)
    if not terms:
        return additive
    supported: Set[QOS] = set()
    for term in terms:
        if term.qos_classes is None:
            return additive
        supported |= term.qos_classes
    return frozenset(supported) & additive


class TransitRole:
    """Policy in topology: an AD's transit role, mixed into a vector node.

    Stub and multi-homed ADs offer no transit; hybrid ADs offer it only
    downward, except toward their customer cone; transit ADs offer it
    freely.  A route leak is a lie about the role -- the AD starts
    offering full transit -- and ``behave`` restores the registered one.
    """

    def _init_role(
        self,
        order: PartialOrder,
        may_transit: bool,
        down_only_transit: bool,
        cone: FrozenSet[ADId] = frozenset(),
    ) -> None:
        self.order = order
        self.may_transit = may_transit
        self.down_only_transit = down_only_transit
        self.cone = cone
        self._honest_transit = (may_transit, down_only_transit)

    def _offers_transit(self, dest: ADId, nbr: ADId) -> bool:
        """Transit policy in topology: may we offer ``nbr`` a route to ``dest``?

        Hybrid ADs apply the customer/provider export rule: destinations
        inside their customer cone are advertised to everyone (anyone may
        send *to* our customers through us), destinations outside the
        cone only downward (only our customers may send *through* us to
        the rest of the world).  That is "limited transit" expressed
        purely in topology.
        """
        if dest == self.ad_id:
            return True
        if not self.may_transit:
            return False
        if self.down_only_transit and dest not in self.cone:
            return self.order.direction(self.ad_id, nbr) is Direction.DOWN
        return True

    def _start_lie(self, lie: str) -> bool:
        if lie != "route-leak":
            return super()._start_lie(lie)
        if self.may_transit and not self.down_only_transit:
            # Already a full-transit AD in the topology regime.
            return False
        self.may_transit = True
        self.down_only_transit = False
        return True

    def _stop_lying(self) -> None:
        super()._stop_lying()
        self.may_transit, self.down_only_transit = self._honest_transit


class ECMANode(TransitRole, VectorNode):
    """Per-AD ECMA process: one entry per (dest, QOS) key."""

    def __init__(
        self,
        ad_id: ADId,
        order: PartialOrder,
        may_transit: bool,
        down_only_transit: bool,
        supported_qos: FrozenSet[QOS],
        max_hops: int,
        cone: FrozenSet[ADId] = frozenset(),
    ) -> None:
        super().__init__(ad_id)
        self._init_role(order, may_transit, down_only_transit, cone)
        self.supported_qos = supported_qos
        self.max_hops = max_hops
        for q in supported_qos:
            self.table[(ad_id, q)] = _Entry(0.0, 0, False, ad_id)
        self._trusted_cones: Dict[ADId, FrozenSet[ADId]] = {}

    # --------------------------------------------------------------- control

    def on_message(self, sender: ADId, msg: Message) -> None:
        assert isinstance(msg, ECMAUpdate)
        if not self.transport.graph.has_link(self.ad_id, sender):
            return
        link = self.transport.graph.link(self.ad_id, sender)
        if not link.up:
            return
        if self.guard is not None and self.guard.suppresses(sender):
            return
        # Direction the *data* would travel: from us toward the sender.
        data_dir = self.order.direction(self.ad_id, sender)
        changed = False
        have_better_news = False
        for key in msg.poisons:
            changed |= self._offer(key, sender, None)
        for dest, qos, metric, hops, contains_up in msg.entries:
            if dest == self.ad_id or qos not in self.supported_qos:
                continue
            withdrawal = math.isinf(metric)
            if not withdrawal and self._rejects(
                sender, self._check_entry, sender, dest, metric
            ):
                continue
            key = (dest, qos)
            entry = self.table.get(key)
            cost = link.metric(qos.metric)
            if entry is not None and entry.next_hop != sender:
                if entry.metric + cost < metric:
                    have_better_news = True
            # A withdrawal, or a route the up/down rule rejects outright,
            # is unusable: our old route through the sender is gone too.
            route = None
            valid = data_dir is Direction.UP or not contains_up
            if not withdrawal and valid and hops + 1 <= self.max_hops:
                new_up = contains_up or data_dir is Direction.UP
                route = _Entry(metric + cost, hops + 1, new_up, sender)
            changed |= self._offer(key, sender, route)
        if changed:
            self.note_computation("dv_recompute")
        if changed or have_better_news:
            if have_better_news:
                self._pend(k for k, e in self.table.items() if e.next_hop != sender)
            self._schedule_flush()

    def _via(self, entry: _Entry) -> ADId:
        return entry.next_hop

    # ------------------------------------------------------------ validation

    def _check_entry(self, sender: ADId, dest: ADId, metric: float) -> Optional[str]:
        """Policy-in-topology is registry-checkable: the sender's transit
        offer must be consistent with its *registered* role (stubs never
        transit; hybrids only toward their down-side for destinations
        outside their registered customer cone)."""
        cfg = self.validation
        if cfg.origin_check and self.trusted_graph is not None:
            if not self.trusted_graph.has_ad(dest):
                return "unregistered destination"
        if cfg.metric_guard and metric == 0.0 and dest != sender:
            return "zero metric for foreign destination"
        if cfg.path_check and self.trusted_graph is not None and dest != sender:
            kind = self.trusted_graph.ad(sender).kind
            if not kind.may_transit:
                return "registered stub AD offers transit"
            if kind is ADKind.HYBRID and dest not in self._trusted_cone(sender):
                if self.order.direction(sender, self.ad_id) is not Direction.DOWN:
                    return "registered hybrid AD transits upward"
        return None

    def _trusted_cone(self, sender: ADId) -> FrozenSet[ADId]:
        cone = self._trusted_cones.get(sender)
        if cone is None:
            from repro.policy.generators import customer_cone

            cone = customer_cone(self.trusted_graph, sender)
            self._trusted_cones[sender] = cone
        return cone

    # ----------------------------------------------------------- misbehavior

    def _start_lie(self, lie: str) -> bool:
        return lie == "metric-lie" or super()._start_lie(lie)

    def _advertise_bogus_origin(self, victim: ADId) -> None:
        entries = tuple(
            (victim, q, 0.0, 0, False)
            for q in sorted(self.supported_qos, key=lambda q: q.value)
        )
        if entries:
            self.broadcast(ECMAUpdate(entries))

    # ------------------------------------------------------------- advertise

    def _batch(self, nbr: ADId) -> tuple:
        return nbr, [], []

    def _export(self, key: Tuple[ADId, QOS], suppressed: bool, batches: List[tuple]) -> None:
        dest, qos = key
        entry = None
        if suppressed:
            # Withdrawn once, then silenced until reuse.
            if not self._suppress_withdraw_once(key):
                return
        else:
            entry = self.table.get(key)
        if entry is None:
            # Withdrawals are not transit offers; they always go out (and
            # solicit re-offers from neighbours that still hold a route).
            withdrawal = (dest, qos, INFINITE_METRIC, 0, False)
            for _nbr, entries, _poisons in batches:
                entries.append(withdrawal)
            return
        metric = 0.0 if "metric-lie" in self._active_lies else entry.metric
        offer = (dest, qos, metric, entry.hops, entry.contains_up)
        for nbr, entries, poisons in batches:
            if not self._offers_transit(dest, nbr):
                continue
            if entry.next_hop != nbr:  # split horizon
                entries.append(offer)
            else:
                poisons.append(key)

    def _update(self, nbr: ADId, entries: list, poisons: list) -> Optional[ECMAUpdate]:
        if entries or poisons:
            return ECMAUpdate(tuple(entries), tuple(poisons))
        return None

    # ------------------------------------------------------------ forwarding

    def route_to(self, dest: ADId, qos: QOS) -> Optional[ADId]:
        entry = self.table.get((dest, qos))
        if entry is None:
            return None
        return None if entry.next_hop == self.ad_id and dest != self.ad_id else entry.next_hop


class ECMAProtocol(RoutingProtocol):
    """Driver for the ECMA design point (DV / hop-by-hop / topology)."""

    name: ClassVar[str] = "ecma"
    design_point = DV_HBH_TOPOLOGY
    mode = ForwardingMode.HOP_BY_HOP
    #: ECMA tables discriminate destination and QOS class only.
    fib_key_fields: ClassVar[Tuple[str, ...]] = ("src", "dst", "qos")

    def __init__(
        self,
        graph: InterADGraph,
        policies: PolicyDatabase,
        order: Optional[PartialOrder] = None,
        qos_classes: Optional[FrozenSet[QOS]] = None,
    ) -> None:
        super().__init__(graph, policies)
        self.order = order or PartialOrder.from_hierarchy(graph)
        #: Restrict the per-QOS FIB replication to these classes (None =
        #: whatever each AD's policy terms support).  Restricting to one
        #: class gives convergence comparisons a per-table-equal footing.
        self.qos_classes = qos_classes

    def _make_nodes(self, network: SimNetwork) -> None:
        from repro.policy.generators import customer_cone

        max_hops = min(self.order.max_valid_path_len(), 2 * self.graph.num_ads)
        for ad in self.graph.ads():
            hybrid = ad.kind is ADKind.HYBRID
            supported = supported_qos_classes(self.policies, ad.ad_id)
            if self.qos_classes is not None:
                supported = supported & self.qos_classes
            network.add_node(
                ECMANode(
                    ad.ad_id,
                    self.order,
                    may_transit=ad.kind.may_transit,
                    down_only_transit=hybrid,
                    supported_qos=supported,
                    max_hops=max_hops,
                    cone=customer_cone(self.graph, ad.ad_id) if hybrid else frozenset(),
                )
            )

    def next_hop(
        self, ad_id: ADId, flow: FlowSpec, prev: Optional[ADId]
    ) -> Optional[ADId]:
        node = self.network.node(ad_id)
        assert isinstance(node, ECMANode)
        return node.route_to(flow.dst, flow.qos)
