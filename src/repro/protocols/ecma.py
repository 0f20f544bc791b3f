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

from repro.adgraph.ad import ADId, ADKind, InterADLink
from repro.adgraph.graph import InterADGraph
from repro.adgraph.partial_order import Direction, PartialOrder
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.protocols.base import ForwardingMode, RoutingProtocol
from repro.protocols.pacing import OverloadDefenseMixin
from repro.simul.messages import AD_ID_BYTES, METRIC_BYTES, Message
from repro.simul.network import SimNetwork
from repro.simul.node import ProtocolNode
from repro.core.design_space import DV_HBH_TOPOLOGY

#: Delay before a triggered update batch is flushed.
TRIGGER_DELAY = 1.0

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


class ECMANode(OverloadDefenseMixin, ProtocolNode):
    """Per-AD ECMA process."""

    LIE_REASSERT_INTERVAL = 60.0
    LIE_REASSERT_COUNT = 6

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
        self.order = order
        self.may_transit = may_transit
        self.down_only_transit = down_only_transit
        self.supported_qos = supported_qos
        self.max_hops = max_hops
        self.cone = cone
        self.table: Dict[Tuple[ADId, QOS], _Entry] = {}
        for q in supported_qos:
            self.table[(ad_id, q)] = _Entry(0.0, 0, False, ad_id)
        self._pending: Set[Tuple[ADId, QOS]] = set()
        self._flush_scheduled = False
        self._active_lies: Dict[str, Optional[ADId]] = {}
        self._honest_transit = (may_transit, down_only_transit)
        self._lie_ticks_left = 0
        self._lie_tick_pending = False
        self._trusted_cones: Dict[ADId, FrozenSet[ADId]] = {}

    # --------------------------------------------------------------- control

    def start(self) -> None:
        self._pending.update(self.table)
        self._schedule_flush()

    def on_message(self, sender: ADId, msg: Message) -> None:
        assert isinstance(msg, ECMAUpdate)
        if not self.topology.has_link(self.ad_id, sender):
            return
        link = self.topology.link(self.ad_id, sender)
        if not link.up:
            return
        if self.guard is not None and self.guard.suppresses(sender):
            return
        # Direction the *data* would travel: from us toward the sender.
        data_dir = self.order.direction(self.ad_id, sender)
        changed = False
        have_better_news = False
        for key in msg.poisons:
            entry = self.table.get(key)
            if entry is not None and entry.next_hop == sender:
                del self.table[key]
                self._pending.add(key)
                changed = True
                self._damp_loss(key)
        for dest, qos, metric, hops, contains_up in msg.entries:
            if dest == self.ad_id or qos not in self.supported_qos:
                continue
            if not math.isinf(metric) and self._rejects(sender, dest, metric):
                continue
            key = (dest, qos)
            entry = self.table.get(key)
            if entry is not None and entry.next_hop != sender:
                my_offer = entry.metric + link.metric(qos.metric)
                if my_offer < metric:
                    have_better_news = True
            if math.isinf(metric):
                # Withdrawal: only authoritative from our next hop.
                if entry is not None and entry.next_hop == sender:
                    del self.table[key]
                    self._pending.add(key)
                    changed = True
                    self._damp_loss(key)
                continue
            valid = data_dir is Direction.UP or not contains_up
            if not valid or hops + 1 > self.max_hops:
                # The up/down rule rejects this route outright; if it came
                # from our next hop, our old route is gone too.
                if entry is not None and entry.next_hop == sender:
                    del self.table[key]
                    self._pending.add(key)
                    changed = True
                    self._damp_loss(key)
                continue
            new_metric = metric + link.metric(qos.metric)
            new_up = contains_up or data_dir is Direction.UP
            if entry is not None and entry.next_hop == sender:
                if (entry.metric, entry.hops, entry.contains_up) != (
                    new_metric,
                    hops + 1,
                    new_up,
                ):
                    entry.metric = new_metric
                    entry.hops = hops + 1
                    entry.contains_up = new_up
                    self._pending.add(key)
                    changed = True
            elif entry is None or new_metric < entry.metric:
                self.table[key] = _Entry(new_metric, hops + 1, new_up, sender)
                self._pending.add(key)
                changed = True
        if changed:
            self.note_computation("dv_recompute")
        if changed or have_better_news:
            if have_better_news:
                self._pending.update(
                    k for k, e in self.table.items() if e.next_hop != sender
                )
            self._schedule_flush()

    def on_link_change(self, link: InterADLink, up: bool) -> None:
        nbr = link.other(self.ad_id)
        if up:
            self._pending.update(self.table)
            self._schedule_flush()
            return
        lost = [k for k, e in self.table.items() if e.next_hop == nbr]
        for key in lost:
            del self.table[key]
            self._pending.add(key)
            self._damp_loss(key)
        if lost:
            self._enter_holddown()
            self._schedule_flush()

    # ------------------------------------------------------------ validation

    def _rejects(self, sender: ADId, dest: ADId, metric: float) -> bool:
        if not self.validation.checks_enabled:
            return False
        reason = self._check_entry(sender, dest, metric)
        if reason is None:
            return False
        if self.guard is not None:
            self.guard.violation(sender, reason)
        return True

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

    def misbehave(self, lie: str, target: Optional[ADId] = None) -> bool:
        applied = self._tell_lie(lie, target)
        if applied and self._lie_ticks_left == 0:
            self._lie_ticks_left = self.LIE_REASSERT_COUNT
            self._arm_lie_tick()
        return applied

    def _tell_lie(self, lie: str, target: Optional[ADId] = None) -> bool:
        if lie == "route-leak":
            if self.may_transit and not self.down_only_transit:
                # Already a full-transit AD in the topology regime.
                return False
            self._active_lies[lie] = None
            self.may_transit = True
            self.down_only_transit = False
            self._pending.update(self.table)
            self._schedule_flush()
            return True
        if lie == "metric-lie":
            self._active_lies[lie] = None
            self._pending.update(self.table)
            self._schedule_flush()
            return True
        if lie == "bogus-origin":
            if target is None:
                return False
            self._active_lies[lie] = target
            self._advertise_bogus_origin(target)
            return True
        return False

    def behave(self) -> None:
        self._active_lies.clear()
        self._lie_ticks_left = 0
        self.may_transit, self.down_only_transit = self._honest_transit

    def _advertise_bogus_origin(self, victim: ADId) -> None:
        entries = tuple(
            (victim, q, 0.0, 0, False)
            for q in sorted(self.supported_qos, key=lambda q: q.value)
        )
        if entries:
            self.broadcast(ECMAUpdate(entries))

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
            self._pending.update(self.table)
            self._schedule_flush()
        victim = self._active_lies.get("bogus-origin")
        if victim is not None:
            self._advertise_bogus_origin(victim)
        if self._lie_ticks_left > 0:
            self._arm_lie_tick()

    # ------------------------------------------------------------- advertise

    def _schedule_flush(self) -> None:
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.schedule(TRIGGER_DELAY, self._flush)

    def _exportable(self, key: Tuple[ADId, QOS], nbr: ADId) -> bool:
        """Transit policy in topology: may we offer this route to ``nbr``?

        Hybrid ADs apply the customer/provider export rule: destinations
        inside their customer cone are advertised to everyone (anyone may
        send *to* our customers through us), destinations outside the
        cone only downward (only our customers may send *through* us to
        the rest of the world).  That is "limited transit" expressed
        purely in topology.
        """
        dest, _qos = key
        if dest == self.ad_id:
            return True
        if not self.may_transit:
            return False
        if self.down_only_transit and dest not in self.cone:
            return self.order.direction(self.ad_id, nbr) is Direction.DOWN
        return True

    def _flush(self) -> None:
        wait = self._pacing_defers_flush()
        if wait is not None:
            self.schedule(wait, self._flush)
            return
        self._flush_scheduled = False
        keys = sorted(self._pending, key=lambda k: (k[0], k[1].value))
        self._pending.clear()
        if not keys:
            return
        # Suppressed keys are withdrawn once, then silenced until reuse.
        withdraw: Set[Tuple[ADId, QOS]] = set()
        silent: Set[Tuple[ADId, QOS]] = set()
        if self.pacing.damp and self._damper is not None:
            for key in keys:
                if key[0] != self.ad_id and self._damp_suppressed(key):
                    (withdraw if self._suppress_withdraw_once(key) else silent).add(key)
                    self.suppressed_announcements += 1
        for nbr in self.neighbors():
            entries: List[Tuple[ADId, QOS, float, int, bool]] = []
            poisons: List[Tuple[ADId, QOS]] = []
            for key in keys:
                if key in withdraw:
                    entries.append((key[0], key[1], INFINITE_METRIC, 0, False))
                    continue
                if key in silent:
                    continue
                entry = self.table.get(key)
                if entry is None:
                    # Withdrawals are not transit offers; they always go
                    # out (and solicit re-offers from neighbours that
                    # still hold a route).
                    entries.append((key[0], key[1], INFINITE_METRIC, 0, False))
                    continue
                if not self._exportable(key, nbr):
                    continue
                if entry.next_hop != nbr:  # split horizon
                    metric = (
                        0.0
                        if "metric-lie" in self._active_lies
                        else entry.metric
                    )
                    entries.append(
                        (key[0], key[1], metric, entry.hops, entry.contains_up)
                    )
                else:
                    poisons.append(key)
            if entries or poisons:
                self.send(nbr, ECMAUpdate(tuple(entries), tuple(poisons)))

    def _on_reuse(self, key) -> None:
        # A damped (dest, qos) became reusable: re-advertise it.
        self._pending.add(key)
        self._schedule_flush()

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

    def rib_size(self, ad_id: ADId) -> int:
        node = self.network.node(ad_id)
        assert isinstance(node, ECMANode)
        return len(node.table)
