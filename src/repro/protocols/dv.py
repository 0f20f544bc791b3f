"""Naive Bellman-Ford distance vector: the Section 4.3 baseline.

A textbook hop-count DV protocol with triggered (batched) updates.  Two
knobs matter for the convergence experiment (E4):

* ``split_horizon`` / ``poison_reverse`` — off by default, so the protocol
  exhibits the classic *count-to-infinity* the paper attributes to DV
  ("they can converge slowly", Section 4.3): after a failure, stale
  routes bounce between neighbours, inflating one hop per exchange until
  the ``infinity`` cap kills them.
* ``infinity`` — the metric cap (RIP's 16 by default).

The protocol is policy-blind: it computes shortest hop-count routes and
will happily forward through ADs whose policies forbid the traffic --
the availability evaluator counts those as illegal routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

from repro.adgraph.ad import ADId, InterADLink
from repro.adgraph.graph import InterADGraph
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.protocols.base import ForwardingMode, RoutingProtocol
from repro.protocols.pacing import TRIGGER_DELAY, OverloadDefenseMixin
from repro.simul.messages import AD_ID_BYTES, METRIC_BYTES, Message
from repro.simul.network import SimNetwork
from repro.simul.node import ProtocolNode

#: Default metric cap ("infinity"), after RIP.
DEFAULT_INFINITY = 16


@dataclass(frozen=True)
class DVUpdate(Message):
    """A distance-vector advertisement: (destination, hop metric) pairs.

    ``poisons`` carries poisoned-reverse destinations separately from
    genuine entries: they are authoritative but must not solicit a
    re-offer (see the re-offer rule in :meth:`DVNode.on_message`).
    """

    entries: Tuple[Tuple[ADId, int], ...]
    poisons: Tuple[ADId, ...] = ()

    def size_bytes(self) -> int:
        return (
            super().size_bytes()
            + len(self.entries) * (AD_ID_BYTES + METRIC_BYTES)
            + len(self.poisons) * AD_ID_BYTES
        )


@dataclass
class _TableEntry:
    metric: int
    next_hop: Optional[ADId]


class DVNode(OverloadDefenseMixin, ProtocolNode):
    """The per-AD Bellman-Ford process."""

    def __init__(
        self,
        ad_id: ADId,
        infinity: int = DEFAULT_INFINITY,
        split_horizon: bool = False,
        poison_reverse: bool = False,
        trigger_delay: float = TRIGGER_DELAY,
    ) -> None:
        super().__init__(ad_id)
        self.infinity = infinity
        self.split_horizon = split_horizon
        self.poison_reverse = poison_reverse
        self.trigger_delay = trigger_delay
        self.table: Dict[ADId, _TableEntry] = {ad_id: _TableEntry(0, ad_id)}

    # --------------------------------------------------------------- control

    def start(self) -> None:
        self._schedule_flush()

    def on_message(self, sender: ADId, msg: Message) -> None:
        assert isinstance(msg, DVUpdate)
        if self.guard is not None and self.guard.suppresses(sender):
            return
        changed = False
        have_better_news = False
        for dest in msg.poisons:
            entry = self.table.get(dest)
            if entry is not None and entry.next_hop == sender:
                if entry.metric != self.infinity:
                    entry.metric = self.infinity
                    changed = True
                    self._damp_loss(dest)
        for dest, metric in msg.entries:
            if dest == self.ad_id:
                continue
            if self._rejects(sender, self._check_entry, sender, dest, metric):
                continue
            candidate = min(metric + 1, self.infinity)
            entry = self.table.get(dest)
            # Purely triggered updates need this re-offer rule: if the
            # sender is worse off than what we could give it, flush our
            # table so it can recover (periodic updates would do this for
            # free, at the cost of never quiescing).
            if entry is not None and entry.next_hop != sender:
                if entry.metric + 1 < metric:
                    have_better_news = True
            if entry is None:
                if candidate < self.infinity:
                    self.table[dest] = _TableEntry(candidate, sender)
                    changed = True
            elif entry.next_hop == sender:
                # News from the current next hop is authoritative, better
                # or worse -- this is what enables count-to-infinity.
                if entry.metric != candidate:
                    if candidate >= self.infinity > entry.metric:
                        self._damp_loss(dest)
                    entry.metric = candidate
                    changed = True
            elif candidate < entry.metric:
                entry.metric = candidate
                entry.next_hop = sender
                changed = True
        if changed:
            self.note_computation("dv_recompute")
        if changed or have_better_news:
            self._schedule_flush()

    def on_link_change(self, link: InterADLink, up: bool) -> None:
        nbr = link.other(self.ad_id)
        if up:
            # A new neighbour: share the full table immediately.
            self._schedule_flush()
            return
        changed = False
        for dest, entry in self.table.items():
            if entry.next_hop == nbr and dest != self.ad_id:
                if entry.metric != self.infinity:
                    entry.metric = self.infinity
                    changed = True
                    self._damp_loss(dest)
        if changed:
            self._enter_holddown()
            self._schedule_flush()

    # ------------------------------------------------------------ validation

    def _check_entry(self, sender: ADId, dest: ADId, metric: int) -> Optional[str]:
        """Hop-count sanity: metric 0 means "I am the destination" and
        metric 1 means "I am adjacent to it" -- both are checkable
        against the registry; anything deeper is not (DV hides paths)."""
        cfg = self.validation
        if cfg.metric_guard and metric == 0 and dest != sender:
            return "zero metric for foreign destination"
        if cfg.origin_check and self.trusted_graph is not None:
            if not self.trusted_graph.has_ad(dest):
                return "unregistered destination"
            if metric == 1 and not self.trusted_graph.has_link(sender, dest):
                return "claimed adjacency is unregistered"
        return None

    # ----------------------------------------------------------- misbehavior

    def _tell_lie(self, lie: str, target: Optional[ADId]) -> bool:
        if lie == "metric-lie":
            self._active_lies[lie] = None
            self._schedule_flush()
            return True
        if lie == "bogus-origin":
            if target is None:
                return False
            self._active_lies[lie] = target
            self._schedule_flush()
            return True
        # DV is policy-blind (nothing to leak) and carries no sequence
        # numbers or terms (nothing to replay or forge).
        return False

    def _reassert_lies(self) -> None:
        self._schedule_flush()

    def _apply_lies(self, entries: "list") -> "list":
        if "metric-lie" in self._active_lies:
            entries = [(d, 0) for d, _m in entries]
        victim = self._active_lies.get("bogus-origin")
        if victim is not None and victim != self.ad_id:
            entries = [(d, m) for d, m in entries if d != victim]
            entries.append((victim, 0))
            entries.sort()
        return entries

    # ------------------------------------------------------------- advertise

    def _flush_batch(self) -> None:
        # Suppressed destinations are withdrawn once, then omitted from
        # every flush until their flap penalty decays (repeating the
        # withdrawal would solicit re-offers forever).
        withdraw: set = set()
        silent: set = set()
        if self.pacing.damp and self._damper is not None:
            for dest in self.table:
                if dest != self.ad_id and self._damp_suppressed(dest):
                    (withdraw if self._suppress_withdraw_once(dest) else silent).add(dest)
                    self.suppressed_announcements += 1
        for nbr in self.neighbors():
            entries = []
            poisons = []
            for dest in sorted(self.table):
                entry = self.table[dest]
                if dest in withdraw:
                    entries.append((dest, self.infinity))
                    continue
                if dest in silent:
                    continue
                if self.split_horizon and entry.next_hop == nbr and dest != self.ad_id:
                    if self.poison_reverse:
                        poisons.append(dest)
                    continue
                entries.append((dest, entry.metric))
            if self._active_lies:
                entries = self._apply_lies(entries)
            if entries or poisons:
                self.send(nbr, DVUpdate(tuple(entries), tuple(poisons)))

    def _on_reuse(self, key) -> None:
        # A damped destination became reusable: re-advertise its entry.
        self._schedule_flush()

    # ------------------------------------------------------------ forwarding

    def route_to(self, dest: ADId) -> Optional[ADId]:
        """Next hop toward ``dest``, or ``None`` if unreachable."""
        entry = self.table.get(dest)
        if entry is None or entry.metric >= self.infinity:
            return None
        return entry.next_hop

    def reachable_count(self) -> int:
        return sum(1 for e in self.table.values() if e.metric < self.infinity)


class DistanceVectorProtocol(RoutingProtocol):
    """Driver for the naive DV baseline."""

    name: ClassVar[str] = "naive-dv"
    design_point = None
    mode = ForwardingMode.HOP_BY_HOP
    policy_aware: ClassVar[bool] = False
    #: Naive DV forwards on destination alone.
    fib_key_fields: ClassVar[Tuple[str, ...]] = ("src", "dst")

    def __init__(
        self,
        graph: InterADGraph,
        policies: PolicyDatabase,
        infinity: int = DEFAULT_INFINITY,
        split_horizon: bool = False,
        poison_reverse: bool = False,
        trigger_delay: float = TRIGGER_DELAY,
    ) -> None:
        super().__init__(graph, policies)
        if trigger_delay < 0:
            raise ValueError("trigger_delay must be non-negative")
        self.infinity = infinity
        self.split_horizon = split_horizon
        self.poison_reverse = poison_reverse
        self.trigger_delay = trigger_delay

    def _make_nodes(self, network: SimNetwork) -> None:
        for ad_id in self.graph.ad_ids():
            network.add_node(
                DVNode(
                    ad_id,
                    self.infinity,
                    self.split_horizon,
                    self.poison_reverse,
                    self.trigger_delay,
                )
            )

    def next_hop(
        self, ad_id: ADId, flow: FlowSpec, prev: Optional[ADId]
    ) -> Optional[ADId]:
        node = self.network.node(ad_id)
        assert isinstance(node, DVNode)
        nxt = node.route_to(flow.dst)
        return None if nxt == ad_id else nxt

    def rib_size(self, ad_id: ADId) -> int:
        node = self.network.node(ad_id)
        assert isinstance(node, DVNode)
        return node.reachable_count()
