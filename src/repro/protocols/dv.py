"""Naive Bellman-Ford distance vector: the Section 4.3 baseline.

A textbook hop-count DV protocol with triggered (batched) updates, on
the vector engine (:class:`~repro.protocols.vector.VectorNode`).  Every
update carries the whole vector to every neighbour -- no split horizon,
no poisoned reverse -- so the protocol exhibits the classic
*count-to-infinity* the paper attributes to DV ("they can converge
slowly", Section 4.3): after a failure, stale routes bounce between
neighbours, inflating one hop per exchange until the ``infinity`` cap
(RIP's 16 by default) kills them.  The convergence experiment (E4)
measures this against ECMA.

The protocol is policy-blind: it computes shortest hop-count routes and
will happily forward through ADs whose policies forbid the traffic --
the availability evaluator counts those as illegal routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.protocols.base import ForwardingMode, RoutingProtocol
from repro.protocols.vector import TRIGGER_DELAY, VectorNode
from repro.simul.messages import AD_ID_BYTES, METRIC_BYTES, Message
from repro.simul.network import SimNetwork

#: Default metric cap ("infinity"), after RIP.
DEFAULT_INFINITY = 16


@dataclass(frozen=True)
class DVUpdate(Message):
    """A distance-vector advertisement: (destination, hop metric) pairs.

    ``poisons`` carries poisoned-reverse destinations separately from
    genuine entries: they are authoritative but must not solicit a
    re-offer (see the re-offer rule in :meth:`DVNode.on_message`).
    Naive DV never poisons, but it honours a received poison.
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


class DVNode(VectorNode):
    """The per-AD Bellman-Ford process.

    One entry per destination: a lost route stays in the table at the
    ``infinity`` metric, so news from its old next hop stays
    authoritative (count-to-infinity needs exactly that).
    """

    def __init__(
        self,
        ad_id: ADId,
        infinity: int = DEFAULT_INFINITY,
        trigger_delay: float = TRIGGER_DELAY,
    ) -> None:
        super().__init__(ad_id)
        self.infinity = infinity
        self.trigger_delay = trigger_delay
        self.table[ad_id] = _TableEntry(0, ad_id)

    # --------------------------------------------------------------- control

    def on_message(self, sender: ADId, msg: Message) -> None:
        assert isinstance(msg, DVUpdate)
        if self.guard is not None and self.guard.suppresses(sender):
            return
        changed = False
        have_better_news = False
        for dest in msg.poisons:
            changed |= self._offer(dest, sender, None)
        for dest, metric in msg.entries:
            if dest == self.ad_id:
                continue
            if self._rejects(sender, self._check_entry, sender, dest, metric):
                continue
            entry = self.table.get(dest)
            # Purely triggered updates need this re-offer rule: if the
            # sender is worse off than what we could give it, flush our
            # table so it can recover (periodic updates would do this for
            # free, at the cost of never quiescing).
            if entry is not None and entry.next_hop != sender:
                if entry.metric + 1 < metric:
                    have_better_news = True
            # News from the current next hop is authoritative, better or
            # worse -- this is what enables count-to-infinity.
            candidate = metric + 1
            route = _TableEntry(candidate, sender) if candidate < self.infinity else None
            changed |= self._offer(dest, sender, route)
        if changed:
            self.note_computation("dv_recompute")
        if changed or have_better_news:
            self._schedule_flush()

    def _remove(self, dest: ADId) -> None:
        self.table[dest].metric = self.infinity

    def _via(self, entry: _TableEntry) -> Optional[ADId]:
        return entry.next_hop if entry.metric < self.infinity else None

    def rib_size(self) -> int:
        return sum(1 for e in self.table.values() if e.metric < self.infinity)

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

    def _start_lie(self, lie: str) -> bool:
        # DV is policy-blind (nothing to leak) and carries no sequence
        # numbers or terms (nothing to replay or forge).  Its bogus
        # origin rides the vector, like the metric lie.
        return lie == "metric-lie"

    # ------------------------------------------------------------- advertise

    def _batch_keys(self) -> Dict[ADId, _TableEntry]:
        # Every update carries the whole vector.
        return self.table

    def _export(self, dest: ADId, suppressed: bool, batches: List[tuple]) -> None:
        if suppressed:
            # Withdrawn once, then omitted from every flush until the flap
            # penalty decays (repeating it would solicit re-offers forever).
            if not self._suppress_withdraw_once(dest):
                return
            metric = self.infinity
        else:
            metric = self.table[dest].metric
        for _nbr, entries in batches:
            entries.append((dest, metric))

    def _update(self, nbr: ADId, entries: list) -> Optional[DVUpdate]:
        if "metric-lie" in self._active_lies:
            entries = [(d, 0) for d, _m in entries]
        victim = self._active_lies.get("bogus-origin")
        if victim is not None and victim != self.ad_id:
            entries = [(d, m) for d, m in entries if d != victim]
            entries.append((victim, 0))
            entries.sort()
        return DVUpdate(tuple(entries)) if entries else None

    # ------------------------------------------------------------ forwarding

    def route_to(self, dest: ADId) -> Optional[ADId]:
        """Next hop toward ``dest``, or ``None`` if unreachable."""
        entry = self.table.get(dest)
        return None if entry is None else self._via(entry)


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
        trigger_delay: float = TRIGGER_DELAY,
    ) -> None:
        super().__init__(graph, policies)
        if trigger_delay < 0:
            raise ValueError("trigger_delay must be non-negative")
        self.infinity = infinity
        self.trigger_delay = trigger_delay

    def _make_nodes(self, network: SimNetwork) -> None:
        for ad_id in self.graph.ad_ids():
            network.add_node(DVNode(ad_id, self.infinity, self.trigger_delay))

    def next_hop(
        self, ad_id: ADId, flow: FlowSpec, prev: Optional[ADId]
    ) -> Optional[ADId]:
        node = self.network.node(ad_id)
        assert isinstance(node, DVNode)
        nxt = node.route_to(flow.dst)
        return None if nxt == ad_id else nxt
