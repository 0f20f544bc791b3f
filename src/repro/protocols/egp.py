"""EGP-style reachability exchange: the Section 3 exterior baseline.

EGP (RFC 827) exchanges *reachability*, not metrics, and "places a severe
topology restriction on interconnected regions -- there can be no cycles
in the EGP graph" (Section 3).  The paper calls this unreasonable for a
global internet whose ADs want multiple inter-AD connections.

This implementation makes that restriction concrete:

* in ``strict`` mode, building the protocol on a cyclic topology raises
  :class:`TopologyViolationError`;
* otherwise the topology is pruned to a spanning tree (hierarchical links
  preferred) and the protocol runs on the tree -- every lateral and
  bypass link is simply unusable, which is exactly the cost the paper
  ascribes to EGP.  The pruned links are counted in
  :attr:`EGPProtocol.excluded_links`.

EGP has no QOS and no policy expression beyond "what I choose to
advertise", so its routes are frequently illegal under restrictive policy
scenarios; the availability evaluator quantifies this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Set, Tuple

from repro.adgraph.ad import ADId, InterADLink
from repro.adgraph.graph import InterADGraph
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.protocols.base import ForwardingMode, RoutingProtocol
from repro.protocols.pacing import OverloadDefenseMixin
from repro.simul.messages import AD_ID_BYTES, Message
from repro.simul.network import SimNetwork
from repro.simul.node import ProtocolNode

#: Delay before a triggered reachability batch is flushed.
TRIGGER_DELAY = 1.0


class TopologyViolationError(ValueError):
    """The topology contains a cycle, which strict EGP cannot tolerate."""


@dataclass(frozen=True)
class NRUpdate(Message):
    """A network-reachability advertisement: destinations only, no metric.

    ``seq`` (nonzero only under hardening) lets the receiver suppress
    duplicates and acknowledge receipt; its four bytes are only charged
    when carried, so unhardened runs keep legacy byte counts.
    """

    dests: Tuple[ADId, ...]
    seq: int = 0

    def size_bytes(self) -> int:
        return (
            super().size_bytes()
            + len(self.dests) * AD_ID_BYTES
            + (4 if self.seq else 0)
        )


@dataclass(frozen=True)
class NRAck(Message):
    """Acknowledges a sequenced :class:`NRUpdate` (hardening only)."""

    seq: int

    def size_bytes(self) -> int:
        return super().size_bytes() + 4


class EGPNode(OverloadDefenseMixin, ProtocolNode):
    """Per-AD reachability process over the (tree) topology."""

    LIE_REASSERT_INTERVAL = 60.0
    LIE_REASSERT_COUNT = 6

    def __init__(self, ad_id: ADId) -> None:
        super().__init__(ad_id)
        self.table: Dict[ADId, ADId] = {ad_id: ad_id}
        self._pending: Set[ADId] = set()
        self._flush_scheduled = False
        self._update_seq = 0
        # Sequence numbers already processed, per sender.  Sets rather
        # than a high-water mark: jitter reorders, and a reordered update
        # is new content, not a duplicate.
        self._seen: Dict[ADId, Set[int]] = {}
        self._unacked: Dict[Tuple[ADId, int], NRUpdate] = {}
        # Highest sequence number observed per sender (seq-guard state;
        # independent of the dedup hardening's seen-sets).
        self._last_seq: Dict[ADId, int] = {}
        self._active_lies: Dict[str, Optional[ADId]] = {}
        self._replay_seq = 0
        self._lie_ticks_left = 0
        self._lie_tick_pending = False

    def start(self) -> None:
        self._pending.add(self.ad_id)
        self._schedule_flush()

    def on_message(self, sender: ADId, msg: Message) -> None:
        if self.guard is not None and self.guard.suppresses(sender):
            return
        if isinstance(msg, NRAck):
            self._unacked.pop((sender, msg.seq), None)
            return
        assert isinstance(msg, NRUpdate)
        if self._rejects(sender, msg):
            return
        if msg.seq:
            # Always re-ack: the retransmission we are answering may be
            # there because our previous ack was itself lost.
            self.send(sender, NRAck(msg.seq))
            if self.hardening.dedup:
                seen = self._seen.setdefault(sender, set())
                if msg.seq in seen:
                    self.duplicates_ignored += 1
                    return
                seen.add(msg.seq)
        for dest in msg.dests:
            if dest not in self.table:
                self.table[dest] = sender
                self._pending.add(dest)
        if self._pending:
            self._schedule_flush()

    def on_link_change(self, link: InterADLink, up: bool) -> None:
        nbr = link.other(self.ad_id)
        if up:
            # Re-advertise everything we know over the restored adjacency.
            self._pending.update(self.table)
            self._schedule_flush()
            return
        lost = [d for d, nh in self.table.items() if nh == nbr]
        for dest in lost:
            del self.table[dest]
            self._damp_loss(dest)
        if lost:
            self._enter_holddown()
        # EGP has no unreachability propagation worth the name; downstream
        # ADs learn of losses only through timeouts in the real protocol.
        # We model the loss locally and let the tree remain silently stale,
        # matching the paper's dim view of EGP adaptivity.

    # ------------------------------------------------------------ validation

    def _rejects(self, sender: ADId, msg: NRUpdate) -> bool:
        if not self.validation.checks_enabled:
            return False
        reason = self._check_update(sender, msg)
        if reason is None:
            return False
        if self.guard is not None:
            self.guard.violation(sender, reason)
        return True

    def _check_update(self, sender: ADId, msg: NRUpdate) -> Optional[str]:
        """EGP's only checkable claims: destinations must be registered
        ADs, and sequence numbers must advance plausibly.  Which *paths*
        reachability flows over is invisible -- the protocol's structural
        blindness, which the threat-model table records."""
        cfg = self.validation
        if cfg.origin_check and self.trusted_graph is not None:
            for dest in msg.dests:
                if not self.trusted_graph.has_ad(dest):
                    return "unregistered destination"
        if cfg.seq_guard and msg.seq:
            last = self._last_seq.get(sender, 0)
            if last and msg.seq > last + self.validation.max_seq_jump:
                return "implausible sequence jump"
            self._last_seq[sender] = max(last, msg.seq)
        return None

    # ----------------------------------------------------------- misbehavior

    def misbehave(self, lie: str, target: Optional[ADId] = None) -> bool:
        applied = self._tell_lie(lie, target)
        if applied and self._lie_ticks_left == 0:
            self._lie_ticks_left = self.LIE_REASSERT_COUNT
            self._arm_lie_tick()
        return applied

    def _tell_lie(self, lie: str, target: Optional[ADId] = None) -> bool:
        if lie == "bogus-origin":
            if target is None:
                return False
            self._active_lies[lie] = target
            self._advertise_bogus_origin(target)
            return True
        if lie == "stale-replay":
            self._active_lies[lie] = None
            self._flood_replay()
            return True
        # No metrics to lie about, no paths or terms to forge, and every
        # destination is exported to every neighbour already.
        return False

    def behave(self) -> None:
        self._active_lies.clear()
        self._lie_ticks_left = 0

    def _advertise_bogus_origin(self, victim: ADId) -> None:
        """Claim direct reachability of the victim (no provenance exists
        to contradict us -- but first-heard-wins limits the audience)."""
        self.broadcast(NRUpdate((victim,)))

    def _flood_replay(self) -> None:
        """Re-send our full reachability snapshot far above the honest
        sequence range (inert when unsequenced; a seq-guard trips it)."""
        self._replay_seq += 1_000
        dests = tuple(sorted(self.table))
        if dests:
            self.broadcast(NRUpdate(dests, seq=self._update_seq + self._replay_seq))

    def _arm_lie_tick(self) -> None:
        if not self._lie_tick_pending:
            self._lie_tick_pending = True
            self.schedule(self.LIE_REASSERT_INTERVAL, self._lie_tick)

    def _lie_tick(self) -> None:
        self._lie_tick_pending = False
        if not self._active_lies or self._lie_ticks_left <= 0:
            return
        self._lie_ticks_left -= 1
        victim = self._active_lies.get("bogus-origin")
        if victim is not None:
            self._advertise_bogus_origin(victim)
        if "stale-replay" in self._active_lies:
            self._flood_replay()
        if self._lie_ticks_left > 0:
            self._arm_lie_tick()

    # ------------------------------------------------------------- advertise

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
        dests = tuple(sorted(self._pending))
        self._pending.clear()
        if not dests:
            return
        if self.pacing.damp and self._damper is not None:
            # EGP has no withdrawal currency at all, so a suppressed
            # destination is simply left out of the advertisement.
            kept = tuple(d for d in dests if not self._damp_suppressed(d))
            self.suppressed_announcements += len(dests) - len(kept)
            dests = kept
            if not dests:
                return
        sequenced = self.hardening.dedup or self.hardening.retransmit
        for nbr in self.neighbors():
            advertise = tuple(d for d in dests if self.table.get(d) != nbr)
            if not advertise:
                continue
            if sequenced:
                self._update_seq += 1
                update = NRUpdate(advertise, seq=self._update_seq)
                if self.hardening.retransmit:
                    self._unacked[(nbr, update.seq)] = update
                    self.schedule(
                        self.hardening.retransmit_timeout,
                        self._retry_update,
                        nbr,
                        update.seq,
                        self.hardening.max_retries,
                    )
            else:
                update = NRUpdate(advertise)
            self.send(nbr, update)

    def _retry_update(self, nbr: ADId, seq: int, retries_left: int) -> None:
        update = self._unacked.get((nbr, seq))
        if update is None:
            return
        if retries_left <= 0:
            del self._unacked[(nbr, seq)]
            return
        self.send(nbr, update)
        self.schedule(
            self.hardening.retransmit_timeout,
            self._retry_update,
            nbr,
            seq,
            retries_left - 1,
        )

    def _on_reuse(self, key) -> None:
        # A damped destination became reusable: re-advertise if we still
        # (or again) know a route to it.
        if key in self.table:
            self._pending.add(key)
            self._schedule_flush()

    def route_to(self, dest: ADId) -> Optional[ADId]:
        nxt = self.table.get(dest)
        return None if nxt == self.ad_id and dest != self.ad_id else nxt


def _spanning_tree(graph: InterADGraph) -> Tuple[InterADGraph, int]:
    """Prune to a spanning tree preferring hierarchical links.

    Returns the pruned graph and the number of excluded links; see
    :func:`repro.adgraph.trees.spanning_tree_links` for the tree choice.
    """
    from repro.adgraph.trees import spanning_tree_links

    kept = spanning_tree_links(graph)
    pruned = InterADGraph()
    for ad in graph.ads():
        pruned.add_ad(ad)
    excluded = 0
    for link in graph.links():
        if link.key in kept:
            pruned.add_link(
                InterADLink(link.a, link.b, link.kind, dict(link.metrics), link.up)
            )
        else:
            excluded += 1
    return pruned, excluded


class EGPProtocol(RoutingProtocol):
    """Driver for the EGP baseline."""

    name: ClassVar[str] = "egp"
    design_point = None
    mode = ForwardingMode.HOP_BY_HOP
    policy_aware: ClassVar[bool] = False
    #: EGP's pruned-tree tables are destination-only.
    fib_key_fields: ClassVar[Tuple[str, ...]] = ("src", "dst")

    def __init__(
        self,
        graph: InterADGraph,
        policies: PolicyDatabase,
        strict: bool = False,
    ) -> None:
        super().__init__(graph, policies)
        self.strict = strict
        self.excluded_links = 0
        self.tree_graph: Optional[InterADGraph] = None

    def build(self, network=None) -> SimNetwork:
        if self.network is not None:
            return self.network
        if network is not None:
            raise RuntimeError(
                "egp builds its own spanning-tree network; a pre-built "
                "substrate cannot be adopted"
            )
        import networkx as nx

        cyclic = bool(nx.cycle_basis(self.graph.nx_graph(live_only=True)))
        if cyclic and self.strict:
            raise TopologyViolationError(
                "EGP requires a cycle-free inter-AD topology"
            )
        self.tree_graph, self.excluded_links = _spanning_tree(self.graph)
        self.network = SimNetwork(self.tree_graph)
        self._make_nodes(self.network)
        self._distribute_runtime(self.network)
        return self.network

    def _make_nodes(self, network: SimNetwork) -> None:
        for ad_id in self.graph.ad_ids():
            network.add_node(EGPNode(ad_id))

    def apply_link_status(self, a: ADId, b: ADId, up: bool) -> None:
        """Physical failures affect the real graph always, the EGP tree
        only when the failed link survived pruning."""
        network = self._require_network()
        self.graph.set_link_status(a, b, up)
        if network.graph.has_link(a, b):
            network.set_link_status(a, b, up)

    def next_hop(
        self, ad_id: ADId, flow: FlowSpec, prev: Optional[ADId]
    ) -> Optional[ADId]:
        node = self.network.node(ad_id)
        assert isinstance(node, EGPNode)
        return node.route_to(flow.dst)

    def rib_size(self, ad_id: ADId) -> int:
        node = self.network.node(ad_id)
        assert isinstance(node, EGPNode)
        return len(node.table)
