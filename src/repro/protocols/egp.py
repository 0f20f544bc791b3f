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
from typing import ClassVar, Dict, Iterable, List, Optional, Set, Tuple

from repro.adgraph.ad import ADId, InterADLink
from repro.adgraph.graph import InterADGraph
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.protocols.base import ForwardingMode, RoutingProtocol
from repro.protocols.validation import MAX_SEQ_JUMP
from repro.protocols.vector import VectorNode
from repro.simul.messages import AD_ID_BYTES, Message
from repro.simul.network import SimNetwork

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


class EGPNode(VectorNode):
    """Per-AD reachability process over the (tree) topology.

    ``table`` maps each reachable destination to the neighbour it was
    first heard from.
    """

    def __init__(self, ad_id: ADId) -> None:
        super().__init__(ad_id)
        self.table[ad_id] = ad_id
        self._update_seq = 0
        # Sequence numbers already processed, per sender.  Sets rather
        # than a high-water mark: jitter reorders, and a reordered update
        # is new content, not a duplicate.
        self._seen: Dict[ADId, Set[int]] = {}
        # Highest sequence number observed per sender (seq-guard state;
        # independent of the dedup hardening's seen-sets).
        self._last_seq: Dict[ADId, int] = {}
        self._replay_seq = 0

    def on_message(self, sender: ADId, msg: Message) -> None:
        if self.guard is not None and self.guard.suppresses(sender):
            return
        if isinstance(msg, NRAck):
            self.clear_retransmit((sender, msg.seq))
            return
        assert isinstance(msg, NRUpdate)
        if self._rejects(sender, self._check_update, sender, msg):
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
        self._flush_pending()

    def _pend(self, dests: Iterable[ADId]) -> None:
        # EGP has no unreachability propagation worth the name, so only
        # destinations still reached are news: a loss (link down, or a
        # lost destination's damping lifting) schedules nothing, and
        # downstream ADs learn of it only through timeouts in the real
        # protocol.  The tree remains silently stale, matching the
        # paper's dim view of EGP adaptivity.
        self._pending.update(d for d in dests if d in self.table)

    def _via(self, next_hop: ADId) -> ADId:
        return next_hop

    # ------------------------------------------------------------ validation

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
            if last and msg.seq > last + MAX_SEQ_JUMP:
                return "implausible sequence jump"
            self._last_seq[sender] = max(last, msg.seq)
        return None

    # ----------------------------------------------------------- misbehavior

    def _start_lie(self, lie: str) -> bool:
        # No metrics to lie about, no paths or terms to forge, and every
        # destination is exported to every neighbour already.
        return lie == "stale-replay"

    def _advertise_bogus_origin(self, victim: ADId) -> None:
        """Claim direct reachability of the victim (no provenance exists
        to contradict us -- but first-heard-wins limits the audience)."""
        self.broadcast(NRUpdate((victim,)))

    def _replay_stale(self) -> None:
        """Re-send our full reachability snapshot far above the honest
        sequence range (inert when unsequenced; a seq-guard trips it)."""
        self._replay_seq += 1_000
        dests = tuple(sorted(self.table))
        if dests:
            self.broadcast(NRUpdate(dests, seq=self._update_seq + self._replay_seq))

    # ------------------------------------------------------------- advertise

    def _export(self, dest: ADId, suppressed: bool, batches: List[tuple]) -> None:
        if suppressed:
            # EGP has no withdrawal currency at all, so a suppressed
            # destination is simply left out of the advertisement.
            return
        via = self.table.get(dest)
        for nbr, dests in batches:
            if via != nbr:
                dests.append(dest)

    def _update(self, nbr: ADId, dests: list) -> Optional[NRUpdate]:
        if not dests:
            return None
        if not (self.hardening.dedup or self.hardening.retransmit):
            return NRUpdate(tuple(dests))
        self._update_seq += 1
        update = NRUpdate(tuple(dests), seq=self._update_seq)
        if self.hardening.retransmit:
            # Armed before the engine sends the update: arming after it
            # could reorder same-instant events in hardened runs.
            self.arm_retransmit((nbr, update.seq), nbr, update)
        return update

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
        if self.strict and not self.graph.is_forest():
            raise TopologyViolationError(
                "EGP requires a cycle-free inter-AD topology"
            )
        self.tree_graph, self.excluded_links = _spanning_tree(self.graph)
        return super().build(SimNetwork(self.tree_graph))

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
