"""FIB compilation: converged routing state -> compressed lookup arrays.

Forwarding a packet by asking the protocol at every hop pays a dict
lookup plus a policy re-evaluation per hop per packet; at 10^6 flows
that is the wrong shape.  This module compiles a protocol's *converged*
control state into a :class:`CompiledFIB`: flat integer arrays a batch
replay engine indexes instead of re-deriving.

What gets compiled, per flow class (deduplicated ``FlowSpec``):

* the forwarding decision chain -- :meth:`RoutingProtocol.walk
  <repro.protocols.base.RoutingProtocol.walk>`, the same believed walk
  ``find_route`` answers from, taken **once** at compile time against
  the frozen control state (exactly the route-setup model of Section
  5.4: pay the route computation once, install state, then data
  packets index it);
* per hop: a dense link index (for the liveness check) and the frozen
  policy verdict (policies are static; the paper's per-transit
  enforcement collapses to one precomputed bit per hop);
* per class: the cumulative link delay of the full path.

The walk judges nothing physical, so compiling adds the one static
physical rule: the first hop over a link the graph does not have (a
forged LSA's belief) makes the class ``DEAD_LINK`` and cuts the program
before that hop.  What stays **dynamic** at lookup time is exactly what
is dynamic for a real packet: link liveness.  ``lookup_batch`` walks
each class's hop array against a liveness bitmap snapshot, so a FIB
compiled before a crash, replayed after it, reports precisely the
stale-route blackholes a converged-then-surprised router would -- the
E14 observable.

Two adapters mirror Table 1's forwarding axis:

* **table-driven** (hop-by-hop design points): compile also builds
  per-node compressed next-hop tables -- interned dst -> one byte/short
  pointer into a short shared next-hop ("via") list, the classic
  pointer-table FIB compression -- for state accounting;
* **route-setup** (source-routed design points): state is per-flow path
  state installed at the source and a handle entry at each transit AD,
  the Section 5.4 model.

Equivalence with a per-packet forwarder is enforced by tests
(``tests/test_traffic_fib.py``): for every design point,
``lookup_batch`` verdicts must match ``forward_verdict`` of
``tests/oracles.py``, which judges links, liveness and transit policy
hop by hop, packet for packet, including on stale post-crash
snapshots.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.policy.flows import FlowSpec
from repro.protocols.base import (
    DEAD_LINK,
    DELIVERED,
    POLICY_DROP,
    ForwardingMode,
    RoutingProtocol,
)

# ------------------------------------------------------------------ indexes


class LinkIndex:
    """Dense indexing of a graph's links + liveness bitmap snapshots."""

    def __init__(self, graph: InterADGraph) -> None:
        self.graph = graph
        self.keys: List[Tuple[ADId, ADId]] = [l.key for l in graph.links()]
        self.index: Dict[Tuple[ADId, ADId], int] = {
            key: i for i, key in enumerate(self.keys)
        }
        self.delays = array(
            "d", (graph.link(a, b).metric("delay") for a, b in self.keys)
        )

    def of(self, a: ADId, b: ADId) -> Optional[int]:
        return self.index.get((a, b) if a <= b else (b, a))

    def liveness(self) -> bytearray:
        """Snapshot of per-link operational status, 1 byte per link."""
        graph = self.graph
        return bytearray(
            1 if graph.link(a, b).up else 0 for a, b in self.keys
        )


# ------------------------------------------------------------- compiled FIB


@dataclass(frozen=True)
class FIBStats:
    """State-size accounting of one compiled FIB (the Krioukov/claffy
    stretch-vs-state axis, measured)."""

    classes: int
    table_nodes: int
    table_entries: int
    via_entries: int
    handle_entries: int
    program_hops: int
    bytes: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "classes": self.classes,
            "table_nodes": self.table_nodes,
            "table_entries": self.table_entries,
            "via_entries": self.via_entries,
            "handle_entries": self.handle_entries,
            "program_hops": self.program_hops,
            "bytes": self.bytes,
        }


class CompiledFIB:
    """Converged forwarding state, flattened for batch lookup.

    Per class ``c`` the compiled program lives at
    ``hop_links[offsets[c] : offsets[c] + lengths[c]]`` (dense link
    indices, walk order) with ``hop_policy_ok`` aligned 1:1; a class
    whose compile-time decision already failed (no route, loop, hop
    budget) carries an empty program and a ``static_verdict``.
    """

    def __init__(
        self,
        protocol_name: str,
        mode: ForwardingMode,
        links: LinkIndex,
        classes: Sequence[FlowSpec],
        offsets: array,
        lengths: array,
        hop_links: array,
        hop_policy_ok: bytearray,
        static_verdicts: array,
        path_delays: array,
        path_hops: array,
        stats: FIBStats,
    ) -> None:
        self.protocol_name = protocol_name
        self.mode = mode
        self.links = links
        self.classes = list(classes)
        self.offsets = offsets
        self.lengths = lengths
        self.hop_links = hop_links
        self.hop_policy_ok = hop_policy_ok
        self.static_verdicts = static_verdicts
        self.path_delays = path_delays
        self.path_hops = path_hops
        self.stats = stats

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def liveness(self) -> bytearray:
        """Current ground-truth liveness bitmap (cheap; take per epoch)."""
        return self.links.liveness()

    # ---------------------------------------------------------- class level

    def class_verdicts(self, liveness: Optional[bytearray] = None) -> array:
        """Per-class verdict codes under a liveness snapshot.

        The only dynamic input is liveness: the walk stops at the first
        dead link (``DEAD_LINK``) or frozen policy refusal
        (``POLICY_DROP``), in hop order -- the same first-failure-wins
        order a per-packet forwarder observes.  The static verdict
        (delivered / no-route / loop / hop-budget, judged at compile
        time) applies only when the whole program survives, because a
        real packet checks each hop *before* discovering what ends its
        journey.
        """
        if liveness is None:
            liveness = self.liveness()
        out = array("b", self.static_verdicts)
        hop_links = self.hop_links
        hop_ok = self.hop_policy_ok
        offsets = self.offsets
        lengths = self.lengths
        for c in range(len(out)):
            start = offsets[c]
            for i in range(start, start + lengths[c]):
                if not liveness[hop_links[i]]:
                    out[c] = DEAD_LINK
                    break
                if not hop_ok[i]:
                    out[c] = POLICY_DROP
                    break
        return out

    # ----------------------------------------------------------- flow level

    def lookup_batch(
        self,
        class_of: array,
        liveness: Optional[bytearray] = None,
    ) -> array:
        """Per-flow verdicts for a whole batch (the hot path).

        ``class_of`` maps each flow to its compiled class; the per-class
        walk happens once, then per-flow resolution is one C-level
        indexed gather -- no per-packet dicts, no per-packet policy
        evaluation.
        """
        verdicts = self.class_verdicts(liveness)
        return array("b", map(verdicts.__getitem__, class_of))


# ------------------------------------------------------------------ compile


def compile_fib(
    protocol: RoutingProtocol,
    classes: Sequence[FlowSpec],
    enforce_policy: bool = True,
) -> CompiledFIB:
    """Snapshot ``protocol``'s converged state into a :class:`CompiledFIB`.

    Each class's program is the :meth:`RoutingProtocol.walk` path, cut
    before its first hop over a link the graph does not have (the class
    is then statically ``DEAD_LINK``, in either forwarding mode).  When
    ``enforce_policy`` is set, every transit hop's Policy-Term verdict
    is frozen into the per-hop program bits (the verdict is static
    because the policy database is).
    """
    links = LinkIndex(protocol.graph)
    permits = protocol.policies.transit_permits
    offsets = array("l")
    lengths = array("l")
    hop_links = array("i")
    hop_policy_ok = bytearray()
    static_verdicts = array("b")
    path_delays = array("d")
    path_hops = array("i")
    source_mode = protocol.mode is ForwardingMode.SOURCE

    # Per-node table-driven compression accounting (hop-by-hop points):
    # dst -> via pointer per node, vias shared in a short per-node list.
    node_vias: Dict[ADId, Dict[ADId, int]] = {}
    node_entries: Dict[ADId, Dict[ADId, int]] = {}
    handle_entries = 0
    # fib_key_fields dedup: classes agreeing on the fields the protocol's
    # *routing* decision discriminates share one control-plane walk (the
    # expensive part).  Policy enforcement reads the full flow -- naive
    # DV routes on destination alone, yet a transit still judges the
    # whole packet -- so per-hop policy bits are re-derived per class.
    walk_of_key: Dict[Tuple, Tuple[int, Tuple[ADId, ...]]] = {}

    for flow in classes:
        offsets.append(len(hop_links))
        key = protocol.flow_fib_key(flow)
        walked = walk_of_key.get(key)
        if walked is None:
            walked = walk_of_key[key] = protocol.walk(flow)
        verdict, path = walked
        delay = 0.0
        # The walked prefix *is* the program: a packet checks liveness
        # and policy hop by hop before it can discover what ends the
        # journey (delivery, loop, missing route, exhausted budget), so
        # every walked hop stays dynamic.  For LOOP classes the final
        # hop is the revisiting one, which a packet also crosses before
        # the revisit shows.
        for i, (a, b) in enumerate(zip(path, path[1:])):
            link_idx = links.of(a, b)
            if link_idx is None:
                # Believed but not physical (a forged link): no packet
                # gets past this hop, whatever the liveness snapshot.
                verdict = DEAD_LINK
                break
            hop_links.append(link_idx)
            if enforce_policy and i > 0:
                ok = permits(a, flow, path[i - 1], b)
            else:
                ok = True
            hop_policy_ok.append(1 if ok else 0)
            delay += links.delays[link_idx]
            if not source_mode:
                vias = node_vias.setdefault(a, {})
                if b not in vias:
                    vias[b] = len(vias)
                node_entries.setdefault(a, {})[flow.dst] = vias[b]
        if source_mode and verdict == DELIVERED:
            # Route-setup state model: one path entry at the source, one
            # handle entry per transit AD (Section 5.4).
            handle_entries += max(0, len(path) - 2)
        static_verdicts.append(verdict)
        lengths.append(len(hop_links) - offsets[-1])
        path_delays.append(delay if verdict == DELIVERED else 0.0)
        path_hops.append(len(path) - 1 if verdict == DELIVERED else 0)

    table_entries = sum(len(d) for d in node_entries.values())
    via_entries = sum(len(v) for v in node_vias.values())
    # Compressed byte model: per table entry one pointer byte (via lists
    # are short) + 4 bytes per via + 4 per program hop (link index) + 1
    # policy bit byte + per-class bookkeeping (offset/length/verdict).
    size_bytes = (
        table_entries
        + 4 * via_entries
        + 5 * len(hop_links)
        + 9 * len(static_verdicts)
        + 4 * handle_entries
    )
    stats = FIBStats(
        classes=len(static_verdicts),
        table_nodes=len(node_entries),
        table_entries=table_entries,
        via_entries=via_entries,
        handle_entries=handle_entries,
        program_hops=len(hop_links),
        bytes=size_bytes,
    )
    return CompiledFIB(
        protocol_name=protocol.name,
        mode=protocol.mode,
        links=links,
        classes=classes,
        offsets=offsets,
        lengths=lengths,
        hop_links=hop_links,
        hop_policy_ok=hop_policy_ok,
        static_verdicts=static_verdicts,
        path_delays=path_delays,
        path_hops=path_hops,
        stats=stats,
    )
