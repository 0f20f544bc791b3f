"""The ORWG node and protocol driver.

Each AD runs one :class:`ORWGNode`, which combines three roles from
Section 5.4.1 on top of the link-state flooding substrate:

* **flooding participant** -- originates LSAs carrying its links *and*
  its Policy Terms;
* **Route Server** -- "computes Policy Routes based on the advertised
  policy and topology information", via a
  :class:`~repro.core.synthesis.RouteSynthesizer` over the node's local
  view;
* **Policy Gateway** -- validates setup packets against the AD's own
  (live) policy terms, caches handles, performs per-packet validation,
  and tears down on NAK.

The driver exposes the control plane (build/converge), the pure
source-routing data plane (:meth:`ORWGProtocol.source_route`), and the
full setup/data/teardown machinery used by experiment E6
(:meth:`ORWGProtocol.open_route`, :meth:`ORWGProtocol.send_data`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.core.design_space import LS_SRC_TERMS
from repro.core.routes import Route
from repro.core.synthesis import RouteSynthesizer
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.selection import OPEN_SELECTION, RouteSelectionPolicy
from repro.policy.terms import PolicyTerm, TermRef
from repro.protocols.base import ForwardingMode, RoutingProtocol
from repro.protocols.flooding import LSDBGenerations, LSNode
from repro.protocols.orwg.gateway import PGCacheEntry, PolicyGatewayCache
from repro.protocols.orwg.messages import (
    DataPacket,
    Handle,
    SetupAck,
    SetupNak,
    SetupPacket,
    TeardownPacket,
)
from repro.simul.messages import Message
from repro.simul.network import SimNetwork


@dataclass
class SetupAttempt:
    """Source-side record of one policy-route setup."""

    handle: Handle
    flow: FlowSpec
    route: Optional[Tuple[ADId, ...]]
    state: str = "pending"  # pending | established | failed
    reason: str = ""
    start_time: float = 0.0
    end_time: float = 0.0
    data_sent: int = 0

    @property
    def established(self) -> bool:
        return self.state == "established"

    @property
    def latency(self) -> float:
        """Setup round-trip time in simulated time units."""
        if self.state != "established":
            raise ValueError(f"setup is {self.state}, not established")
        return self.end_time - self.start_time


class ORWGNode(LSNode):
    """Route Server + Policy Gateway on the flooding substrate."""

    def __init__(
        self,
        ad_id: ADId,
        live_policies: PolicyDatabase,
        generations: LSDBGenerations,
        flood_links=None,
        pg_cache_limit=None,
        route_ttl=None,
        level=None,
        synthesis: str = "flat",
    ) -> None:
        from repro.adgraph.ad import Level

        super().__init__(
            ad_id,
            own_terms=live_policies.terms_of(ad_id),
            include_terms=True,
            flood_links=flood_links,
            level=Level.CAMPUS if level is None else level,
            generations=generations,
        )
        #: Route-server strategy: "flat" runs the exact constrained
        #: search over the whole view; "hierarchical" prunes it to region
        #: corridors first (Section 6's heuristic), falling back to flat
        #: search when corridors miss.
        self.synthesis = synthesis
        #: The shared ground-truth database; a node only ever reads its
        #: *own* terms from it (its own policy is always fresh knowledge).
        self.live_policies = live_policies
        self.pg = PolicyGatewayCache(ad_id, limit=pg_cache_limit)
        #: Policy-route lifetime; None = routes never expire.
        self.route_ttl = route_ttl
        self.attempts: Dict[Handle, SetupAttempt] = {}
        self.delivered: Dict[Handle, int] = {}
        self._next_local_id = 0
        self._synth_cache: Optional[Tuple[int, RouteSynthesizer]] = None
        self._hier_cache: Optional[Tuple[int, object]] = None

    # ----------------------------------------------------------- route server

    def route_server(self) -> RouteSynthesizer:
        """The synthesiser over this node's current local view (cached)."""
        if self._synth_cache is None or self._synth_cache[0] != self.db_version:
            graph, policies = self.local_view()
            self._synth_cache = (self.db_version, RouteSynthesizer(graph, policies))
        return self._synth_cache[1]

    def hierarchical_server(self):
        """Corridor-pruned synthesiser over the local view (cached)."""
        from repro.core.hierarchical import HierarchicalSynthesizer

        if self._hier_cache is None or self._hier_cache[0] != self.db_version:
            graph, policies = self.local_view()
            self._hier_cache = (
                self.db_version,
                HierarchicalSynthesizer(graph, policies),
            )
        return self._hier_cache[1]

    def compute_route(
        self, flow: FlowSpec, selection: RouteSelectionPolicy = OPEN_SELECTION
    ) -> Optional[Route]:
        """Synthesise the preferred policy route from the local view."""
        server = self.route_server()
        if flow.src not in server.graph or flow.dst not in server.graph:
            return None
        self.note_computation("synthesis")
        if self.synthesis == "hierarchical":
            return self.hierarchical_server().route(flow, selection)
        return server.route(flow, selection)

    def compute_k_routes(
        self,
        flow: FlowSpec,
        k: int,
        selection: RouteSelectionPolicy = OPEN_SELECTION,
    ) -> List[Route]:
        server = self.route_server()
        if flow.src not in server.graph or flow.dst not in server.graph:
            return []
        self.note_computation("synthesis")
        return server.k_routes(flow, k, selection)

    # ----------------------------------------------------------------- setup

    def _expiry(self) -> float:
        return float("inf") if self.route_ttl is None else self.now + self.route_ttl

    def new_handle(self) -> Handle:
        self._next_local_id += 1
        return Handle(self.ad_id, self._next_local_id)

    def _own_term(self, ref: Optional[TermRef]) -> Optional[PolicyTerm]:
        """Resolve a citation against our own live terms."""
        if ref is None or ref.owner != self.ad_id:
            return None
        try:
            return self.live_policies.term(ref.owner, ref.term_id)
        except KeyError:
            return None

    def initiate_setup(
        self,
        attempt: SetupAttempt,
        selection: RouteSelectionPolicy = OPEN_SELECTION,
    ) -> None:
        """Compute the route and launch the setup packet (source side)."""
        attempt.start_time = self.now
        route = self.compute_route(attempt.flow, selection)
        if route is None:
            attempt.state = "failed"
            attempt.reason = "no legal route found"
            return
        attempt.route = route.path
        self.attempts[attempt.handle] = attempt
        if len(route.path) == 1:
            attempt.state = "established"
            attempt.end_time = self.now
            return
        # Cite, for every transit AD, the term our view says permits it.
        # Synthesis just answered these exact (owner, flow, prev, next)
        # questions, so each citation resolves from the view database's
        # decision cache rather than a fresh term scan.
        _, view_policies = self.local_view()
        refs: List[TermRef] = []
        for i in range(1, len(route.path) - 1):
            term = view_policies.permitting_term(
                route.path[i], attempt.flow, route.path[i - 1], route.path[i + 1]
            )
            if term is None:
                attempt.state = "failed"
                attempt.reason = f"view has no permitting term at AD {route.path[i]}"
                return
            refs.append(term.ref)
        # The source itself caches the handle (prev=None).
        self.pg.install(
            attempt.handle,
            PGCacheEntry(
                flow=attempt.flow,
                prev=None,
                next=route.path[1],
                term_ref=None,
                policy_version=self.live_policies.version,
                expires_at=self._expiry(),
            ),
        )
        packet = SetupPacket(
            handle=attempt.handle,
            flow=attempt.flow,
            route=route.path,
            term_refs=tuple(refs),
            hop=1,
        )
        self.send(route.path[1], packet)
        if self.hardening.retransmit:
            self.schedule(
                self.hardening.retransmit_timeout,
                self._retry_setup,
                attempt,
                packet,
                self.hardening.max_retries,
            )

    def _retry_setup(
        self, attempt: SetupAttempt, packet: SetupPacket, retries_left: int
    ) -> None:
        """Resend a setup packet whose ack never came (hardening only)."""
        if attempt.state != "pending":
            return
        if retries_left <= 0:
            attempt.state = "failed"
            attempt.reason = "setup timed out after retransmissions"
            attempt.end_time = self.now
            self.pg.remove(attempt.handle)
            return
        self.send(packet.route[1], packet)
        self.schedule(
            self.hardening.retransmit_timeout,
            self._retry_setup,
            attempt,
            packet,
            retries_left - 1,
        )

    # ------------------------------------------------------------- messaging

    def on_message(self, sender: ADId, msg: Message) -> None:
        if isinstance(msg, SetupPacket):
            self._handle_setup(sender, msg)
        elif isinstance(msg, SetupAck):
            self._handle_ack(msg)
        elif isinstance(msg, SetupNak):
            self._handle_nak(msg)
        elif isinstance(msg, DataPacket):
            self._handle_data(sender, msg)
        elif isinstance(msg, TeardownPacket):
            self._handle_teardown(msg)
        else:
            super().on_message(sender, msg)

    def _handle_setup(self, sender: ADId, msg: SetupPacket) -> None:
        i = msg.hop
        route = msg.route
        assert route[i] == self.ad_id
        if i == len(route) - 1:
            # Destination: accept, remember the reverse hop, ack back.
            self.pg.install(
                msg.handle,
                PGCacheEntry(
                    flow=msg.flow,
                    prev=route[i - 1],
                    next=None,
                    term_ref=None,
                    policy_version=self.live_policies.version,
                    expires_at=self._expiry(),
                ),
            )
            self.delivered.setdefault(msg.handle, 0)
            self.send(route[i - 1], SetupAck(msg.handle, route, hop=i - 1))
            return
        if self.hardening.dedup:
            # A retransmitted (or channel-duplicated) setup we already
            # validated: skip revalidation, just forward it along.
            existing = self.pg.lookup(msg.handle)
            if (
                existing is not None
                and existing.flow == msg.flow
                and existing.next == route[i + 1]
            ):
                self.duplicates_ignored += 1
                self.send(
                    route[i + 1],
                    SetupPacket(msg.handle, msg.flow, route, msg.term_refs, hop=i + 1),
                )
                return
        ref = msg.term_refs[i - 1]
        cited = self._own_term(ref)
        result = self.pg.validate_setup(msg.flow, route[i - 1], route[i + 1], cited)
        self.note_computation("pg_validation")
        if not result.ok:
            self.send(
                route[i - 1],
                SetupNak(msg.handle, route, hop=i - 1, rejected_by=self.ad_id,
                         reason=result.reason),
            )
            return
        self.pg.install(
            msg.handle,
            PGCacheEntry(
                flow=msg.flow,
                prev=route[i - 1],
                next=route[i + 1],
                term_ref=ref,
                policy_version=self.live_policies.version,
                expires_at=self._expiry(),
            ),
        )
        self.send(
            route[i + 1],
            SetupPacket(msg.handle, msg.flow, route, msg.term_refs, hop=i + 1),
        )

    def _handle_ack(self, msg: SetupAck) -> None:
        if msg.hop == 0:
            attempt = self.attempts.get(msg.handle)
            if attempt is not None and attempt.state == "pending":
                attempt.state = "established"
                attempt.end_time = self.now
            return
        self.send(msg.route[msg.hop - 1], SetupAck(msg.handle, msg.route, msg.hop - 1))

    def _handle_nak(self, msg: SetupNak) -> None:
        if not msg.route:
            # Data-time NAK: no route in the packet; walk cached prevs.
            entry = self.pg.lookup(msg.handle)
            self.pg.remove(msg.handle)
            attempt = self.attempts.get(msg.handle)
            if attempt is not None:
                attempt.state = "failed"
                attempt.reason = f"rejected by AD {msg.rejected_by}: {msg.reason}"
                return
            if entry is not None and entry.prev is not None:
                self.send(entry.prev, msg)
            return
        self.pg.remove(msg.handle)
        if msg.hop == 0:
            attempt = self.attempts.get(msg.handle)
            if attempt is not None:
                attempt.state = "failed"
                attempt.reason = f"rejected by AD {msg.rejected_by}: {msg.reason}"
            return
        self.send(
            msg.route[msg.hop - 1],
            SetupNak(msg.handle, msg.route, msg.hop - 1, msg.rejected_by, msg.reason),
        )

    def _nak_backward(self, handle: Handle, entry: PGCacheEntry, reason: str) -> None:
        """NAK toward the source using cached prev pointers (no route)."""
        if entry.prev is None:
            return
        self.send(
            entry.prev,
            SetupNak(handle, route=(), hop=-1, rejected_by=self.ad_id, reason=reason),
        )

    def _handle_data(self, sender: ADId, msg: DataPacket) -> None:
        if msg.route is not None:
            self._handle_datagram(sender, msg)
            return
        if msg.flow.dst == self.ad_id:
            entry = self.pg.lookup(msg.handle)
            if entry is not None and sender == entry.prev:
                self.delivered[msg.handle] = self.delivered.get(msg.handle, 0) + 1
            return
        # Single cache lookup; the cited term is only re-resolved when the
        # policy version moved since setup (the revalidation slow path).
        result, entry = self.pg.validate_data(
            msg.handle, sender, self.live_policies.version, self._own_term,
            now=self.now,
        )
        self.note_computation("pg_validation")
        if not result.ok:
            if entry is not None:
                self._nak_backward(msg.handle, entry, result.reason)
            return
        assert entry is not None and entry.next is not None
        graph = self.topology
        if not graph.has_link(self.ad_id, entry.next) or not graph.link(
            self.ad_id, entry.next
        ).up:
            # The route's physical next hop is gone: tear down toward the
            # source so it can re-synthesise over the surviving topology.
            self.pg.remove(msg.handle)
            self._nak_backward(
                msg.handle, entry, f"link {self.ad_id}-{entry.next} is down"
            )
            return
        self.send(entry.next, msg)

    def _handle_datagram(self, sender: ADId, msg: DataPacket) -> None:
        """Datagram mode: full source route in every packet, stateless PGs."""
        assert msg.route is not None
        i = msg.hop
        if msg.route[i] != self.ad_id:
            return
        if i == len(msg.route) - 1:
            self.delivered[msg.handle] = self.delivered.get(msg.handle, 0) + 1
            return
        if i > 0:
            permitted = self.live_policies.transit_permits(
                self.ad_id, msg.flow, msg.route[i - 1], msg.route[i + 1]
            )
            self.pg.validations += 1
            self.note_computation("pg_validation")
            if not permitted:
                self.pg.rejections += 1
                return
        self.send(
            msg.route[i + 1],
            DataPacket(msg.handle, msg.flow, msg.route, i + 1, msg.payload_bytes),
        )

    def _handle_teardown(self, msg: TeardownPacket) -> None:
        self.pg.remove(msg.handle)
        if msg.hop < len(msg.route) - 1:
            self.send(
                msg.route[msg.hop + 1],
                TeardownPacket(msg.handle, msg.route, msg.hop + 1),
            )

    # ------------------------------------------------------ policy dynamics

    def refresh_policy(self) -> None:
        """Re-read our own terms from the live database and re-flood."""
        self.own_terms = self.live_policies.terms_of(self.ad_id)
        self.originate()
        self.on_lsdb_change()

    def _tell_lie(self, lie, target=None) -> bool:
        if lie == "route-leak":
            # ORWG citations resolve against the live database, so the
            # leak plants its forged everything-permitted term there (the
            # liar *can* corrupt its own registry entry and will happily
            # confirm setups citing it); honest receivers validate the
            # flooded copy against the build-time trusted snapshot.
            from repro.policy.terms import PolicyTerm

            self._active_lies[lie] = None
            self.live_policies.add_term(PolicyTerm(owner=self.ad_id))
            self.refresh_policy()
            return True
        return super()._tell_lie(lie, target)

    def inherit_nonvolatile(self, previous) -> None:
        """Also keep the handle id counter, so post-restart setups never
        collide with handles still cached along pre-crash routes."""
        super().inherit_nonvolatile(previous)
        if isinstance(previous, ORWGNode):
            self._next_local_id = previous._next_local_id


class ORWGProtocol(RoutingProtocol):
    """Driver for the recommended design point (LS / source / terms).

    ``flooding`` selects the database-distribution strategy (Section 6,
    research issue 3): ``"full"`` floods every LSA over every link;
    ``"tree"`` restricts flooding to a spanning tree, eliminating
    duplicate deliveries at the cost of robustness when a tree link dies
    (measured by ablation A2).
    """

    name: ClassVar[str] = "orwg"
    design_point = LS_SRC_TERMS
    mode = ForwardingMode.SOURCE

    def __init__(
        self,
        graph: InterADGraph,
        policies: PolicyDatabase,
        flooding: str = "full",
        pg_cache_limit: Optional[int] = None,
        route_ttl: Optional[float] = None,
        synthesis: str = "flat",
    ) -> None:
        super().__init__(graph, policies)
        if flooding not in ("full", "tree"):
            raise ValueError(f"unknown flooding strategy {flooding!r}")
        if route_ttl is not None and route_ttl <= 0:
            raise ValueError("route_ttl must be positive (or None)")
        if synthesis not in ("flat", "hierarchical"):
            raise ValueError(f"unknown synthesis strategy {synthesis!r}")
        self.flooding = flooding
        self.pg_cache_limit = pg_cache_limit
        self.route_ttl = route_ttl
        self.synthesis = synthesis
        self.generations = LSDBGenerations()

    def _make_nodes(self, network: SimNetwork) -> None:
        flood_links = None
        if self.flooding == "tree":
            from repro.adgraph.trees import spanning_tree_links

            flood_links = spanning_tree_links(self.graph)
        for ad_id in self.graph.ad_ids():
            network.add_node(
                ORWGNode(
                    ad_id,
                    live_policies=self.policies,
                    generations=self.generations,
                    flood_links=flood_links,
                    pg_cache_limit=self.pg_cache_limit,
                    route_ttl=self.route_ttl,
                    level=self.graph.ad(ad_id).level,
                    synthesis=self.synthesis,
                )
            )

    def _node(self, ad_id: ADId) -> ORWGNode:
        node = self.network.node(ad_id)
        assert isinstance(node, ORWGNode)
        return node

    # ------------------------------------------------------------ data plane

    def source_route(
        self, flow: FlowSpec, selection: RouteSelectionPolicy = OPEN_SELECTION
    ) -> Optional[Tuple[ADId, ...]]:
        route = self._node(flow.src).compute_route(flow, selection)
        return None if route is None else route.path

    def k_routes(
        self,
        flow: FlowSpec,
        k: int = 3,
        selection: RouteSelectionPolicy = OPEN_SELECTION,
    ) -> List[Route]:
        """The source's alternative routes (feasible under source routing)."""
        return self._node(flow.src).compute_k_routes(flow, k, selection)

    # --------------------------------------------------------- setup machinery

    def open_route(
        self, flow: FlowSpec, selection: RouteSelectionPolicy = OPEN_SELECTION
    ) -> SetupAttempt:
        """Launch a policy-route setup; run the network to completion."""
        node = self._node(flow.src)
        attempt = SetupAttempt(handle=node.new_handle(), flow=flow, route=None)
        self.network.clock.call_later(0.0, node.initiate_setup, attempt, selection)
        return attempt

    def send_data(
        self,
        attempt: SetupAttempt,
        packets: int = 1,
        carry_route: bool = False,
        payload_bytes: int = 512,
        spacing: float = 1.0,
    ) -> None:
        """Schedule data packets on an (expected-established) route."""
        if attempt.route is None:
            raise ValueError("setup has no route")
        node = self._node(attempt.flow.src)

        def _send_one() -> None:
            if attempt.flow.dst == attempt.flow.src:
                return
            first_hop = attempt.route[1]
            graph = self.network.graph
            if not graph.link(attempt.flow.src, first_hop).up:
                # The source sees its own dead access link immediately.
                attempt.state = "failed"
                attempt.reason = f"link {attempt.flow.src}-{first_hop} is down"
                node.pg.remove(attempt.handle)
                return
            route = attempt.route if carry_route else None
            hop = 1 if carry_route else 0
            pkt = DataPacket(attempt.handle, attempt.flow, route, hop, payload_bytes)
            node.send(first_hop, pkt)
            attempt.data_sent += 1

        for i in range(packets):
            self.network.clock.call_later(i * spacing, _send_one)

    def teardown(self, attempt: SetupAttempt) -> None:
        """Schedule an explicit teardown of an established route."""
        if attempt.route is None or len(attempt.route) < 2:
            return
        node = self._node(attempt.flow.src)

        def _send() -> None:
            node.pg.remove(attempt.handle)
            node.send(
                attempt.route[1],
                TeardownPacket(attempt.handle, attempt.route, hop=1),
            )

        self.network.clock.call_later(0.0, _send)

    def delivered(self, attempt: SetupAttempt) -> int:
        """Data packets that reached the destination on this route."""
        return self._node(attempt.flow.dst).delivered.get(attempt.handle, 0)

    def notify_policy_change(self, owner: ADId) -> None:
        """After mutating ``policies`` for ``owner``, re-flood its terms."""
        self._node(owner).refresh_policy()

    # --------------------------------------------------------------- metrics

    def rib_size(self, ad_id: ADId) -> int:
        node = self._node(ad_id)
        return len(node.lsdb) + node.pg.size

    def pg_cache_size(self, ad_id: ADId) -> int:
        return self._node(ad_id).pg.size

    def synthesis_stats(self, ad_id: ADId):
        """The Route Server's accumulated synthesis work at an AD."""
        return self._node(ad_id).route_server().stats
