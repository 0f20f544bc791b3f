"""The common protocol interface.

Every protocol exposes the same two planes:

* a **control plane** -- :meth:`RoutingProtocol.build` constructs the
  per-AD nodes on a :class:`~repro.simul.network.SimNetwork`;
  :meth:`RoutingProtocol.converge` runs it to quiescence;
* a **data plane** -- :meth:`RoutingProtocol.find_route` answers "what
  route would traffic for this flow actually take?".  Source-routing
  protocols answer from the source's computation; hop-by-hop protocols
  answer by *walking* the per-hop :meth:`RoutingProtocol.next_hop`
  decisions (with a loop guard), which is exactly how a packet would
  experience the converged tables.

This uniformity is what lets the scorecard (E1) and the availability
experiment (E3) compare all eight design points on equal footing.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, ClassVar, Dict, List, Optional, Tuple

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.core.design_space import DesignPoint
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.selection import OPEN_SELECTION, RouteSelectionPolicy
from repro.protocols.runtime import NodeRuntimeConfig, feature, stamp
from repro.protocols.validation import NeighborGuard
from repro.protocols.versioning import WireConfig
from repro.simul.network import SimNetwork
from repro.simul.node import ProtocolNode
from repro.simul.runner import ConvergenceResult, converge
from repro.simul.transport import Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan


class ForwardingMode(enum.Enum):
    """Where the forwarding decision lives (Table 1's middle axis)."""

    SOURCE = "source"
    HOP_BY_HOP = "hop-by-hop"


class RoutingProtocol:
    """Base class for all inter-AD routing protocol drivers.

    Subclasses set the class attributes and implement
    :meth:`_make_nodes`, plus either :meth:`source_route` (source mode) or
    :meth:`next_hop` (hop-by-hop mode).
    """

    #: Human-readable protocol name.
    name: ClassVar[str] = "abstract"
    #: The Table 1 cell this protocol occupies (None for baselines).
    design_point: ClassVar[Optional[DesignPoint]] = None
    #: Forwarding mode.
    mode: ClassVar[ForwardingMode] = ForwardingMode.HOP_BY_HOP
    #: Whether the protocol can take Policy Terms into account at all.
    policy_aware: ClassVar[bool] = True
    #: FIB export hook: the FlowSpec fields this protocol's forwarding
    #: decision actually reads.  The FIB compiler
    #: (:mod:`repro.traffic.fib`) collapses flow classes that agree on
    #: these fields into one compiled entry; the conservative default is
    #: the full flow.  ``src`` is always implied (a walk starts there).
    fib_key_fields: ClassVar[Tuple[str, ...]] = (
        "src",
        "dst",
        "qos",
        "uci",
        "hour",
    )

    def __init__(self, graph: InterADGraph, policies: PolicyDatabase) -> None:
        self.graph = graph
        self.policies = policies
        self.network: Optional[Transport] = None
        #: Which substrate :meth:`build` runs on; ``"live"`` networks are
        #: constructed by :mod:`repro.live` and passed in.
        self.substrate: str = "sim"
        #: Forwarding loops observed while walking hop-by-hop decisions.
        self.forwarding_loops = 0
        #: The full per-node runtime (one component per row of the
        #: feature table), stamped onto every node at build time and
        #: again on state-losing restarts.  Immutable: swap components
        #: with ``self.runtime = self.runtime.replace(...)``.
        self.runtime = NodeRuntimeConfig()
        #: ADs that have (ever) been turned into liars: ad -> lie kind.
        #: Never pruned -- already-flooded lies outlive the liar's change
        #: of heart, and blast-radius attribution must outlive it too.
        self.liars: Dict[ADId, str] = {}
        #: Chronological record of misbehavior start/stop applications.
        self.misbehavior_log: List[Dict[str, Any]] = []
        self._trusted_policies: Optional[PolicyDatabase] = None
        self._crashed_links: Dict[ADId, Tuple[Tuple[ADId, ADId], ...]] = {}
        self._crash_retain: Dict[ADId, bool] = {}
        #: ADs currently down under graceful-restart helper semantics:
        #: their incident links stay up (neighbours hold routes stale)
        #: until restore or hold-timer expiry.
        self._graceful_down: Dict[ADId, bool] = {}
        #: Armed hold timers, cancelled by a restore within the window.
        self._graceful_holds: Dict[ADId, Any] = {}
        #: Observability: expired holds and resync rounds driven.
        self.grace_expirations = 0
        self.grace_resyncs = 0
        #: Per-AD wire-version pins (the live upgrade/rollback knob):
        #: an entry overrides the runtime config's version for that AD.
        self._wire_overrides: Dict[ADId, int] = {}

    # --------------------------------------------------------- control plane

    def _make_nodes(self, network: Transport) -> None:
        """Create and register one protocol node per AD."""
        raise NotImplementedError

    def build(self, network: Optional[Transport] = None) -> Transport:
        """Construct the protocol's network substrate (idempotent).

        With no argument, builds on the substrate named by
        :attr:`substrate`: a fresh :class:`SimNetwork` for ``"sim"``
        (``"live"`` networks need a running event loop, so
        :mod:`repro.live` constructs one and passes it here).  An
        explicitly-passed transport is adopted as-is.
        """
        if self.network is None:
            if network is None:
                if self.substrate != "sim":
                    raise RuntimeError(
                        f"{self.name}: substrate {self.substrate!r} networks "
                        "are built by repro.live; pass one to build(network=...)"
                    )
                network = SimNetwork(self.graph)
            self.network = network
            self._make_nodes(network)
            self._distribute_runtime(network)
        return self.network

    def _distribute_runtime(self, network: Transport) -> None:
        """Stamp the full runtime container onto every node (single hook).

        Also attaches the runtime's ingress queue, when one is configured
        and the substrate models one (the sim's delivery stage).
        """
        for node in network.nodes.values():
            self._stamp_runtime(node)
        if self.runtime.ingress is not None and hasattr(network, "set_ingress"):
            network.set_ingress(self.runtime.ingress)

    def _stamp_runtime(self, node: ProtocolNode) -> None:
        """Configure one node with every runtime component.

        The single restamping path shared by build and state-losing
        restarts.  The trusted policy registry is snapshotted the first
        time a validating node is stamped -- at build time, before any
        scheduled misbehavior can pollute the live database (ORWG's liar
        plants its forged term in the shared ``live_policies``) -- so
        validators always judge claims against registered ground truth.
        """
        runtime = self.runtime
        stamp(node, runtime)
        node.wire = self._effective_wire(node.ad_id)
        if runtime.validation.any_enabled and self._trusted_policies is None:
            self._trusted_policies = self.policies.copy()
        node.trusted_policies = self._trusted_policies
        node.trusted_graph = self.graph
        if runtime.validation.any_enabled:
            node.guard = NeighborGuard(runtime.validation, lambda: node.now)
        else:
            node.guard = None

    def _effective_wire(self, ad_id: ADId) -> WireConfig:
        """The runtime wire config with any per-AD version pin applied."""
        wire = self.runtime.wire
        override = self._wire_overrides.get(ad_id)
        if override is not None:
            wire = wire.at_version(override)
        return wire

    def set_wire_version(self, ad_id: ADId, version: int) -> None:
        """Flip one AD's wire version live (the upgrade/rollback knob).

        The pin survives state-losing restarts (restamping reapplies
        it).  With negotiation on, the node recomputes every neighbour
        pair from its stored Hellos and re-announces, so the population
        reconverges on the new highest-mutually-supported versions.
        """
        network = self._require_network()
        self._wire_overrides[ad_id] = version
        node = network.nodes[ad_id]
        node.wire = self._effective_wire(ad_id)
        node.renegotiate()

    def runtime_summary(self, name: str) -> Any:
        """One runtime feature's network-wide counters, for the run record.

        ``name`` is a row of the feature table; the row's collector
        (defined next to the feature's config) does the gathering.
        """
        self._require_network()
        collect = feature(name).collect
        if collect is None:
            raise ValueError(f"runtime feature {name!r} keeps no counters")
        return collect(self)

    def converge(self, max_events: int = 5_000_000) -> ConvergenceResult:
        """Build if needed and run the control plane to quiescence.

        Sim substrate only: quiescence is an event-queue property.  Live
        runs converge in wall-clock time under
        :func:`repro.live.run_live`.
        """
        network = self.build()
        if not isinstance(network, SimNetwork):
            raise RuntimeError(
                f"{self.name}: converge() drives the discrete-event engine; "
                "use repro.live.run_live for the live substrate"
            )
        return converge(network, max_events=max_events)

    def _require_network(self) -> Transport:
        """The built network, or a clear error if build() never ran."""
        if self.network is None:
            raise RuntimeError(
                f"{self.name}: no simulation network -- call build() or "
                "converge() before applying link status changes"
            )
        return self.network

    def apply_link_status(self, a: ADId, b: ADId, up: bool) -> None:
        """Change a physical link's status and notify the protocol.

        Protocols whose control plane runs on a derived topology (EGP's
        spanning tree) override this to keep both views consistent.
        """
        self._require_network().set_link_status(a, b, up)

    # -------------------------------------------------------------- crashes

    def crash_node(
        self,
        ad_id: ADId,
        retain_state: bool = True,
        graceful: Optional[bool] = None,
    ) -> None:
        """Crash an AD's routing process: the node goes silent and
        in-flight messages to it are lost.

        ``retain_state`` decides what :meth:`restore_node` later brings
        back: the same process (tables intact) or a fresh one that must
        relearn the internet from its neighbours.

        ``graceful`` selects graceful-restart helper semantics: instead
        of dropping the AD's incident links (the disruptive path),
        surviving neighbours are told to hold its routes as stale for
        the configured hold time, so the data plane keeps forwarding
        through the restart.  ``None`` defers to the distributed
        :class:`~repro.protocols.graceful.GracefulRestartConfig`
        (``helper`` flag); with that off, the legacy disruptive path
        runs byte-identically.
        """
        network = self._require_network()
        if ad_id in self._crashed_links:
            raise ValueError(f"AD {ad_id} is already crashed")
        gr = self.runtime.graceful
        if graceful is None:
            graceful = gr.helper
        live = tuple(
            link.key for link in self.graph.links_of(ad_id)
        )
        # Silence the node first so the teardown notifications below reach
        # only the surviving neighbours, never the crashed process itself.
        network.crash_node(ad_id)
        if not retain_state:
            # The process is gone, not merely isolated: retransmit/refresh
            # timers it armed die with it.  Retiring here (not at restore)
            # is what guarantees no pre-crash timer ever fires, during the
            # outage or after the fresh process takes over.
            network.nodes[ad_id].retire()
        if not retain_state:
            # No NVRAM: messages sitting in the dead process's input
            # queue are lost with the rest of its state.
            network.flush_ingress(ad_id)
        if graceful:
            # Helper mode: the links stay up in ground truth, so nobody
            # withdraws and the compiled FIB keeps forwarding.  Survivors
            # are notified out of band (the restarting process cannot
            # announce anything) and a hold timer bounds their patience.
            for a, b in live:
                survivor = b if a == ad_id else a
                if survivor not in network.nodes:
                    continue
                if not self.is_crashed(survivor):
                    network.nodes[survivor].on_neighbor_grace(
                        ad_id, gr.hold_time
                    )
            self._graceful_down[ad_id] = True
            self._graceful_holds[ad_id] = network.clock.call_later(
                gr.hold_time, self._grace_expired, ad_id
            )
        else:
            for a, b in live:
                self.apply_link_status(a, b, False)
        self._crashed_links[ad_id] = live
        self._crash_retain[ad_id] = retain_state

    def _grace_expired(self, ad_id: ADId) -> None:
        """Hold timer fired before the restarter came back: give up.

        Helpers stop holding stale routes and the normal withdrawal
        machinery runs -- the restart turns disruptive after all.
        """
        if ad_id not in self._graceful_down:  # pragma: no cover - defensive
            return
        del self._graceful_down[ad_id]
        self._graceful_holds.pop(ad_id, None)
        self.grace_expirations += 1
        for a, b in self._crashed_links.get(ad_id, ()):
            link = self.graph.link_if_exists(a, b)
            if link is not None and link.up:
                self.apply_link_status(a, b, False)

    def restore_node(self, ad_id: ADId) -> None:
        """Restart a crashed AD and bring its links back up.

        State retention was fixed at crash time.  A state-losing restart
        swaps in a freshly-constructed node (the old one is retired so its
        stale timers never fire); either way the links come up *after* the
        process is live, so up-notifications drive relearning.
        """
        network = self._require_network()
        if ad_id not in self._crashed_links:
            raise ValueError(f"AD {ad_id} is not crashed")
        links = self._crashed_links.pop(ad_id)
        retain = self._crash_retain.pop(ad_id)
        graceful = ad_id in self._graceful_down
        if graceful:
            # Back inside the hold window: cancel the helpers' give-up
            # timer.  The links never went down, so the legacy
            # up-notification storm below is replaced by an explicit
            # resynchronisation round (when configured).
            del self._graceful_down[ad_id]
            handle = self._graceful_holds.pop(ad_id, None)
            if handle is not None:
                handle.cancel()
        fresh: Optional[ProtocolNode] = None
        if not retain:
            old = network.nodes[ad_id]
            fresh = self._fresh_node(ad_id)
            self._stamp_runtime(fresh)
            fresh.inherit_nonvolatile(old)
            old.retire()  # idempotent; the node was retired at crash time
        network.restore_node(ad_id, fresh)
        if fresh is not None:
            fresh.start()
            # A fresh process lost its negotiation state; re-announce
            # (no-op unless the runtime negotiates).
            fresh.announce_wire()
        if graceful:
            if self.runtime.graceful.resync:
                self.grace_resyncs += 1
                restarter = network.nodes[ad_id]
                for a, b in links:
                    link = self.graph.link_if_exists(a, b)
                    if link is None or not link.up:
                        continue
                    survivor = b if a == ad_id else a
                    if survivor in network.nodes and not self.is_crashed(
                        survivor
                    ):
                        network.nodes[survivor].on_neighbor_resync(ad_id)
                    restarter.on_neighbor_resync(survivor)
            return
        for a, b in links:
            self.apply_link_status(a, b, True)

    def _fresh_node(self, ad_id: ADId) -> ProtocolNode:
        """A newly-constructed node for one AD, detached from any network.

        Built by running :meth:`_make_nodes` against a scratch network --
        node constructors are pure (no events scheduled until ``start``),
        so the siblings built alongside are garbage-collected harmlessly.
        """
        scratch = SimNetwork(self.graph)
        self._make_nodes(scratch)
        node = scratch.nodes[ad_id]
        node.detach()
        return node

    def is_crashed(self, ad_id: ADId) -> bool:
        return ad_id in self._crashed_links

    # ----------------------------------------------------------- fault plans

    def schedule_fault_plan(self, plan: "FaultPlan") -> None:
        """Schedule a fault plan's events, relative to the current time."""
        network = self._require_network()
        for ev in plan:
            network.clock.call_later(ev.time, self.apply_fault_event, ev)

    def apply_fault_event(self, ev: object) -> None:
        """Apply one fault event now: THE applier, on either substrate.

        Scheduled plans, episodic drivers and both substrate adapters
        all come through here; what an impairment means on real sockets
        is the transport's business (``set_impairment``).
        """
        from repro.faults.misbehavior import MisbehaviorStart, MisbehaviorStop
        from repro.faults.plan import (
            ImpairmentChange,
            LinkFault,
            NodeFault,
            WireVersionChange,
        )

        if isinstance(ev, LinkFault):
            self.apply_link_status(ev.a, ev.b, ev.up)
        elif isinstance(ev, NodeFault):
            if ev.up:
                self.restore_node(ev.ad)
            else:
                self.crash_node(ev.ad, retain_state=ev.retain_state)
        elif isinstance(ev, ImpairmentChange):
            self._require_network().set_impairment(ev.link, ev.spec)
        elif isinstance(ev, WireVersionChange):
            self.set_wire_version(ev.ad, ev.version)
        elif isinstance(ev, MisbehaviorStart):
            self.start_misbehavior(ev.ad, ev.lie, ev.target)
        elif isinstance(ev, MisbehaviorStop):
            self.stop_misbehavior(ev.ad)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown fault event {ev!r}")

    # ------------------------------------------------------------ misbehavior

    def start_misbehavior(
        self, ad_id: ADId, lie: str, target: Optional[ADId] = None
    ) -> bool:
        """Turn an AD into a liar now; returns whether the lie applied.

        A lie the protocol family cannot express (``term-forgery`` on a
        DV speaker) is logged as not applied rather than failing the
        run: "this design cannot even tell this lie" is itself a result.
        """
        network = self._require_network()
        node = network.nodes[ad_id]
        applied = bool(node.misbehave(lie, target))
        if applied:
            self.liars[ad_id] = lie
        self.misbehavior_log.append(
            {
                "time": network.clock.now,
                "ad": ad_id,
                "lie": lie,
                "target": target,
                "applied": applied,
            }
        )
        return applied

    def stop_misbehavior(self, ad_id: ADId) -> None:
        """The liar reverts to honesty (flooded residue stays out there)."""
        network = self._require_network()
        network.nodes[ad_id].behave()
        self.misbehavior_log.append(
            {"time": network.clock.now, "ad": ad_id, "lie": None,
             "target": None, "applied": True}
        )

    def poison_suspects(self) -> "set":
        """ADs whose routing claims may be tainted: every liar, plus the
        victims its applied lies impersonated (a bogus-origin victim's
        address is the thing being hijacked)."""
        suspects = set(self.liars)
        for entry in self.misbehavior_log:
            if entry["applied"] and entry["target"] is not None:
                suspects.add(entry["target"])
        return suspects

    # ------------------------------------------------------------ data plane

    def source_route(
        self, flow: FlowSpec, selection: RouteSelectionPolicy = OPEN_SELECTION
    ) -> Optional[Tuple[ADId, ...]]:
        """The full route the source AD would place in packet headers.

        Only meaningful for source-routing protocols.
        """
        raise NotImplementedError(f"{self.name} is not a source-routing protocol")

    def next_hop(
        self, ad_id: ADId, flow: FlowSpec, prev: Optional[ADId]
    ) -> Optional[ADId]:
        """The forwarding decision AD ``ad_id`` makes for ``flow``.

        Only meaningful for hop-by-hop protocols.  ``prev`` is the AD the
        packet arrived from (``None`` at the source).
        """
        raise NotImplementedError(f"{self.name} is not a hop-by-hop protocol")

    def find_route(
        self, flow: FlowSpec, selection: RouteSelectionPolicy = OPEN_SELECTION
    ) -> Optional[Tuple[ADId, ...]]:
        """The route traffic for ``flow`` would actually take, or ``None``.

        Source mode: the source's computed route.  Hop-by-hop mode: the
        walk of per-hop decisions; a forwarding loop or a hop with no
        decision yields ``None`` (the packet would be dropped).
        """
        if flow.src == flow.dst:
            return (flow.src,)
        if self.mode is ForwardingMode.SOURCE:
            return self.source_route(flow, selection)
        return self._walk_next_hops(flow)

    def _walk_next_hops(self, flow: FlowSpec) -> Optional[Tuple[ADId, ...]]:
        path: List[ADId] = [flow.src]
        seen = {flow.src}
        prev: Optional[ADId] = None
        current = flow.src
        # Generous guard: no simple AD path is longer than the AD count.
        for _ in range(self.graph.num_ads):
            nxt = self.next_hop(current, flow, prev)
            if nxt is None:
                return None
            if nxt in seen:
                self.forwarding_loops += 1
                return None  # forwarding loop
            path.append(nxt)
            seen.add(nxt)
            if nxt == flow.dst:
                return tuple(path)
            prev, current = current, nxt
        return None

    # ------------------------------------------------------------ FIB export

    def flow_fib_key(self, flow: "FlowSpec") -> Tuple:
        """Project ``flow`` onto the fields the data plane discriminates.

        Two flows with equal keys are guaranteed the same forwarding
        decisions at every hop, so a compiled FIB stores one entry for
        both.  Subclasses narrow :attr:`fib_key_fields` instead of
        overriding this.
        """
        return tuple(getattr(flow, f) for f in self.fib_key_fields)

    # --------------------------------------------------------------- metrics

    def rib_size(self, ad_id: ADId) -> int:
        """Routing-information entries held at an AD (protocol-defined)."""
        raise NotImplementedError

    def total_rib_size(self) -> int:
        """Sum of RIB entries across all ADs."""
        return sum(self.rib_size(a) for a in self.graph.ad_ids())

    def max_rib_size(self) -> int:
        """Largest per-AD RIB (the hot-spot the scaling claims concern)."""
        return max(self.rib_size(a) for a in self.graph.ad_ids())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(ads={self.graph.num_ads})"
