"""The common protocol interface.

Every protocol exposes the same two planes:

* a **control plane** -- :meth:`RoutingProtocol.build` constructs the
  per-AD nodes on a :class:`~repro.simul.network.SimNetwork`;
  :meth:`RoutingProtocol.converge` runs it to quiescence;
* a **data plane** -- :meth:`RoutingProtocol.walk` follows the believed
  decision chain for a flow and names how it ends (one of the verdict
  codes below).  Source-routing protocols answer from the source's
  computation; hop-by-hop protocols follow the per-hop
  :meth:`RoutingProtocol.next_hop` decisions with a loop guard.  The
  walk judges nothing physical: :meth:`RoutingProtocol.find_route`
  returns its path when it delivers, and the FIB compiler
  (:mod:`repro.traffic.fib`) adds link existence, liveness and transit
  policy on top.

This uniformity is what lets the scorecard (E1) and the availability
experiment (E3) compare all eight design points on equal footing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Dict, List, Optional, Tuple

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.core.design_space import DesignPoint
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.selection import OPEN_SELECTION, RouteSelectionPolicy
from repro.protocols.graceful import HOLD_TIME
from repro.protocols.runtime import NodeRuntimeConfig, feature, stamp
from repro.protocols.validation import NeighborGuard
from repro.protocols.versioning import WireConfig
from repro.simul.network import SimNetwork
from repro.simul.node import ProtocolNode
from repro.simul.runner import ConvergenceResult, converge
from repro.simul.transport import TimerHandle, Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan


class ForwardingMode(enum.Enum):
    """Where the forwarding decision lives (Table 1's middle axis)."""

    SOURCE = "source"
    HOP_BY_HOP = "hop-by-hop"


#: Verdict codes of a forwarded flow, stable across the data plane (the
#: compiled FIB's arrays store these).  :meth:`RoutingProtocol.walk`
#: returns DELIVERED, NO_ROUTE, LOOP or HOP_BUDGET; DEAD_LINK and
#: POLICY_DROP are judged against the physical internet and the policy
#: database by the FIB.
DELIVERED = 0
NO_ROUTE = 1
DEAD_LINK = 2
POLICY_DROP = 3
LOOP = 4
HOP_BUDGET = 5

VERDICT_NAMES: Tuple[str, ...] = (
    "delivered",
    "no_route",
    "dead_link",
    "policy_drop",
    "loop",
    "hop_budget",
)


@dataclass
class _Crash:
    """What the driver keeps about one crashed AD until its restore."""

    #: The AD's incident link keys at crash time.
    links: Tuple[Tuple[ADId, ADId], ...]
    #: Whether the restore brings back the same process (tables intact).
    retain_state: bool
    #: The graceful-restart hold timer: neighbours hold the AD's routes
    #: as stale while it is armed.  ``None`` for a disruptive crash and
    #: once the hold expired.
    hold: Optional[TimerHandle] = None


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
        #: Forwarding loops :meth:`find_route` met (FIB compiles walk
        #: without counting: this is a route-quality record field).
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
        #: One record per crashed AD, dropped by its restore.
        self._crashes: Dict[ADId, _Crash] = {}
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
        explicitly-passed transport is adopted as-is.  Every node is
        stamped with the full runtime container here, and only here.
        """
        if self.network is None:
            if network is None:
                if self.substrate != "sim":
                    raise RuntimeError(
                        f"{self.name}: substrate {self.substrate!r} networks "
                        "are built by repro.live; run the protocol through "
                        "repro.simul.runner.run_episodes or "
                        "repro.harness.chaos.run_cell, or pass one to "
                        "build(network=...)"
                    )
                network = SimNetwork(self.graph)
            self.network = network
            self._make_nodes(network)
            for node in network.nodes.values():
                self._stamp_runtime(node)
        return self.network

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
        return feature(name).collect(self)

    def converge(self, max_events: int = 5_000_000) -> ConvergenceResult:
        """Build if needed and run the control plane to quiescence.

        Sim substrate only: quiescence is an event-queue property.  Live
        runs converge in wall-clock time under
        :func:`repro.simul.runner.run_episodes` (a protocol object) or
        :func:`repro.harness.chaos.run_cell` (a harness cell).
        """
        network = self.build()
        if not isinstance(network, SimNetwork):
            raise RuntimeError(
                f"{self.name}: converge() drives the discrete-event engine; "
                "use repro.simul.runner.run_episodes for the live substrate "
                "(or repro.harness.chaos.run_cell for a harness cell)"
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
        ``HOLD_TIME``, so the data plane keeps forwarding
        through the restart.  ``None`` defers to the distributed
        :class:`~repro.protocols.graceful.GracefulRestartConfig`
        (``helper`` flag); with that off, the legacy disruptive path
        runs byte-identically.
        """
        network = self._require_network()
        if ad_id in self._crashes:
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
            # No NVRAM: messages sitting in the dead process's input
            # queue are lost with the rest of its state.
            network.flush_ingress(ad_id)
        hold = None
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
                    network.nodes[survivor].on_neighbor_grace(ad_id)
            hold = network.clock.call_later(HOLD_TIME, self._grace_expired, ad_id)
        else:
            for a, b in live:
                self.apply_link_status(a, b, False)
        self._crashes[ad_id] = _Crash(live, retain_state, hold)

    def _grace_expired(self, ad_id: ADId) -> None:
        """Hold timer fired before the restarter came back: give up.

        Helpers stop holding stale routes and the normal withdrawal
        machinery runs -- the restart turns disruptive after all.
        """
        crash = self._crashes.get(ad_id)
        if crash is None or crash.hold is None:  # pragma: no cover - defensive
            return
        crash.hold = None
        self.grace_expirations += 1
        for a, b in crash.links:
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
        crash = self._crashes.pop(ad_id, None)
        if crash is None:
            raise ValueError(f"AD {ad_id} is not crashed")
        graceful = crash.hold is not None
        if graceful:
            # Back inside the hold window: cancel the helpers' give-up
            # timer.  The links never went down, so the legacy
            # up-notification storm below is replaced by an explicit
            # resynchronisation round (when configured).
            crash.hold.cancel()
        fresh: Optional[ProtocolNode] = None
        if not crash.retain_state:
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
                for a, b in crash.links:
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
        for a, b in crash.links:
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
        node.transport = None
        return node

    def is_crashed(self, ad_id: ADId) -> bool:
        return ad_id in self._crashes

    # ----------------------------------------------------------- fault plans

    def schedule_fault_plan(self, plan: "FaultPlan") -> None:
        """Schedule a fault plan's events, relative to the current time."""
        network = self._require_network()
        for ev in plan:
            network.clock.call_later(ev.time, self.apply_fault_event, ev)

    def apply_fault_event(self, ev: object) -> None:
        """Apply one fault event now: THE applier, on either substrate.

        Scheduled plans, the cell driver's steps and both substrate
        adapters all come through here.
        """
        from repro.faults.misbehavior import MisbehaviorStart, MisbehaviorStop
        from repro.faults.plan import LinkFault, NodeFault, WireVersionChange

        if isinstance(ev, LinkFault):
            self.apply_link_status(ev.a, ev.b, ev.up)
        elif isinstance(ev, NodeFault):
            if ev.up:
                self.restore_node(ev.ad)
            else:
                self.crash_node(ev.ad, retain_state=ev.retain_state)
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

    def walk(self, flow: FlowSpec) -> Tuple[int, Tuple[ADId, ...]]:
        """The believed decision chain for ``flow``: ``(verdict, path)``.

        Source mode: the source's computed route (``NO_ROUTE`` when it
        has none).  Hop-by-hop mode: the chain of :meth:`next_hop`
        decisions from the source; a hop with no decision is
        ``NO_ROUTE``, a revisit is ``LOOP`` (the path ends with the
        revisited AD) and a walk longer than the AD count is
        ``HOP_BUDGET``.  Nothing physical is judged: a route over a
        link that does not exist (a forged LSA) or is down is still the
        route the protocol believes in.
        """
        src = flow.src
        if src == flow.dst:
            return DELIVERED, (src,)
        if self.mode is ForwardingMode.SOURCE:
            route = self.source_route(flow)
            if route is None:
                return NO_ROUTE, (src,)
            return DELIVERED, route
        path: List[ADId] = [src]
        seen = {src}
        prev: Optional[ADId] = None
        current = src
        # Generous guard: no simple AD path is longer than the AD count.
        for _ in range(self.graph.num_ads):
            nxt = self.next_hop(current, flow, prev)
            if nxt is None:
                return NO_ROUTE, tuple(path)
            path.append(nxt)
            if nxt in seen:
                return LOOP, tuple(path)
            if nxt == flow.dst:
                return DELIVERED, tuple(path)
            seen.add(nxt)
            prev, current = current, nxt
        return HOP_BUDGET, tuple(path)

    def find_route(self, flow: FlowSpec) -> Optional[Tuple[ADId, ...]]:
        """The route traffic for ``flow`` would take, or ``None``.

        The :meth:`walk`'s path when it delivers; any other ending means
        the packet would be dropped.  A forwarding loop is counted in
        :attr:`forwarding_loops` here and only here.
        """
        verdict, path = self.walk(flow)
        if verdict == DELIVERED:
            return path
        if verdict == LOOP:
            self.forwarding_loops += 1
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
        """Routing-information entries held at an AD (protocol-defined;
        by default, what the AD's node counts)."""
        return self.network.node(ad_id).rib_size()

    def total_rib_size(self) -> int:
        """Sum of RIB entries across all ADs."""
        return sum(self.rib_size(a) for a in self.graph.ad_ids())

    def max_rib_size(self) -> int:
        """Largest per-AD RIB (the hot-spot the scaling claims concern)."""
        return max(self.rib_size(a) for a in self.graph.ad_ids())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(ads={self.graph.num_ads})"
