"""Protocol node base class.

Each AD is represented by one :class:`ProtocolNode` (the paper's Section
4.1 abstraction: inter-AD routing happens at AD granularity, so one
routing entity per AD suffices; intra-AD detail is invisible).

Nodes are substrate-neutral: everything they touch goes through the
:class:`~repro.simul.transport.Transport` and
:class:`~repro.simul.transport.Clock` interfaces, so the same subclass
runs unmodified on the discrete-event simulator and on the live
asyncio/UDP substrate (:mod:`repro.live`).

Subclasses implement three hooks:

* :meth:`ProtocolNode.start` — fires once at simulation start; typically
  sends initial advertisements to neighbours.
* :meth:`ProtocolNode.on_message` — a control message arrived.
* :meth:`ProtocolNode.on_link_change` — an incident link went up or down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.adgraph.ad import ADId, InterADLink
from repro.simul.messages import Message
from repro.simul.transport import TimerHandle, Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.adgraph.graph import InterADGraph
    from repro.policy.database import PolicyDatabase
    from repro.protocols.graceful import GracefulRestartConfig
    from repro.protocols.hardening import HardeningConfig
    from repro.protocols.pacing import PacingConfig
    from repro.protocols.perf import PerfConfig
    from repro.protocols.validation import NeighborGuard, ValidationConfig
    from repro.protocols.versioning import WireConfig
    from repro.simul.profiling import PhaseProfiler


class ProtocolNode:
    """Base class for the per-AD routing process."""

    # The runtime stamp: one attribute per node-level row of
    # ``repro.protocols.runtime.RUNTIME_FEATURES``, set on the instance
    # by the driver (``RoutingProtocol._stamp_runtime``) at build time
    # and on every state-losing restart.  That module also installs the
    # class-level defaults, so an unstamped node runs the default
    # runtime.
    hardening: "HardeningConfig"
    validation: "ValidationConfig"
    pacing: "PacingConfig"
    perf: "PerfConfig"
    graceful: "GracefulRestartConfig"
    wire: "WireConfig"
    #: Stamped with ``validation``: the per-receiver violation ledger
    #: (``None`` unless a check is on) and the registered ground truth
    #: that claims are judged against.
    guard: Optional["NeighborGuard"] = None
    trusted_graph: Optional["InterADGraph"] = None
    trusted_policies: Optional["PolicyDatabase"] = None
    #: Control messages suppressed as already seen (dedup at work).
    duplicates_ignored = 0

    def __init__(self, ad_id: ADId) -> None:
        self.ad_id = ad_id
        self._transport: Optional[Transport] = None
        self._defunct = False
        #: How many times this node acted as a graceful-restart helper
        #: (entered the hold-routes-as-stale state for a neighbour).
        self.grace_holds = 0
        #: peer -> (min_version, version) last advertised in a Hello.
        self.peer_wire: Dict[ADId, Tuple[int, int]] = {}
        #: peer -> capability strings last advertised in a Hello.
        self.peer_capabilities: Dict[ADId, Tuple[str, ...]] = {}
        #: peer -> negotiated tx version (highest mutually supported).
        self.negotiated: Dict[ADId, int] = {}
        #: Peers whose advertised version range does not overlap ours;
        #: their control traffic is dropped, never believed.
        self.version_blocked: Set[ADId] = set()
        #: Frames dropped because the sender is version-blocked.
        self.version_drops = 0

    # ----------------------------------------------------------- plumbing

    def attach(self, transport: Transport) -> None:
        """Called by the transport when the node is registered."""
        self._transport = transport

    def detach(self) -> None:
        """Disconnect from the transport (used when built on a scratch one)."""
        self._transport = None

    def retire(self) -> None:
        """Permanently silence this node: pending timers become no-ops.

        Used when a crashed AD is restarted *without* state -- the old
        process is replaced, so its outstanding retransmission and refresh
        timers must never fire against the live network.
        """
        self._defunct = True

    def inherit_nonvolatile(self, previous: "ProtocolNode") -> None:
        """Copy non-volatile state from the node this one replaces.

        Real routing processes keep a few things across a state-losing
        restart (e.g. an LSA sequence counter in NVRAM, so post-restart
        originations are not rejected as stale).  Default: nothing.
        """

    @property
    def transport(self) -> Transport:
        """The substrate this node is attached to."""
        if self._transport is None:
            raise RuntimeError(f"node {self.ad_id} is not attached to a network")
        return self._transport

    @property
    def network(self) -> Transport:
        """Historical alias for :attr:`transport`.

        Protocol *drivers* and tests grew up calling the substrate "the
        network"; node subclasses should prefer the interface-shaped
        accessors (:attr:`topology`, :attr:`profiler`, :meth:`schedule`,
        ...).
        """
        return self.transport

    @property
    def topology(self) -> "InterADGraph":
        """The inter-AD topology (links, metrics, policy terms)."""
        return self.transport.graph

    @property
    def profiler(self) -> Optional["PhaseProfiler"]:
        """The substrate's wall-clock profiler, if one is attached."""
        return self.transport.profiler

    @property
    def now(self) -> float:
        """Current time, in protocol time units."""
        return self.transport.clock.now

    def neighbors(self) -> List[ADId]:
        """Currently reachable neighbour ADs (live links only)."""
        return self.transport.neighbors(self.ad_id)

    def send(self, dst: ADId, msg: Message) -> None:
        """Send a control message to a neighbour AD."""
        self.transport.send(self.ad_id, dst, msg)

    def broadcast(self, msg: Message, exclude: Optional[ADId] = None) -> None:
        """Send a message to every live neighbour (optionally minus one)."""
        self.transport.broadcast(self.ad_id, msg, exclude)

    def note_computation(self, kind: str, count: int = 1) -> None:
        """Record local computation work in the run's metrics."""
        self.transport.metrics.note_computation(self.ad_id, kind, count)

    def schedule(self, delay: float, fn, *args) -> TimerHandle:
        """Schedule a local timer; returns a cancellable handle.

        The timer is bound to this node's lifetime: if the node has been
        :meth:`retire`\\ d by the time it fires, it does nothing.  The
        returned :class:`~repro.simul.transport.TimerHandle` follows the
        transport-wide contract -- ``cancel()`` is idempotent and is a
        harmless no-op after the timer has fired, so callers may cancel
        defensively without tracking whether the timer already ran.
        """

        def fire() -> None:
            if not self._defunct:
                fn(*args)

        return self.transport.clock.call_later(delay, fire)

    # ------------------------------------------------- version negotiation

    def receive(self, sender: ADId, msg: Message) -> None:
        """Substrate-facing delivery entry point.

        When negotiation is off (the default) this is exactly
        :meth:`on_message`.  When on, Hellos are consumed here -- before
        any protocol code sees them -- and control traffic from
        version-blocked peers is dropped, so an unsupported-version peer
        can never corrupt the believed view.
        """
        if self.wire.negotiate:
            from repro.protocols.versioning import Hello

            if isinstance(msg, Hello):
                self._on_hello(sender, msg)
                return
            if sender in self.version_blocked:
                self.version_drops += 1
                self.transport.metrics.count_version_reject()
                return
        self.on_message(sender, msg)

    def announce_wire(self) -> None:
        """Send a Hello to every live neighbour (start / post-flip)."""
        if not self.wire.negotiate:
            return
        for nbr in self.neighbors():
            self._send_hello(nbr, reply=False)

    def wire_tx_version(self, dst: ADId) -> int:
        """The version to encode frames to ``dst`` at.

        Before negotiation completes (or when it is off for this pair)
        a negotiating node transmits at its *minimum* version -- the
        only revision it can prove the peer decodes.
        """
        if not self.wire.negotiate:
            return self.wire.version
        return self.negotiated.get(dst, self.wire.min_version)

    def renegotiate(self) -> None:
        """Recompute every pair after a live version flip, re-announce."""
        if not self.wire.negotiate:
            return
        for peer, (peer_min, peer_version) in list(self.peer_wire.items()):
            self._settle_pair(peer, peer_min, peer_version)
        self.announce_wire()

    def _send_hello(self, dst: ADId, *, reply: bool) -> None:
        from repro.protocols.versioning import Hello

        self.send(
            dst,
            Hello(
                version=self.wire.version,
                min_version=self.wire.min_version,
                reply=reply,
                capabilities=self.wire.capabilities,
            ),
        )

    def _on_hello(self, sender: ADId, hello: "Message") -> None:
        self.peer_wire[sender] = (hello.min_version, hello.version)
        self.peer_capabilities[sender] = tuple(hello.capabilities)
        self._settle_pair(sender, hello.min_version, hello.version)
        if not hello.reply:
            self._send_hello(sender, reply=True)

    def _settle_pair(self, peer: ADId, peer_min: int, peer_version: int) -> None:
        low = max(self.wire.min_version, peer_min)
        high = min(self.wire.version, peer_version)
        if low > high:
            # No mutually supported revision: block the peer loudly.
            self.negotiated.pop(peer, None)
            self.version_blocked.add(peer)
            self.transport.metrics.count_version_reject()
            if self.guard is not None:
                self.guard.quarantine_now(
                    peer,
                    f"unsupported wire version [{peer_min}, {peer_version}]",
                )
            return
        self.version_blocked.discard(peer)
        if self.negotiated.get(peer) != high:
            self.negotiated[peer] = high
            self.transport.metrics.note_negotiated(self.ad_id, peer, high)

    # --------------------------------------------------------------- hooks

    def start(self) -> None:
        """Simulation-start hook.  Default: do nothing."""

    def on_message(self, sender: ADId, msg: Message) -> None:
        """A control message from a neighbour arrived.  Must be overridden
        by protocols that ever receive messages."""
        raise NotImplementedError(
            f"{type(self).__name__} received unexpected {msg.type_name}"
        )

    def on_link_change(self, link: InterADLink, up: bool) -> None:
        """An incident link changed status.  Default: do nothing."""

    def on_neighbor_grace(self, neighbor: ADId, hold_time: float) -> None:
        """A neighbour began a graceful restart: hold its routes as stale.

        The default helper behaviour is *inaction* -- the neighbour's
        routes stay installed because no link-down event is delivered,
        which is exactly the stale-retention semantics every family
        needs.  Subclasses may additionally mark state stale; the base
        class just counts the hold for observability.
        """
        self.grace_holds += 1

    def on_neighbor_resync(self, neighbor: ADId) -> None:
        """A gracefully restarted neighbour is back: replay bring-up.

        Default: re-run this family's own link-up machinery on the
        shared link, which is a full adjacency resynchronisation in
        every implemented family (LS database exchange, DV full-table
        flush, path-vector Loc-RIB re-advertisement) and refreshes any
        stale-held state on both sides.
        """
        link = self.topology.link_if_exists(self.ad_id, neighbor)
        if link is not None and link.up:
            self.on_link_change(link, True)

    def misbehave(self, lie: str, target: Optional[ADId] = None) -> bool:
        """Turn this node into a liar of the given kind.

        Returns whether the lie is expressible in this protocol family
        (a DV speaker has no policy terms to forge); the driver records
        the outcome rather than failing the run.  Default: no lie is
        expressible.
        """
        return False

    def behave(self) -> None:
        """Stop originating lies (already-sent lies are not withdrawn)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(AD{self.ad_id})"
