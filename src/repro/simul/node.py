"""Protocol node base class.

Each AD is represented by one :class:`ProtocolNode` (the paper's Section
4.1 abstraction: inter-AD routing happens at AD granularity, so one
routing entity per AD suffices; intra-AD detail is invisible).

Nodes are substrate-neutral: everything they touch goes through the
:class:`~repro.simul.transport.Transport` and
:class:`~repro.simul.transport.Clock` interfaces, so the same subclass
runs unmodified on the discrete-event simulator and on the live
asyncio/UDP substrate (:mod:`repro.live`).  A node's ``transport`` is a
plain attribute: ``None`` until the network registers the node
(``Transport.add_node`` / ``restore_node``), then read as
``self.transport.graph``, ``self.transport.profiler`` and so on.

Subclasses implement three hooks:

* :meth:`ProtocolNode.start` — fires once at simulation start; typically
  sends initial advertisements to neighbours.
* :meth:`ProtocolNode.on_message` — a control message arrived.
* :meth:`ProtocolNode.on_link_change` — an incident link went up or down.

The misbehavior, validation and retransmission plumbing lives here
once; a family that can lie supplies ``_tell_lie`` / ``_reassert_lies``
(and ``behave`` extras), one that validates supplies the ``check`` it
hands to :meth:`ProtocolNode._rejects`, and one that acknowledges its
control exchanges pairs :meth:`ProtocolNode.arm_retransmit` with
:meth:`ProtocolNode.clear_retransmit`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.adgraph.ad import ADId, InterADLink
from repro.simul.messages import Message
from repro.simul.transport import TimerHandle, Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.adgraph.graph import InterADGraph
    from repro.policy.database import PolicyDatabase
    from repro.protocols.graceful import GracefulRestartConfig
    from repro.protocols.hardening import HardeningConfig
    from repro.protocols.pacing import PacingConfig
    from repro.protocols.validation import NeighborGuard, ValidationConfig
    from repro.protocols.versioning import WireConfig

#: Ack wait before a hardening retransmission, in simulated time units:
#: about two worst-case round trips (link delays run 3--30).
RETRANSMIT_TIMEOUT = 60.0
#: Retransmissions before an exchange is given up for lost.
MAX_RETRIES = 3


class ProtocolNode:
    """Base class for the per-AD routing process."""

    # The runtime stamp: one attribute per row of
    # ``repro.protocols.runtime.RUNTIME_FEATURES``, set on the instance
    # by the driver (``RoutingProtocol._stamp_runtime``) at build time
    # and on every state-losing restart.  That module also installs the
    # class-level defaults, so an unstamped node runs the default
    # runtime.
    hardening: "HardeningConfig"
    validation: "ValidationConfig"
    pacing: "PacingConfig"
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
        #: The network this node is registered with (set by it).
        self.transport: Optional[Transport] = None
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
        #: Active misbehaviors: lie name -> victim AD (or ``None``).
        self._active_lies: Dict[str, Optional[ADId]] = {}
        #: Armed retransmissions: key -> (peer, message, give-up effect).
        self._unacked: Dict[Hashable, Tuple[ADId, Message, Optional[Callable]]] = {}

    # ----------------------------------------------------------- plumbing

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

    def on_neighbor_grace(self, neighbor: ADId) -> None:
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
        link = self.transport.graph.link_if_exists(self.ad_id, neighbor)
        if link is not None and link.up:
            self.on_link_change(link, True)

    # ---------------------------------------------------------- validation

    def _rejects(self, sender: ADId, check, *claim) -> bool:
        """Whether receiver-side validation rejects a claim from ``sender``.

        ``check(*claim)`` is a family's ``_check_*`` method, returning a
        reason or ``None``.  It runs only when a check is enabled (some
        checks keep state, such as EGP's sequence high-water mark); a
        rejection is charged to ``sender`` on the guard.
        """
        if not self.validation.checks_enabled:
            return False
        reason = check(*claim)
        if reason is None:
            return False
        if self.guard is not None:
            self.guard.violation(sender, reason)
        return True

    # ------------------------------------------------------ retransmission

    def arm_retransmit(
        self, key: Hashable, peer: ADId, msg: Message, give_up: Optional[Callable] = None
    ) -> None:
        """Resend ``msg`` (which the caller sends) until ``key`` is cleared.

        Resends go to ``peer`` every ``RETRANSMIT_TIMEOUT``, at most
        ``MAX_RETRIES`` times; one timeout after the last,
        the key is dropped and ``give_up`` (if any) runs.  ``key`` names
        the exchange within this node: an LS token, an EGP ``(peer, seq)``
        or an ORWG handle.  No key is armed twice, so a cleared key's
        pending timer only finds it gone.
        """
        self._unacked[key] = (peer, msg, give_up)
        self._retransmit_in(key, MAX_RETRIES)

    def clear_retransmit(self, key: Hashable) -> None:
        """The exchange ``key`` was acknowledged or ended: resend no more."""
        self._unacked.pop(key, None)

    def _retransmit_in(self, key: Hashable, retries_left: int) -> None:
        self.schedule(RETRANSMIT_TIMEOUT, self._retransmit, key, retries_left)

    def _retransmit(self, key: Hashable, retries_left: int) -> None:
        if key not in self._unacked:
            return
        if retries_left <= 0:
            give_up = self._unacked.pop(key)[2]
            if give_up is not None:
                give_up()
            return
        peer, msg, _ = self._unacked[key]
        self.send(peer, msg)
        self._retransmit_in(key, retries_left - 1)

    # --------------------------------------------------------- misbehavior

    #: A liar re-asserts its lies periodically (a leaking AD keeps
    #: leaking); the burst is bounded so runs still quiesce.
    LIE_REASSERT_INTERVAL = 60.0
    LIE_REASSERT_COUNT = 6
    _lie_ticks_left = 0
    _lie_tick_pending = False

    def misbehave(self, lie: str, target: Optional[ADId] = None) -> bool:
        """Turn this node into a liar of the given kind.

        Returns whether the lie is expressible in this protocol family
        (a DV speaker has no policy terms to forge); the driver records
        the outcome rather than failing the run.  Every lie that applies
        (re)starts one burst of ``LIE_REASSERT_COUNT`` re-assertions,
        ``LIE_REASSERT_INTERVAL`` apart; a second lie told mid-burst
        restarts the count, never a second timer.
        """
        applied = self._tell_lie(lie, target)
        if applied:
            self._lie_ticks_left = self.LIE_REASSERT_COUNT
            if not self._lie_tick_pending:
                self._lie_tick_pending = True
                self.schedule(self.LIE_REASSERT_INTERVAL, self._lie_tick)
        return applied

    def _lie_tick(self) -> None:
        self._lie_tick_pending = False
        if not self._active_lies or self._lie_ticks_left <= 0:
            return
        self._lie_ticks_left -= 1
        self._reassert_lies()
        if self._lie_ticks_left > 0:
            self._lie_tick_pending = True
            self.schedule(self.LIE_REASSERT_INTERVAL, self._lie_tick)

    def _tell_lie(self, lie: str, target: Optional[ADId]) -> bool:
        """Start telling ``lie`` in this family's currency, recording it
        in ``_active_lies``; whether it applied.  Default: none does."""
        return False

    def _reassert_lies(self) -> None:
        """Repeat the active lies once (one tick of the burst)."""

    def behave(self) -> None:
        """Stop originating lies (already-sent lies are not withdrawn)."""
        self._active_lies.clear()
        self._lie_ticks_left = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(AD{self.ad_id})"
