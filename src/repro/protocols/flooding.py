"""Link-state flooding substrate.

Shared by every link-state protocol here (plain SPF, LS-hop-by-hop,
ORWG, and the Section 5.5 variants): each AD originates a Link State
Advertisement describing its incident inter-AD links (with metrics and
status) and -- when the protocol expresses policy in terms -- its Policy
Terms (Section 5.3: "link state updates can be augmented to include
policy related attributes of the resources they advertise").

LSAs carry sequence numbers; nodes flood newer LSAs to all neighbours
except the sender, so after quiescence every node's LSDB is identical
(tested as an invariant).  On a link status change both endpoints
re-originate.  On link *up*, each endpoint additionally sends its whole
LSDB across the new adjacency (database exchange), so partitioned
knowledge heals.

:meth:`LSNode.local_view` is the
:class:`~repro.adgraph.graph.InterADGraph` + policy database the LSDB
implies -- the node's *believed* internet, on which all its route
computations run.  A link is believed up only if **both** endpoint LSAs
report it up.  The view is a pure function of LSDB content, so it is a
*value* owned by the :class:`~repro.protocols.lsdb.LSDBGeneration` of
that content: built once by :mod:`repro.protocols.lsdb` (cold, or forked
from the view of the LSDB the asking node held before), shared by every
node at that content, and never written to after it is published.
Modelled state and computation are counted per AD; host state and
computation are shared per LSDB state (DESIGN section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.adgraph.ad import ADId, InterADLink, Level
from repro.policy.terms import PolicyTerm
from repro.protocols.hardening import REFRESH_COUNT, REFRESH_INTERVAL
from repro.protocols.lsdb import LSDBGeneration, LSDBGenerations, View, cold_view, derive_view
from repro.protocols.pacing import OverloadDefenseMixin
from repro.protocols.validation import MAX_SEQ_JUMP
from repro.simul.messages import AD_ID_BYTES, METRIC_BYTES, Message
from repro.simul.node import ProtocolNode

#: Term id used by a lying LS node for terms it fabricates; far above any
#: id the policy generators assign, so forgeries never shadow real terms.
FORGED_TERM_ID = 9_999


@dataclass(frozen=True, slots=True)
class LinkRecord:
    """One incident link as described in an LSA."""

    neighbor: ADId
    delay: float
    cost: float
    up: bool
    bandwidth: float = 1.0

    def size_bytes(self) -> int:
        return AD_ID_BYTES + 3 * METRIC_BYTES + 1


@dataclass(frozen=True, slots=True)
class LinkStateAd(Message):
    """A link state advertisement, optionally carrying Policy Terms.

    ``origin_level`` carries the originating AD's hierarchy level so that
    receivers can partition their view into regions (the hierarchical
    route server of :mod:`repro.core.hierarchical`); one byte on the wire.
    """

    origin: ADId
    seq: int
    links: Tuple[LinkRecord, ...]
    terms: Tuple[PolicyTerm, ...] = ()
    origin_level: Level = Level.CAMPUS
    #: Lazily memoized wire size -- every field is frozen, but the
    #: accounting layer re-asks per *delivery* and a flooded LSA is
    #: delivered once per adjacency it crosses.
    _size: int = field(default=0, init=False, repr=False, compare=False)

    def size_bytes(self) -> int:
        size = self._size
        if size == 0:
            # Explicit base call: slots=True re-creates the class, so the
            # zero-arg super() closure would point at the discarded
            # original.
            size = (
                Message.size_bytes(self)
                + AD_ID_BYTES  # origin
                + 4  # sequence number
                + 1  # origin level
                + sum(rec.size_bytes() for rec in self.links)
                + sum(t.size_bytes() for t in self.terms)
            )
            object.__setattr__(self, "_size", size)
        return size


@dataclass(frozen=True, slots=True)
class LSDBExchange(Message):
    """Full-database exchange sent across a newly-up adjacency.

    ``token`` (nonzero only under retransmit hardening) identifies the
    exchange for acknowledgement; the extra four bytes are only charged
    when it is carried, so unhardened runs keep legacy byte counts.
    """

    ads: Tuple[LinkStateAd, ...]
    token: int = 0
    _size: int = field(default=0, init=False, repr=False, compare=False)

    def size_bytes(self) -> int:
        from repro.simul.messages import HEADER_BYTES

        size = self._size
        if size == 0:
            size = (
                HEADER_BYTES
                + sum(a.size_bytes() - HEADER_BYTES for a in self.ads)
                + (4 if self.token else 0)
            )
            object.__setattr__(self, "_size", size)
        return size


@dataclass(frozen=True, slots=True)
class ExchangeAck(Message):
    """Acknowledges a tokened :class:`LSDBExchange` (hardening only)."""

    token: int

    def size_bytes(self) -> int:
        return Message.size_bytes(self) + 4


def successor_on(
    path: Optional[Tuple[ADId, ...]], ad_id: ADId
) -> Optional[ADId]:
    """The AD after ``ad_id`` on ``path``: a hop-by-hop forwarding decision.

    ``None`` when there is no path, ``ad_id`` is not on it, or it ends
    there.
    """
    if path is None:
        return None
    try:
        idx = path.index(ad_id)
    except ValueError:
        return None
    return path[idx + 1] if idx + 1 < len(path) else None


class LSNode(OverloadDefenseMixin, ProtocolNode):
    """A flooding participant with a link-state database."""

    #: Whether a pacing-deferred origination timer is already in flight.
    _originate_deferred = False

    def __init__(
        self,
        ad_id: ADId,
        own_terms: Tuple[PolicyTerm, ...] = (),
        include_terms: bool = True,
        flood_links: Optional[frozenset] = None,
        level: Level = Level.CAMPUS,
        *,
        generations: LSDBGenerations,
    ) -> None:
        super().__init__(ad_id)
        self.own_terms = own_terms if include_terms else ()
        self.include_terms = include_terms
        #: Our hierarchy level, advertised in our LSA so receivers can
        #: region-partition their views.
        self.level = level
        #: Database-distribution scope (Section 6, research issue 3):
        #: ``None`` floods over every live link; a set of canonical link
        #: keys restricts flooding to those links (e.g. a spanning tree),
        #: which minimises duplicate deliveries but loses robustness when
        #: a scoped link fails -- ablation A2 measures both sides.
        self.flood_links = flood_links
        self.lsdb: Dict[ADId, LinkStateAd] = {}
        #: Bumped whenever the LSDB changes; caches key off it.
        self.db_version = 0
        self._seq = 0
        #: The protocol-wide generation pool and the generation this node
        #: was at when it last answered a query (it owns the view).
        self._generations = generations
        self._generation: Optional[LSDBGeneration] = None
        self._generation_version = -1
        #: Cold view builds / derivations from a previous view that *this
        #: node* performed (observability; most queries do neither).
        self.view_rebuilds = 0
        self.view_delta_refreshes = 0
        # Refresh hardening: re-originations left in the current burst,
        # and whether a tick is already scheduled (at most one in flight).
        self._refresh_left = 0
        self._refresh_pending = False
        # Retransmit hardening: the DB-exchange token generator.
        self._exchange_seq = 0
        # Terms a liar adds to its own LSA (empty when honest).
        self._forged_terms: Tuple[PolicyTerm, ...] = ()

    def _flood(self, msg: Message, exclude: Optional[ADId] = None) -> None:
        """Send to flooding-scope neighbours (all, or scoped links only)."""
        if self.flood_links is None:
            self.transport.broadcast(self.ad_id, msg, exclude)
            return
        for nbr in self.neighbors():
            if nbr == exclude:
                continue
            key = (min(self.ad_id, nbr), max(self.ad_id, nbr))
            if key in self.flood_links:
                self.send(nbr, msg)

    # ---------------------------------------------------------------- origin

    def _build_own_lsa(self) -> LinkStateAd:
        self._seq += 1
        records = []
        for link in self.transport.graph.links_of(self.ad_id, include_down=True):
            nbr = link.other(self.ad_id)
            up = link.up
            if up and self.pacing.damp and self._damper is not None:
                if self._damp_suppressed((min(self.ad_id, nbr), max(self.ad_id, nbr))):
                    # A damped link is advertised down until its penalty
                    # decays, so its flapping stops rippling outward.
                    up = False
            records.append(
                LinkRecord(
                    neighbor=nbr,
                    delay=link.metric("delay"),
                    cost=link.metric("cost"),
                    up=up,
                    bandwidth=link.metric("bandwidth"),
                )
            )
        lsa = LinkStateAd(
            origin=self.ad_id,
            seq=self._seq,
            links=tuple(records),
            terms=self.own_terms,
            origin_level=self.level,
        )
        if self._active_lies:
            lsa = self._apply_lies(lsa)
        return lsa

    def _apply_lies(self, lsa: LinkStateAd) -> LinkStateAd:
        """Rewrite our own LSA according to the active lies."""
        links = lsa.links
        terms = lsa.terms
        level = lsa.origin_level
        if "metric-lie" in self._active_lies:
            links = tuple(
                LinkRecord(r.neighbor, 0.0, 0.0, r.up, r.bandwidth)
                for r in links
            )
        victim = self._active_lies.get("bogus-origin")
        if victim is not None:
            # The reciprocal half of the fabricated adjacency: the local
            # view believes a link only if both endpoints advertise it.
            links = links + (LinkRecord(victim, 1.0, 1.0, True),)
        if self._forged_terms:
            terms = terms + self._forged_terms
        return LinkStateAd(
            origin=lsa.origin,
            seq=lsa.seq,
            links=links,
            terms=terms,
            origin_level=level,
        )

    def _originate(self) -> None:
        """(Re)build our own LSA and flood it (no refresh re-arming)."""
        lsa = self._build_own_lsa()
        self._install(lsa)
        self._flood(lsa)

    def originate(self) -> None:
        """(Re)build our own LSA and flood it.

        Under refresh hardening every change-driven origination also arms
        a bounded burst of periodic re-originations, so a flood lost to
        channel impairment heals at the next tick.

        Under pacing, originations closer together than the minimum
        advertisement interval (or inside a hold-down window) coalesce
        into one deferred origination that advertises the state current
        at fire time.
        """
        if self.pacing.any_enabled:
            wait = self._pacing_defers_flush()
            if wait is not None:
                if not self._originate_deferred:
                    self._originate_deferred = True
                    self.schedule(wait, self._deferred_originate)
                return
        self._originate()
        if self.hardening.refresh:
            self._refresh_left = REFRESH_COUNT
            if not self._refresh_pending:
                self._refresh_pending = True
                self.schedule(REFRESH_INTERVAL, self._refresh_tick)

    def _deferred_originate(self) -> None:
        self._originate_deferred = False
        self.originate()  # re-checks the gate (hold-down may have grown)

    def _on_reuse(self, key) -> None:
        # A damped link's penalty decayed under the reuse threshold:
        # advertise its true current state again.
        self.originate()

    def _refresh_tick(self) -> None:
        self._refresh_pending = False
        if self._refresh_left <= 0:
            return
        self._refresh_left -= 1
        self._originate()
        if self._refresh_left > 0:
            self._refresh_pending = True
            self.schedule(REFRESH_INTERVAL, self._refresh_tick)

    # --------------------------------------------------------------- control

    def start(self) -> None:
        self.originate()

    def _install(self, lsa: LinkStateAd) -> bool:
        """Store an LSA if newer; returns whether the LSDB changed.

        The install of originations and of :class:`LSDBExchange` entries;
        :meth:`on_message` repeats its three steps in place for a lone
        LSA (tests/test_ls_install_rule.py holds the two equal).
        """
        current = self.lsdb.get(lsa.origin)
        if current is not None and current.seq >= lsa.seq:
            self.duplicates_ignored += 1
            return False
        self.lsdb[lsa.origin] = lsa
        self.db_version += 1
        return True

    def on_message(self, sender: ADId, msg: Message) -> None:
        if isinstance(msg, LinkStateAd):
            # The flood's per-delivery path, in place: it is
            # :meth:`_install` then :meth:`_flood` minus the two calls, so
            # a duplicate costs no call past this one and a new LSA none
            # before the broadcast (tests/test_message_path.py counts).
            # ``checks_enabled`` is a cached flag: with every check off,
            # no ``_rejects`` call per LSA.
            if self.guard is not None and self.guard.suppresses(sender):
                return
            if self.validation.checks_enabled and self._rejects(
                sender, self._check_lsa, msg
            ):
                return
            current = self.lsdb.get(msg.origin)
            if current is not None and current.seq >= msg.seq:
                self.duplicates_ignored += 1
                return
            self.lsdb[msg.origin] = msg
            self.db_version += 1
            if self.flood_links is None:
                self.transport.broadcast(self.ad_id, msg, sender)
            else:
                self._flood(msg, sender)
        elif isinstance(msg, LSDBExchange):
            if self.guard is not None and self.guard.suppresses(sender):
                return
            if msg.token:
                self.send(sender, ExchangeAck(msg.token))
            checks = self.validation.checks_enabled
            for lsa in msg.ads:
                if checks and self._rejects(sender, self._check_lsa, lsa):
                    continue
                if self._install(lsa):
                    self._flood(lsa, exclude=sender)
        elif isinstance(msg, ExchangeAck):
            self.clear_retransmit(msg.token)
        else:
            super().on_message(sender, msg)

    # ------------------------------------------------------------ validation

    def _check_lsa(self, lsa: LinkStateAd) -> Optional[str]:
        """Validate an LSA against the trusted registries.

        Rejection happens *before* install-and-reflood, so a validating
        receiver never propagates a lie and every violation is charged
        to the AD that actually injected it.
        """
        v = self.validation
        graph = self.trusted_graph
        if v.origin_check and graph is not None:
            if not graph.has_ad(lsa.origin):
                return f"unknown origin AD {lsa.origin}"
            for rec in lsa.links:
                if not graph.has_link(lsa.origin, rec.neighbor):
                    return (
                        f"unregistered adjacency "
                        f"{lsa.origin}-{rec.neighbor}"
                    )
        if v.metric_guard and graph is not None:
            for rec in lsa.links:
                if not graph.has_link(lsa.origin, rec.neighbor):
                    continue  # origin_check's department
                link = graph.link(lsa.origin, rec.neighbor)
                if (
                    rec.delay < link.metric("delay")
                    or rec.cost < link.metric("cost")
                ):
                    return (
                        f"metric below registered cost on "
                        f"{lsa.origin}-{rec.neighbor}"
                    )
        if v.seq_guard:
            current = self.lsdb.get(lsa.origin)
            if (
                current is not None
                and lsa.seq > current.seq + MAX_SEQ_JUMP
            ):
                return f"implausible sequence jump from AD {lsa.origin}"
        if v.term_guard and self.trusted_policies is not None:
            for term in lsa.terms:
                if term.owner != lsa.origin:
                    return (
                        f"AD {lsa.origin} advertises a term owned by "
                        f"AD {term.owner}"
                    )
                if term not in self.trusted_policies.terms_of(term.owner):
                    return f"unregistered policy term from AD {lsa.origin}"
        return None

    # ----------------------------------------------------------- misbehavior

    def _tell_lie(self, lie: str, target: Optional[ADId]) -> bool:
        if lie == "route-leak":
            if not self.include_terms:
                # Term-free LS variants never advertise transit
                # willingness at all (policy lives in the static
                # hierarchy ordering), so there is nothing to leak.
                return False
            # Advertise transit the registry never authorized: one
            # forged own-owned term permitting everything for free.
            self._active_lies[lie] = None
            self._forged_terms = self._forged_terms + (
                PolicyTerm(owner=self.ad_id, term_id=FORGED_TERM_ID),
            )
            self.originate()
            return True
        if lie == "metric-lie":
            self._active_lies[lie] = None
            self.originate()
            return True
        if lie == "bogus-origin":
            if target is None:
                return False
            self._active_lies[lie] = target
            self.originate()  # our half of the fabricated adjacency
            self._flood_bogus_origin(target)
            return True
        if lie == "stale-replay":
            self._active_lies[lie] = None
            self._flood_replays()
            return True
        if lie == "term-forgery":
            victim = target
            if not self.include_terms:
                return False
            if victim is None:
                nbrs = self.neighbors()
                if not nbrs:
                    return False
                victim = min(nbrs)
            self._active_lies[lie] = victim
            self._forged_terms = self._forged_terms + (
                PolicyTerm(owner=victim, term_id=FORGED_TERM_ID),
            )
            self.originate()
            return True
        return False

    def _flood_bogus_origin(self, victim: ADId) -> None:
        """Forge the victim's LSA: it now connects only to us."""
        stored = self.lsdb.get(victim)
        fake = LinkStateAd(
            origin=victim,
            seq=(stored.seq if stored is not None else 0) + 1,
            links=(LinkRecord(self.ad_id, 1.0, 1.0, True),),
            terms=stored.terms if stored is not None else (),
            origin_level=(
                stored.origin_level if stored is not None else Level.CAMPUS
            ),
        )
        self._install(fake)
        self._flood(fake)

    def _flood_replays(self) -> None:
        """Re-flood "old" LSAs under sequence numbers outranking fresh ones."""
        for origin in sorted(self.lsdb):
            if origin == self.ad_id:
                continue
            old = self.lsdb[origin]
            # An LSA from before the origin's links came up: the stale
            # snapshot the inflated sequence number lets win.
            self._flood(
                LinkStateAd(
                    origin=origin,
                    seq=old.seq + 1_000,
                    links=(),
                    terms=old.terms,
                    origin_level=old.origin_level,
                )
            )

    def _reassert_lies(self) -> None:
        if any(
            lie in self._active_lies
            for lie in ("route-leak", "metric-lie", "term-forgery")
        ):
            self.originate()
        victim = self._active_lies.get("bogus-origin")
        if victim is not None:
            self._flood_bogus_origin(victim)
        if "stale-replay" in self._active_lies:
            self._flood_replays()

    def behave(self) -> None:
        super().behave()
        self._forged_terms = ()

    def on_link_change(self, link: InterADLink, up: bool) -> None:
        originate = True
        if self.pacing.any_enabled:
            nbr = link.other(self.ad_id)
            key = (min(self.ad_id, nbr), max(self.ad_id, nbr))
            newly_suppressed = False
            if not up:
                self._enter_holddown()
                newly_suppressed = self._damp_loss(key)
            if (
                self.pacing.damp
                and not newly_suppressed
                and self._damp_suppressed(key)
            ):
                # A suppressed link's flaps no longer drive originations;
                # our LSA keeps advertising it down until reuse.  (The
                # origination when suppression *starts* is what flips the
                # advertisement to down.)
                self.suppressed_announcements += 1
                originate = False
        if originate:
            self.originate()
        if up:
            # Database exchange across the new adjacency.
            nbr = link.other(self.ad_id)
            ads = tuple(self.lsdb[o] for o in sorted(self.lsdb))
            if self.hardening.retransmit:
                self._exchange_seq += 1
                exchange = LSDBExchange(ads, token=self._exchange_seq)
                self.send(nbr, exchange)
                self.arm_retransmit(exchange.token, nbr, exchange)
            else:
                self.send(nbr, LSDBExchange(ads))

    def inherit_nonvolatile(self, previous: ProtocolNode) -> None:
        """Keep the LSA sequence counter across a state-losing restart.

        Without this (the NVRAM register real routers keep for exactly
        this reason) the reborn node's seq-1 LSA would be rejected as
        stale by every neighbour still holding its pre-crash LSA.
        """
        if isinstance(previous, LSNode):
            self._seq = previous._seq

    # ----------------------------------------------------------- generations

    def _resolve_generation(self) -> LSDBGeneration:
        """The generation of this node's LSDB, its view published.

        Re-resolved lazily, here and only when ``db_version`` moved; the
        per-message path never sees it.  The node stays a holder of the
        generation it last resolved until the next query (or
        :meth:`retire`), which is what keeps that generation's view alive
        to fork the next one from: a generation nobody has a view for yet
        gets one derived from it by diffing the two snapshots, or cold
        built when that cannot be exact.
        """
        if self._generation_version != self.db_version:
            previous = self._generation
            generation = self._generations.acquire(self.lsdb)
            if generation.view is None:
                generation.view = derive_view(previous, generation)
                if generation.view is None:
                    generation.view = cold_view(generation.lsdb)
                    self.view_rebuilds += 1
                else:
                    self.view_delta_refreshes += 1
            if previous is not None:
                self._generations.release(previous)
            self._generation = generation
            self._generation_version = self.db_version
        return self._generation

    def generation_route(
        self, key: Hashable, compute: Callable[..., Any], *args: Any
    ) -> Any:
        """``compute(*args)``, run once per (seq-free LSDB content, ``key``).

        The caller charges its own modelled computation
        (``note_computation``); the host work is shared per content by
        :meth:`LSDBGenerations.route
        <repro.protocols.lsdb.LSDBGenerations.route>`, whose contract a
        ``compute`` must meet: read only this node's :meth:`local_view`,
        and be a carry-safe path search or add its key to
        ``self._generation.uncarried``.
        """
        return self._generations.route(self._resolve_generation(), key, compute, *args)

    def _leave_generation(self) -> None:
        if self._generation is not None:
            self._generations.release(self._generation)
            self._generation = None
            self._generation_version = -1

    def retire(self) -> None:
        super().retire()
        # The process is gone: it is no longer "at" any LSDB state.
        self._leave_generation()

    # ------------------------------------------------------------ local view

    def local_view(self) -> View:
        """The believed internet this node's LSDB implies.  **Read-only.**

        The view belongs to the node's :class:`LSDBGeneration`: every
        node at the same LSDB content gets the same two objects, and
        later generations share their links and (while no term changes)
        their policy database, so nothing reachable from here may be
        written to.  Consumers key their own caches off ``db_version``.
        """
        return self._resolve_generation().view
