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
*value* owned by the :class:`LSDBGeneration` of that content: built once
(cold, or forked from the view of the LSDB the asking node held before),
shared by every node at that content, and never written to after it is
published.  Modelled state and computation are counted per AD; host
state and computation are shared per LSDB state (DESIGN section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from time import perf_counter
from typing import Any, Callable, Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.adgraph.ad import (
    AD,
    ADId,
    ADKind,
    InterADLink,
    Level,
    LinkKind,
    canonical_link_key,
)
from repro.adgraph.graph import InterADGraph
from repro.policy.database import PolicyDatabase
from repro.policy.terms import PolicyTerm
from repro.protocols.pacing import OverloadDefenseMixin
from repro.simul.messages import AD_ID_BYTES, METRIC_BYTES, Message
from repro.simul.node import ProtocolNode

#: Term id used by a lying LS node for terms it fabricates; far above any
#: id the policy generators assign, so forgeries never shadow real terms.
FORGED_TERM_ID = 9_999

#: Installs a queried node remembers (origin, LSA replaced); a view or
#: SPF tree older than the retained window is rebuilt from scratch, which
#: bounds the log under churn storms that never query a route.
MAX_LSA_LOG = 4096

#: A believed internet: what :meth:`LSNode.local_view` returns.
View = Tuple[InterADGraph, PolicyDatabase]


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


def _believed_link(origin: ADId, rec: LinkRecord, up: bool) -> InterADLink:
    """The believed link ``origin``'s record describes (its metrics win)."""
    return InterADLink(
        origin,
        rec.neighbor,
        LinkKind.HIERARCHICAL,
        {"delay": rec.delay, "cost": rec.cost, "bandwidth": rec.bandwidth},
        up=up,
    )


class LSDBGeneration:
    """One LSDB content that some node currently holds.

    The believed view and deterministic route computation over it are
    functions of LSDB content, so every node at this content shares one
    ``view`` and one ``routes`` memo.
    """

    __slots__ = ("lsdb", "bucket", "view", "routes", "uncarried", "inherited", "holders")

    def __init__(self, lsdb: Dict[ADId, "LinkStateAd"], bucket: Hashable) -> None:
        #: Private snapshot (a node's own dict is mutated by ``_install``).
        self.lsdb = lsdb
        self.bucket = bucket
        #: The believed internet of this content, set once by the first
        #: node to ask and read-only from then on (links and the policy
        #: database are shared with the views forked from it).
        self.view: Optional[View] = None
        #: Protocol-defined route key -> computed route.
        self.routes: Dict[Hashable, Any] = {}
        #: Keys of ``routes`` answered by a search that link loss can
        #: change off the answer's path; never carried to a later content.
        self.uncarried: Set[Hashable] = set()
        #: ``(base.routes, base.uncarried, lost link keys)`` when this view
        #: is the base generation's with only links lost (up there, down or
        #: gone here): no AD added, no term changed, nothing came up.  The
        #: base's memo, not the base itself, so generations never chain.
        self.inherited: Optional[Tuple[Dict, Set, FrozenSet]] = None
        #: Nodes currently at this generation; released at zero.
        self.holders = 0


class LSDBGenerations:
    """Content-addressed pool of the live :class:`LSDBGeneration` objects.

    One pool per :class:`~repro.protocols.base.RoutingProtocol` instance,
    handed to every node it constructs.  A generation is found by a cheap
    bucket key and *confirmed by LSDB equality* -- never by the key alone
    and never by ``(origin, seq)``, which a forged LSA may reuse.  Flooded
    LSAs are shared objects (sim) or decode-memoised (live), so the
    ``dict ==`` is pointer compares in practice.  Generations are
    reference-counted and dropped the moment the last node leaves, so
    what is shared never depends on garbage-collection timing.
    """

    def __init__(self) -> None:
        self._buckets: Dict[Hashable, List[LSDBGeneration]] = {}

    def acquire(self, lsdb: Dict[ADId, "LinkStateAd"]) -> LSDBGeneration:
        """The generation holding exactly ``lsdb``'s content, +1 holder."""
        key = (len(lsdb), sum(lsa.seq for lsa in lsdb.values()))
        bucket = self._buckets.setdefault(key, [])
        for generation in bucket:
            if generation.lsdb == lsdb:
                break
        else:
            generation = LSDBGeneration(dict(lsdb), key)
            bucket.append(generation)
        generation.holders += 1
        return generation

    def release(self, generation: LSDBGeneration) -> None:
        generation.holders -= 1
        if generation.holders == 0:
            bucket = self._buckets[generation.bucket]
            bucket.remove(generation)
            if not bucket:
                del self._buckets[generation.bucket]

    def live(self) -> List[LSDBGeneration]:
        """Every generation some node is at (tests and observability)."""
        return [g for bucket in self._buckets.values() for g in bucket]


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
        #: ``perf="none"`` only: this node's private (version, cold view).
        self._view_cache: Optional[Tuple[int, View]] = None
        #: The protocol-wide generation pool and the generation this node
        #: was at when it last answered a query (it owns the view).
        self._generations = generations
        self._generation: Optional[LSDBGeneration] = None
        self._generation_version = -1
        #: (origin, LSA replaced or None) per install since the node was
        #: first queried at ``db_version == _log_floor``; entry ``i`` took
        #: the LSDB to version ``_log_floor + i + 1``.  What a view or an
        #: SPF tree of an earlier version is brought up to date from.
        self._lsa_log: Optional[List[Tuple[ADId, Optional[LinkStateAd]]]] = None
        self._log_floor = 0
        #: Cold view builds / derivations from a previous view that *this
        #: node* performed (observability; most queries do neither).
        self.view_rebuilds = 0
        self.view_delta_refreshes = 0
        # Refresh hardening: re-originations left in the current burst,
        # and whether a tick is already scheduled (at most one in flight).
        self._refresh_left = 0
        self._refresh_pending = False
        # Retransmit hardening: token generator and unacked DB exchanges.
        self._exchange_seq = 0
        self._pending_exchanges: Dict[int, Tuple[ADId, LSDBExchange]] = {}
        # Misbehavior state: active lie -> victim (None when honest, which
        # keeps every honest-path branch below a single falsy check).
        self._active_lies: Dict[str, Optional[ADId]] = {}
        self._forged_terms: Tuple[PolicyTerm, ...] = ()
        self._lie_ticks_left = 0
        self._lie_tick_pending = False

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
        for link in self.topology.links_of(self.ad_id, include_down=True):
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
            self._refresh_left = self.hardening.refresh_count
            if not self._refresh_pending:
                self._refresh_pending = True
                self.schedule(self.hardening.refresh_interval, self._refresh_tick)

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
            self.schedule(self.hardening.refresh_interval, self._refresh_tick)

    # --------------------------------------------------------------- control

    def start(self) -> None:
        self.originate()

    def _install(self, lsa: LinkStateAd) -> bool:
        """Store an LSA if newer; returns whether the LSDB changed."""
        current = self.lsdb.get(lsa.origin)
        if current is not None and current.seq >= lsa.seq:
            self.duplicates_ignored += 1
            return False
        log = self._lsa_log
        if log is not None:
            if len(log) >= MAX_LSA_LOG:
                del log[: MAX_LSA_LOG // 2]
                self._log_floor += MAX_LSA_LOG // 2
            log.append((lsa.origin, current))
        self.lsdb[lsa.origin] = lsa
        self.db_version += 1
        return True

    def on_message(self, sender: ADId, msg: Message) -> None:
        if isinstance(msg, (LinkStateAd, LSDBExchange)):
            # Per message, so without the two property hops of
            # self.profiler (a message only ever arrives through an
            # attached transport) and with profiler.phase("proto.flood")
            # spelled out (the context object costs three more calls).
            profiler = self._transport.profiler
            if profiler is None:
                self._on_flood_message(sender, msg)
            else:
                t0 = perf_counter()
                try:
                    self._on_flood_message(sender, msg)
                finally:
                    profiler.add("proto.flood", perf_counter() - t0)
        elif isinstance(msg, ExchangeAck):
            self._pending_exchanges.pop(msg.token, None)
        else:
            super().on_message(sender, msg)

    def _on_flood_message(self, sender: ADId, msg: Message) -> None:
        """Handle the flooding-substrate messages (LSA / DB exchange)."""
        if self.guard is not None and self.guard.suppresses(sender):
            return
        if isinstance(msg, LinkStateAd):
            if self._rejects(sender, msg):
                return
            if self._install(msg):
                self._flood(msg, exclude=sender)
                self.on_lsdb_change()
        else:
            assert isinstance(msg, LSDBExchange)
            if msg.token:
                self.send(sender, ExchangeAck(msg.token))
            changed = False
            for lsa in msg.ads:
                if self._rejects(sender, lsa):
                    continue
                if self._install(lsa):
                    self._flood(lsa, exclude=sender)
                    changed = True
            if changed:
                self.on_lsdb_change()

    # ------------------------------------------------------------ validation

    def _rejects(self, sender: ADId, lsa: LinkStateAd) -> bool:
        """Validate an LSA against the trusted registries; charge failures.

        Rejection happens *before* install-and-reflood, so a validating
        receiver never propagates a lie and every violation is charged
        to the AD that actually injected it.
        """
        if not self.validation.checks_enabled:
            return False
        reason = self._check_lsa(lsa)
        if reason is None:
            return False
        if self.guard is not None:
            self.guard.violation(sender, reason)
        return True

    def _check_lsa(self, lsa: LinkStateAd) -> Optional[str]:
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
                and lsa.seq > current.seq + v.max_seq_jump
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

    #: A liar re-asserts its lies periodically (a leaking AD keeps
    #: leaking); the burst is bounded so runs still quiesce.
    LIE_REASSERT_INTERVAL = 60.0
    LIE_REASSERT_COUNT = 6

    def misbehave(self, lie: str, target: Optional[ADId] = None) -> bool:
        applied = self._tell_lie(lie, target)
        if applied:
            self._lie_ticks_left = self.LIE_REASSERT_COUNT
            if not self._lie_tick_pending:
                self._lie_tick_pending = True
                self.schedule(self.LIE_REASSERT_INTERVAL, self._lie_tick)
        return applied

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
        self.on_lsdb_change()

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

    def _lie_tick(self) -> None:
        self._lie_tick_pending = False
        if self._lie_ticks_left <= 0 or not self._active_lies:
            return
        self._lie_ticks_left -= 1
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
        if self._lie_ticks_left > 0:
            self._lie_tick_pending = True
            self.schedule(self.LIE_REASSERT_INTERVAL, self._lie_tick)

    def behave(self) -> None:
        self._active_lies.clear()
        self._forged_terms = ()
        self._lie_ticks_left = 0

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
                token = self._exchange_seq
                exchange = LSDBExchange(ads, token=token)
                self._pending_exchanges[token] = (nbr, exchange)
                self.send(nbr, exchange)
                self.schedule(
                    self.hardening.retransmit_timeout,
                    self._retry_exchange,
                    token,
                    self.hardening.max_retries,
                )
            else:
                self.send(nbr, LSDBExchange(ads))
        self.on_lsdb_change()

    def _retry_exchange(self, token: int, retries_left: int) -> None:
        pending = self._pending_exchanges.get(token)
        if pending is None:
            return
        if retries_left <= 0:
            del self._pending_exchanges[token]
            return
        nbr, exchange = pending
        self.send(nbr, exchange)
        self.schedule(
            self.hardening.retransmit_timeout,
            self._retry_exchange,
            token,
            retries_left - 1,
        )

    def inherit_nonvolatile(self, previous: ProtocolNode) -> None:
        """Keep the LSA sequence counter across a state-losing restart.

        Without this (the NVRAM register real routers keep for exactly
        this reason) the reborn node's seq-1 LSA would be rejected as
        stale by every neighbour still holding its pre-crash LSA.
        """
        if isinstance(previous, LSNode):
            self._seq = previous._seq

    def on_lsdb_change(self) -> None:
        """Hook for subclasses (cache invalidation etc.).  Default: none."""

    # ----------------------------------------------------------- generations

    def _resolve_generation(self) -> LSDBGeneration:
        """The generation of this node's LSDB, its view published.

        Re-resolved lazily, here and only when ``db_version`` moved; the
        per-message path never sees it.  The node stays a holder of the
        generation it last resolved until the next query (or
        :meth:`retire`), which is what keeps that generation's view alive
        to fork the next one from.
        """
        if self._generation_version != self.db_version:
            if self._lsa_log is None:
                self._lsa_log = []
                self._log_floor = self.db_version
            previous = self._generation
            generation = self._generations.acquire(self.lsdb)
            if generation.view is None and self.perf.delta_view:
                generation.view = self._derive_view(previous, generation) or self._rebuild_view()
            if previous is not None:
                self._generations.release(previous)
                # What predates the generation just left is not asked for
                # again (an SPF tree lagging further behind recomputes).
                stale = self._generation_version - self._log_floor
                if stale > 0:
                    del self._lsa_log[:stale]
                    self._log_floor = self._generation_version
            self._generation = generation
            self._generation_version = self.db_version
        return self._generation

    def generation_route(
        self, key: Hashable, compute: Callable[..., Any], *args: Any
    ) -> Any:
        """``compute(*args)``, run once per (LSDB content, ``key``).

        The replicated hop-by-hop computation: every AD on a path must
        derive the same route from the same LSDB, and each *counts* that
        derivation in its own modelled table (``note_computation`` stays
        with the caller) -- but the host derives it once, for whichever
        node at this LSDB content asks first.  ``compute`` may read only
        this node's :meth:`local_view` and protocol-wide constants.

        Nor does the host always derive it per content: when this view is
        the one it was forked from minus lost links, the base's answer is
        copied if it is ``None`` or an AD path over none of them.  So
        ``compute`` must return ``None`` or an AD path, and be an optimal
        path search whose every choice (parent, goal) is the first state
        popped in a fixed order of (distance or width, state) -- link loss
        cannot improve a state, so the answer's own states and tie-breaks
        stand (DESIGN section 4).  A key answered any other way is added
        to ``self._generation.uncarried`` by ``compute``.
        """
        generation = self._resolve_generation()
        routes = generation.routes
        if key not in routes:
            inherited = generation.inherited
            if inherited is not None:
                base, uncarried, lost = inherited
                if key in base and key not in uncarried:
                    path = base[key]
                    if path is None or not any(
                        canonical_link_key(a, b) in lost for a, b in zip(path, path[1:])
                    ):
                        routes[key] = path
                        return path
            routes[key] = compute(*args)
        return routes[key]

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

        ``perf="none"`` keeps the legacy cost instead: a private cold
        build per node per version.
        """
        if self.perf.delta_view:
            return self._resolve_generation().view
        cache = self._view_cache
        if cache is None or cache[0] != self.db_version:
            cache = self._view_cache = (self.db_version, self._rebuild_view())
        return cache[1]

    def _believed_ad(self, origin: ADId) -> AD:
        # Kind is irrelevant to term-based computation (policy is in the
        # terms); level comes from the LSA so views can be
        # region-partitioned.
        return AD(
            origin, f"ad{origin}", self.lsdb[origin].origin_level, ADKind.HYBRID
        )

    def _rebuild_view(self) -> View:
        """Cold build from the LSDB alone (and the derived path's oracle)."""
        self.view_rebuilds += 1
        graph = InterADGraph()
        for origin in sorted(self.lsdb):
            graph.add_ad(self._believed_ad(origin))
        for origin in sorted(self.lsdb):
            for rec in self.lsdb[origin].links:
                if rec.neighbor not in graph:
                    continue
                if graph.has_link(origin, rec.neighbor):
                    continue
                # Believe a link only if both endpoints advertise it up.
                other = self.lsdb.get(rec.neighbor)
                other_rec = None
                if other is not None:
                    for r in other.links:
                        if r.neighbor == origin:
                            other_rec = r
                            break
                if other_rec is None:
                    continue
                graph.add_link(
                    _believed_link(origin, rec, rec.up and other_rec.up)
                )
        policies = PolicyDatabase()
        for origin in sorted(self.lsdb):
            for term in self.lsdb[origin].terms:
                policies.add_term(term)
        return graph, policies

    def _replaced_since(
        self, version: int
    ) -> Optional[Dict[ADId, Optional[LinkStateAd]]]:
        """Origin -> the LSA held at ``version``, per origin installed since.

        ``None`` when the log no longer (or never did) reach back there.
        """
        log = self._lsa_log
        if log is None or version < self._log_floor:
            return None
        replaced: Dict[ADId, Optional[LinkStateAd]] = {}
        for origin, old in log[version - self._log_floor :]:
            replaced.setdefault(origin, old)
        return replaced

    def _incident_keys(
        self, replaced: Dict[ADId, Optional[LinkStateAd]]
    ) -> List[Tuple[ADId, ADId]]:
        """Sorted keys of every link an origin in ``replaced`` names, then or now.

        A believed link is a function of its two endpoints' LSAs, so no
        other link can differ between the two LSDBs.
        """
        keys = set()
        for origin, old in replaced.items():
            for lsa in (old, self.lsdb[origin]):
                if lsa is not None:
                    for rec in lsa.links:
                        keys.add(canonical_link_key(origin, rec.neighbor))
        return sorted(keys)

    def _derive_view(
        self, base: Optional[LSDBGeneration], generation: LSDBGeneration
    ) -> Optional[View]:
        """``generation``'s view forked from the one this node held, or ``None``.

        O(LSAs installed since): untouched links and ADs are shared with
        ``base``'s view, a changed link is *replaced* in the fork, and the
        policy database is ``base``'s own object unless a term changed.
        ``None`` (cold build) on first demand, when the log has overflowed,
        when an origin changed level (``AD`` objects are frozen and
        shared), or when terms changed while some LSA, replaced or
        current, carries a term it does not own -- per-owner replace is
        only exact when owners are independent.  When only links were
        lost, ``generation`` inherits ``base``'s routes.
        """
        if base is None or base.view is None:
            return None
        replaced = self._replaced_since(self._generation_version)
        if replaced is None:
            return None
        lsdb = self.lsdb
        born, retermed = [], []
        for origin in sorted(replaced):
            old, new = replaced[origin], lsdb[origin]
            if old is None:
                born.append(origin)
            elif old.origin_level != new.origin_level:
                return None
            if (() if old is None else old.terms) != new.terms:
                retermed.append(origin)
        if retermed and any(
            term.owner != lsa.origin
            for lsa in chain(lsdb.values(), replaced.values())
            if lsa is not None
            for term in lsa.terms
        ):
            return None
        graph, policies = base.view
        graph = graph.fork()
        # All new ADs first (mirroring the cold build's two passes): an
        # edge between two origins that both appeared since needs both.
        for origin in born:
            graph.add_ad(self._believed_ad(origin))
        lost, gained = [], False
        for key in self._incident_keys(replaced):
            up = self._reconcile_edge(graph, key)
            if up is False:
                lost.append(key)
            elif up:
                gained = True
        if not (born or retermed or gained):
            generation.inherited = (base.routes, base.uncarried, frozenset(lost))
        if retermed:
            # Per-owner replace reproduces the cold build's term-id
            # stamping exactly: add_term stamps position-in-owner's list.
            policies = policies.copy()
            for origin in retermed:
                policies.remove_terms(origin)
                for term in lsdb[origin].terms:
                    policies.add_term(term)
        self.view_delta_refreshes += 1
        return graph, policies

    def _reconcile_edge(self, graph: InterADGraph, key: Tuple[ADId, ADId]) -> Optional[bool]:
        """Drive one believed link of a fork to the state the LSDB implies.

        Semantics mirror the cold build exactly: the edge exists iff both
        endpoints' LSAs carry a record naming each other (first record
        wins), metrics come from the smaller endpoint's record, and the
        link is up only if both records say up.  A link that differs is
        replaced by a new object: the old one belongs to other views too.

        Returns ``None`` when no search can tell (unchanged, or down before
        and after), else whether the link is up now: ``False`` for a link
        *lost* (up in the fork's base), ``True`` for one that came up or
        changed metrics while up.
        """
        a, b = key
        lsa_a = self.lsdb.get(a)
        lsa_b = self.lsdb.get(b)
        rec_a = rec_b = None
        if lsa_a is not None and lsa_b is not None:
            for rec in lsa_a.links:
                if rec.neighbor == b:
                    rec_a = rec
                    break
            for rec in lsa_b.links:
                if rec.neighbor == a:
                    rec_b = rec
                    break
        existing = graph.link_if_exists(a, b)
        was_up = existing is not None and existing.up
        if rec_a is None or rec_b is None:
            if existing is not None:
                graph.remove_link(a, b)
            return False if was_up else None
        up = rec_a.up and rec_b.up
        if existing is not None:
            metrics = existing.metrics
            if (
                existing.up == up
                and metrics["delay"] == rec_a.delay
                and metrics["cost"] == rec_a.cost
                and metrics["bandwidth"] == rec_a.bandwidth
            ):
                return None
            graph.remove_link(a, b)
        graph.add_link(_believed_link(a, rec_a, up))
        return up if up or was_up else None

    def view_edge_changes(
        self, since_version: int
    ) -> Optional[List[Tuple[ADId, ADId]]]:
        """Link keys whose believed state may differ from ``since_version``'s.

        Node-local (read off the install log, not off any view): every
        link incident to an origin whose LSA was replaced in the window,
        changed or not -- :meth:`IncrementalSPFState.apply
        <repro.protocols.spf.IncrementalSPFState.apply>` filters against
        its own weight snapshot.  ``None`` when the window fell out of the
        log, in which case the consumer must recompute from scratch.
        """
        replaced = self._replaced_since(since_version)
        return None if replaced is None else self._incident_keys(replaced)

    def lsdb_bytes(self) -> int:
        """Total size of the stored LSDB (state-size experiments)."""
        return sum(lsa.size_bytes() for lsa in self.lsdb.values())
