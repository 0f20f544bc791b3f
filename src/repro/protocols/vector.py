"""The vector engine: one node skeleton for the distance-vector family.

Naive DV, ECMA, IDRP (with BGP-2 and the path-vector variants) and EGP
differ in what an update carries and in how a route is chosen and
exported (Sections 3, 4.3, 5.1.1, 5.2), not in how updates are
triggered, batched, damped or lied about.  :class:`VectorNode` owns that
once: the selected-route ``table`` and the pending keys; the triggered
flush (pace and hold-down, the damp pass, each pending key exported in
sorted order into every neighbour's batch, one send per neighbour);
link changes, every loss going through :meth:`_lose`; the lie
vocabulary; reuse after damping; the RIB size.

A protocol supplies its currency: ``on_message`` (its table rule for a
received entry), :meth:`_export` (split horizon or poison, scope,
transit role), :meth:`_batch` / :meth:`_update` (its update message),
its ``_check_*``, and what a lie changes locally (:meth:`_start_lie`,
:meth:`_stop_lying`, :meth:`_advertise_bogus_origin`).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Set

from repro.adgraph.ad import ADId, InterADLink
from repro.protocols.pacing import OverloadDefenseMixin
from repro.simul.messages import Message
from repro.simul.node import ProtocolNode

#: Default delay before a triggered update batch is flushed.  Larger
#: delays coalesce more changes per update (fewer messages) at the cost
#: of slower convergence -- ablation A6 sweeps this trade-off for DV.
TRIGGER_DELAY = 1.0


class VectorNode(OverloadDefenseMixin, ProtocolNode):
    """A per-AD vector-protocol process; subclasses supply the currency."""

    trigger_delay = TRIGGER_DELAY
    _flush_scheduled = False
    #: Suppressed keys whose one withdrawal is already out.
    _suppression_announced: Optional[Set[Hashable]] = None

    def __init__(self, ad_id: ADId) -> None:
        super().__init__(ad_id)
        #: The selected route per key.
        self.table: Dict[Hashable, Any] = {}
        #: Keys whose current state the next flush announces.
        self._pending: Set[Hashable] = set()

    # --------------------------------------------------------------- control

    def start(self) -> None:
        self._pend(self.table)
        self._schedule_flush()

    def on_link_change(self, link: InterADLink, up: bool) -> None:
        if up:
            # A new or restored adjacency: everything we hold is news to it.
            self._pend(self.table)
            self._schedule_flush()
        elif self._drop_peer(link.other(self.ad_id)):
            self._enter_holddown()
            self._flush_pending()

    def rib_size(self) -> int:
        return len(self.table)

    # --------------------------------------------------------- table changes

    def _pend(self, keys: Iterable[Hashable]) -> None:
        """Mark ``keys`` for the next flush (scheduling none).  A currency
        that cannot announce some keys filters them here."""
        self._pending.update(keys)

    def _flush_pending(self) -> None:
        if self._pending:
            self._schedule_flush()

    def _lose(self, key: Hashable) -> None:
        """Our route for ``key`` is gone: remove it, pend the news, damp it."""
        self._remove(key)
        self._pend((key,))
        self._damp_loss(key)

    def _remove(self, key: Hashable) -> None:
        del self.table[key]

    def _offer(self, key: Hashable, sender: ADId, route: Any) -> bool:
        """Bellman-Ford's rule for one received entry, for a table of one
        route per key; whether the table changed.

        ``route`` is the table entry the offer makes (its ``metric`` and
        ``next_hop`` the sender), or ``None`` if unusable.  News from our
        next hop is authoritative, better or worse; another neighbour's
        replaces ours only if strictly better, so a tie keeps the route
        heard first.  This is the successor test: a total order on ties or
        loop-free DV's feasibility condition would go here.
        """
        entry = self.table.get(key)
        if entry is not None and entry.next_hop == sender:
            if route is None:
                if self._via(entry) is None:
                    return False
                self._lose(key)
                return True
            if route == entry:
                return False
        elif route is None or (entry is not None and route.metric >= entry.metric):
            return False
        self.table[key] = route
        self._pend((key,))
        return True

    def _drop_peer(self, nbr: ADId) -> List[Hashable]:
        """The adjacency to ``nbr`` failed: lose every route through it, in
        table order (``_damp_loss`` arms reuse timers in it); returns the
        keys whose selected route changed."""
        via = self._via
        lost = [key for key, entry in self.table.items() if via(entry) == nbr]
        for key in lost:
            self._lose(key)
        return lost

    def _via(self, entry: Any) -> Optional[ADId]:
        """The neighbour a table entry routes through (``None``: no route)."""
        raise NotImplementedError

    # ------------------------------------------------------ triggered updates

    def _schedule_flush(self) -> None:
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.schedule(self.trigger_delay, self._flush)

    def _flush(self) -> None:
        wait = self._pacing_defers_flush()
        if wait is not None:
            self.schedule(wait, self._flush)
            return
        self._flush_scheduled = False
        self._flush_batch()

    def _flush_batch(self) -> None:
        keys = sorted(self._batch_keys())
        self._pending.clear()
        if not keys:
            return
        suppressed: Any = ()
        if self.pacing.damp and self._damper is not None:
            suppressed = {key for key in keys if self._damp_suppressed(key)}
            self.suppressed_announcements += len(suppressed)
        # Keys outermost: each neighbour's batch lists its keys in sorted
        # order, and the batches go out in ``neighbors()`` order.
        batches = [self._batch(nbr) for nbr in self.neighbors()]
        export = self._export
        for key in keys:
            export(key, key in suppressed, batches)
        for batch in batches:
            update = self._update(*batch)
            if update is not None:
                self.send(batch[0], update)

    def _batch_keys(self) -> Iterable[Hashable]:
        """The keys a flush announces."""
        return self._pending

    def _batch(self, nbr: ADId) -> tuple:
        """A neighbour's empty batch, ``nbr`` first."""
        return nbr, []

    def _export(self, key: Hashable, suppressed: bool, batches: List[tuple]) -> None:
        """Add ``key``'s news to the batches it is due in; ``suppressed``
        says damping holds the key back."""
        raise NotImplementedError

    def _update(self, nbr: ADId, *batch: Any) -> Optional[Message]:
        """The update carrying a neighbour's batch (``None``: send none)."""
        raise NotImplementedError

    def _suppress_withdraw_once(self, key: Hashable) -> bool:
        """Whether a suppressed key's withdrawal is still unannounced.

        A currency without per-neighbour memory of what it advertised
        withdraws a suppressed route exactly once and then falls
        *silent* about it: repeating the withdrawal every flush would
        trip the neighbours' re-offer rule each time and ping-pong
        forever.  Call once per key and flush.
        """
        if self._suppression_announced is None:
            self._suppression_announced = set()
        if key in self._suppression_announced:
            return False
        self._suppression_announced.add(key)
        return True

    def _on_reuse(self, key: Hashable) -> None:
        # Damping lifted: announce the key's current state again.
        if self._suppression_announced is not None:
            self._suppression_announced.discard(key)
        self._pend((key,))
        self._flush_pending()

    # ----------------------------------------------------------- misbehavior

    def _tell_lie(self, lie: str, target: Optional[ADId]) -> bool:
        if lie == "bogus-origin":
            if target is None:
                return False
        elif not self._start_lie(lie):
            return False
        self._active_lies[lie] = target if lie == "bogus-origin" else None
        self._assert_lies((lie,))
        return True

    def _reassert_lies(self) -> None:
        self._assert_lies(self._active_lies)

    def _assert_lies(self, lies) -> None:
        # A route leak and a metric lie ride our own exports: re-announce
        # the table.  A bogus origin is each currency's own claim, a
        # stale replay a forged update.
        if "route-leak" in lies or "metric-lie" in lies:
            self._pend(self.table)
            self._schedule_flush()
        if "bogus-origin" in lies:
            self._advertise_bogus_origin(self._active_lies["bogus-origin"])
        if "stale-replay" in lies:
            self._replay_stale()

    def behave(self) -> None:
        super().behave()
        self._stop_lying()

    def _start_lie(self, lie: str) -> bool:
        """Start telling ``lie`` (not bogus-origin), changing locally what
        it needs; whether this currency can carry it."""
        return False

    def _stop_lying(self) -> None:
        """Undo what :meth:`_start_lie` changed locally."""

    def _advertise_bogus_origin(self, victim: ADId) -> None:
        """Claim ``victim`` as ours; by default the claim rides our exports."""
        self._pend(self.table)
        self._schedule_flush()

    def _replay_stale(self) -> None:
        """Re-send old state as new (only a sequenced currency can)."""
