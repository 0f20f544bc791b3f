"""Update pacing, hold-down, and flap damping: overload defenses.

Bounded ingress queues (:mod:`repro.simul.ingress`) make control-plane
overload *possible*; this module gives every protocol the classic
defenses against causing it.  Three individually toggleable features,
expressed in each family's native currency — per-destination
announcements for the DV family (DV/ECMA/EGP/IDRP and its variants),
per-LSA origination for the LS family (SPF/LS-HbH/ORWG and the topology
variants):

* ``pace`` — a minimum interval between successive update batches to
  the same neighbours (BGP's MinRouteAdvertisementInterval): triggered
  flushes and LSA originations are deferred until the interval since
  the previous one has elapsed, so a burst of topology events coalesces
  into one announcement carrying the final state.
* ``holddown`` — a timer armed by *bad news* (a link or route going
  down) that delays the reaction; a flap whose up-leg arrives within
  the window produces one announcement of the settled state instead of
  two of transient states.
* ``damp`` — per-route (DV) or per-link (LS) flap damping in the
  BGP-style penalty model: every loss adds ``PENALTY``; the accumulated
  figure-of-merit decays exponentially with ``HALF_LIFE``; crossing
  ``SUPPRESS_THRESHOLD`` suppresses the route/link (advertised as
  withdrawn/down) until decay brings it under ``REUSE_THRESHOLD``.
  Decay is strictly monotone and suppression is always eventually
  lifted once flapping stops.

The hooks here decide only *whether* and *when* an announcement may go
out; the announcing itself -- the vector engine's triggered flush, LS
origination -- belongs to each family.

A :class:`PacingConfig` is the ``pacing`` row of the runtime-feature
table (:mod:`repro.protocols.runtime`) and holds only its flags; the
intervals and damping figures are module constants, because no
experiment varies them.  Nodes fall back to the exact legacy code path
when a feature is off, which keeps unpaced runs byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Tuple

from repro.protocols.flagset import FlagSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import RoutingProtocol

#: The individually toggleable feature names, in canonical order.
FEATURES: Tuple[str, ...] = ("pace", "holddown", "damp")

# Times are in simulated units (link delays run 3--30): a few
# triggered-update delays wide, so pacing visibly batches without
# stalling honest convergence.

#: Minimum gap between successive update batches to the neighbours.
MIN_ADVERT_INTERVAL = 8.0
#: How long bad news is held before the reaction is announced.
HOLDDOWN_TIME = 20.0
#: Penalty added per flap (route loss / link down).
PENALTY = 1.0
#: Figure-of-merit at which a route/link is suppressed.
SUPPRESS_THRESHOLD = 3.0
#: Figure-of-merit below which a suppressed route/link is reusable.
REUSE_THRESHOLD = 1.0
#: Exponential decay half-life of the accumulated penalty.
HALF_LIFE = 120.0


@dataclass(frozen=True)
class PacingConfig(FlagSet):
    """Which overload defenses are on."""

    FLAGS = FEATURES
    NOUN = "pacing"

    pace: bool = False
    holddown: bool = False
    damp: bool = False


#: No pacing: the exact legacy protocol behaviour.
UNPACED = PacingConfig()

#: Every defense on.
FULL = PacingConfig(pace=True, holddown=True, damp=True)

pacing_from = PacingConfig.parse


class _DampState:
    """Penalty accounting for one damped key."""

    __slots__ = ("penalty", "stamp", "suppressed")

    def __init__(self) -> None:
        self.penalty = 0.0
        self.stamp = 0.0
        self.suppressed = False


class FlapDamper:
    """BGP-style exponential-decay flap damping over arbitrary keys.

    The decayed penalty is computed lazily from ``(value, timestamp)``
    pairs, so no timers are needed to model decay; callers that want to
    react the moment a suppression lifts schedule a check at
    :meth:`reuse_delay`.
    """

    def __init__(self) -> None:
        self._states: Dict[Hashable, _DampState] = {}
        #: Flaps recorded (route losses / link downs seen by this damper).
        self.flaps = 0
        #: Transitions into the suppressed state.
        self.suppressions = 0

    def _decayed(self, state: _DampState, now: float) -> float:
        dt = now - state.stamp
        if dt <= 0:
            return state.penalty
        return state.penalty * 0.5 ** (dt / HALF_LIFE)

    def penalty_of(self, key: Hashable, now: float) -> float:
        """Current (decayed) figure-of-merit for ``key``."""
        state = self._states.get(key)
        return 0.0 if state is None else self._decayed(state, now)

    def record_flap(self, key: Hashable, now: float) -> bool:
        """Charge one flap to ``key``; returns True if it newly suppresses."""
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _DampState()
        state.penalty = self._decayed(state, now) + PENALTY
        state.stamp = now
        self.flaps += 1
        if not state.suppressed and state.penalty >= SUPPRESS_THRESHOLD:
            state.suppressed = True
            self.suppressions += 1
            return True
        return False

    def is_suppressed(self, key: Hashable, now: float) -> bool:
        """Whether ``key`` is currently suppressed (lifting it if decayed)."""
        state = self._states.get(key)
        if state is None or not state.suppressed:
            return False
        if self._decayed(state, now) <= REUSE_THRESHOLD:
            state.suppressed = False
            return False
        return True

    def reuse_delay(self, key: Hashable, now: float) -> float:
        """Time until ``key``'s penalty decays to the reuse threshold."""
        current = self.penalty_of(key, now)
        if current <= REUSE_THRESHOLD:
            return 0.0
        return HALF_LIFE * math.log2(current / REUSE_THRESHOLD)


#: Floor on re-advertisement check spacing, so a key that keeps being
#: re-penalized while suppressed cannot busy-loop the scheduler.
REUSE_TICK_MIN = 1.0


class OverloadDefenseMixin:
    """Pacing/hold-down/damping hooks shared by the protocol node classes.

    Mixed into each family's node base, ``VectorNode`` and ``LSNode``;
    every method is a no-op straight line back to the legacy code path
    when the corresponding feature is off, which is what keeps all-off
    runs byte-identical.  State is created lazily (class-attribute
    defaults, instance attributes on first use), so node constructors
    stay untouched.  When to announce is the family's own: the vector
    engine's triggered flush (:mod:`repro.protocols.vector`) and LS
    origination both ask :meth:`_pacing_defers_flush` first.
    """

    _damper = None
    _last_flush = None
    _holddown_until = 0.0
    #: Announcements replaced by withdrawals because of suppression.
    suppressed_announcements = 0
    #: Flushes/originations deferred by pace or hold-down.
    paced_deferrals = 0

    # ---- update pacing + hold-down -----------------------------------

    def _pacing_defers_flush(self) -> "float | None":
        """Seconds to defer this update batch, or ``None`` to send now.

        Called at the top of a flush/origination.  Proceeding (``None``)
        also timestamps the batch for the next MRAI computation.
        """
        if not self.pacing.any_enabled:
            return None
        earliest = self.now
        if self.pacing.pace and self._last_flush is not None:
            earliest = max(earliest, self._last_flush + MIN_ADVERT_INTERVAL)
        if self.pacing.holddown:
            earliest = max(earliest, self._holddown_until)
        if earliest > self.now:
            self.paced_deferrals += 1
            return earliest - self.now
        if self.pacing.pace:
            self._last_flush = self.now
        return None

    def _enter_holddown(self) -> None:
        """Bad news arrived: delay the reaction to coalesce a flap.

        An already-armed timer is *not* extended: under sustained
        flapping an extending hold-down would starve announcements for
        the whole storm, leaving every neighbour stale.  Bad news is
        thus delayed at most one ``HOLDDOWN_TIME`` from the first loss.
        """
        if self.pacing.holddown and self.now >= self._holddown_until:
            self._holddown_until = self.now + HOLDDOWN_TIME

    # ---- flap damping -------------------------------------------------

    def _damp_loss(self, key: Hashable) -> bool:
        """Charge one flap for a lost route/link.

        Returns True when the key newly crosses the suppress threshold;
        a re-advertisement check is armed for when decay lifts it.
        """
        if not self.pacing.damp:
            return False
        if self._damper is None:
            self._damper = FlapDamper()
        if self._damper.record_flap(key, self.now):
            self._arm_reuse_check(key)
            return True
        return False

    def _damp_suppressed(self, key: Hashable) -> bool:
        if self._damper is None:
            return False
        return self._damper.is_suppressed(key, self.now)

    def _arm_reuse_check(self, key: Hashable) -> None:
        delay = max(self._damper.reuse_delay(key, self.now), REUSE_TICK_MIN)
        self.schedule(delay, self._reuse_check, key)

    def _reuse_check(self, key: Hashable) -> None:
        if self._damper is None:
            return
        if self._damper.is_suppressed(key, self.now):
            # Re-penalized while suppressed; wait out the fresh decay.
            self._arm_reuse_check(key)
            return
        self._on_reuse(key)

    def _on_reuse(self, key: Hashable) -> None:
        """Suppression lifted: re-advertise.  Overridden per family."""


def pacing_summary(protocol: "RoutingProtocol") -> Dict[str, int]:
    """Network-wide overload-defense counters for the run record."""
    flaps = suppressions = suppressed_ann = deferrals = 0
    for node in protocol.network.nodes.values():
        if node._damper is not None:
            flaps += node._damper.flaps
            suppressions += node._damper.suppressions
        suppressed_ann += node.suppressed_announcements
        deferrals += node.paced_deferrals
    return {
        "flaps": flaps,
        "suppressions": suppressions,
        "suppressed_announcements": suppressed_ann,
        "paced_deferrals": deferrals,
    }
