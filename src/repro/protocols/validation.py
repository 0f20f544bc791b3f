"""Receiver-side validation of control traffic, individually toggleable.

The paper's Sections 4--6 argue that inter-AD routing happens among
*mutually distrustful* administrations: expressing a policy is not
enough, each AD must be able to *police* the others' adherence to it.
:mod:`repro.faults.misbehavior` turns a chosen AD into a liar; this
module is the defence.  A :class:`ValidationConfig` is the
``validation`` row of the runtime-feature table
(:mod:`repro.protocols.runtime`); each receive path consults it before
installing anything:

* ``path_check``   -- advertised paths must be plausible against the
  trusted policy registry: every transit hop must hold a term that would
  have let it export the route (mirrors the advertiser-side export
  scope, so honest advertisements never trip it);
* ``origin_check`` -- advertised adjacencies and origins must exist in
  the trusted AD graph (the registered topology, an IRR analogue);
* ``seq_guard``    -- sequence numbers may not jump implausibly far
  ahead of the receiver's view, which is what a stale-replay attack
  needs to displace fresh state;
* ``metric_guard`` -- advertised metrics must be consistent with the
  registered link costs (no free zero-cost transit);
* ``term_guard``   -- policy terms carried in advertisements must match
  the trusted registry entry for their owner (no forged terms);
* ``quarantine``   -- a neighbour caught violating ``THRESHOLD`` times
  is suppressed for ``QUARANTINE_PERIOD``, then put on probation where a
  single further violation re-quarantines it.

The config holds only these flags; the guard's figures are module
constants, because no experiment varies them.

Checks validate *claims against registered ground truth* (the configured
AD graph and policy database -- what RPKI/IRR databases provide in the
real internet), never against the liar's own assertions.  A node with
every feature off behaves byte-identically to the pre-validation code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple

from repro.adgraph.ad import ADId
from repro.protocols.flagset import FlagSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import RoutingProtocol

#: The individually toggleable check names, in canonical order.
FEATURES: Tuple[str, ...] = (
    "path_check",
    "origin_check",
    "seq_guard",
    "metric_guard",
    "term_guard",
    "quarantine",
)

#: Violations from one neighbour before it is quarantined.
THRESHOLD = 3
#: How long a quarantined neighbour's updates are suppressed.
QUARANTINE_PERIOD = 300.0
#: Window after release in which one violation re-quarantines.
PROBATION_PERIOD = 300.0
#: Largest honest sequence-number advance ``seq_guard`` tolerates.
#: Generous: honest floods advance sequence numbers by one per
#: origination and bounded refresh bursts add a handful, while
#: stale-replay attacks need jumps of hundreds to durably displace fresh
#: state, so the guard separates the two cleanly.
MAX_SEQ_JUMP = 64


@dataclass(frozen=True)
class ValidationConfig(FlagSet):
    """Which receiver-side checks are on."""

    FLAGS = FEATURES
    NOUN = "validation"

    path_check: bool = False
    origin_check: bool = False
    seq_guard: bool = False
    metric_guard: bool = False
    term_guard: bool = False
    quarantine: bool = False

    @cached_property
    def checks_enabled(self) -> bool:
        """Whether any *check* (everything but quarantine) is on.

        ``cached_property`` (fields are frozen, so the answer cannot
        change): the receive path asks this once per delivered message.
        """
        return any(f != "quarantine" for f in self.enabled)


#: No validation: the exact legacy receive-path behaviour.
OFF = ValidationConfig()

#: Every check on.
FULL = ValidationConfig(
    path_check=True,
    origin_check=True,
    seq_guard=True,
    metric_guard=True,
    term_guard=True,
    quarantine=True,
)

validation_from = ValidationConfig.parse


@dataclass
class QuarantineEvent:
    """One neighbour suppression, for the false-quarantine audit."""

    time: float
    neighbor: ADId
    reason: str


class NeighborGuard:
    """Per-receiver violation ledger and penalty-timer state machine.

    Every validation failure is charged to the *sender* of the offending
    message.  After ``THRESHOLD`` violations the sender is quarantined
    (its updates dropped) for ``QUARANTINE_PERIOD``, after which it is
    on probation for ``PROBATION_PERIOD``: one more violation during
    probation re-quarantines it immediately.  All state is plain data
    driven by the caller-supplied clock, so a crashed-and-replaced node
    simply starts a fresh ledger.
    """

    def __init__(
        self, config: ValidationConfig, clock: Callable[[], float]
    ) -> None:
        self.config = config
        self._clock = clock
        #: Violation count per neighbour since the last quarantine.
        self.strikes: Dict[ADId, int] = {}
        #: Total violations per neighbour, never reset.
        self.violations: Dict[ADId, int] = {}
        #: Quarantine expiry time per currently quarantined neighbour.
        self._quarantined_until: Dict[ADId, float] = {}
        #: Probation expiry time per recently released neighbour.
        self._probation_until: Dict[ADId, float] = {}
        #: Every quarantine entered, in order.
        self.quarantine_events: List[QuarantineEvent] = []
        #: Messages dropped because their sender was quarantined.
        self.suppressed: int = 0

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())

    def violation(self, neighbor: ADId, reason: str) -> bool:
        """Charge one violation to ``neighbor``; True if it quarantines."""
        self.violations[neighbor] = self.violations.get(neighbor, 0) + 1
        if not self.config.quarantine:
            return False
        now = self._clock()
        on_probation = now < self._probation_until.get(neighbor, -1.0)
        self.strikes[neighbor] = self.strikes.get(neighbor, 0) + 1
        if self.strikes[neighbor] < THRESHOLD and not on_probation:
            return False
        self._quarantined_until[neighbor] = now + QUARANTINE_PERIOD
        self._probation_until.pop(neighbor, None)
        self.strikes[neighbor] = 0
        self.quarantine_events.append(QuarantineEvent(now, neighbor, reason))
        return True

    def quarantine_now(self, neighbor: ADId, reason: str) -> None:
        """Quarantine ``neighbor`` immediately, bypassing the threshold.

        The hard-failure path for wire-version mismatches: a peer whose
        advertised version range does not overlap ours cannot become
        trustworthy by sending fewer bad messages, so it is penalised at
        once -- regardless of whether the graduated ``quarantine``
        feature is enabled.  Re-quarantining an already-quarantined
        neighbour just extends the penalty timer (no duplicate event).
        """
        now = self._clock()
        self.violations[neighbor] = self.violations.get(neighbor, 0) + 1
        already = now < self._quarantined_until.get(neighbor, -1.0)
        self._quarantined_until[neighbor] = now + QUARANTINE_PERIOD
        self._probation_until.pop(neighbor, None)
        self.strikes[neighbor] = 0
        if not already:
            self.quarantine_events.append(
                QuarantineEvent(now, neighbor, reason)
            )

    def suppresses(self, neighbor: ADId) -> bool:
        """Whether updates from ``neighbor`` are currently dropped.

        Also advances the state machine: an expired quarantine moves the
        neighbour to probation the first time it is consulted after the
        penalty timer runs out.
        """
        until = self._quarantined_until.get(neighbor)
        if until is None:
            return False
        now = self._clock()
        if now < until:
            self.suppressed += 1
            return True
        del self._quarantined_until[neighbor]
        self._probation_until[neighbor] = now + PROBATION_PERIOD
        return False


def validation_summary(protocol: "RoutingProtocol") -> Dict[str, Any]:
    """Network-wide validation counters for the run record.

    ``false_quarantines`` counts penalty-timer activations against
    ADs that never lied -- the collateral-damage metric E12's
    lie-free baseline pins at zero.
    """
    guards = [
        node.guard
        for node in protocol.network.nodes.values()
        if node.guard is not None
    ]
    events = [ev for g in guards for ev in g.quarantine_events]
    return {
        "violations": sum(g.total_violations for g in guards),
        "quarantines": len(events),
        "false_quarantines": sum(
            1 for ev in events if ev.neighbor not in protocol.liars
        ),
        "suppressed": sum(g.suppressed for g in guards),
        "quarantined_ads": sorted({ev.neighbor for ev in events}),
    }
