"""Robustness features the protocols can enable, individually toggleable.

The base protocols assume a lossless control channel, as the paper's
qualitative design discussion does.  Under real impairments (see
:mod:`repro.faults`) they need the classic trio of hardening mechanisms,
each independently switchable so E11 can ablate what every one buys:

* ``dedup`` -- suppress duplicate control messages by sequence number
  (LS flooding already dedups by LSA sequence; this extends the idea to
  EGP reachability updates and ORWG setup packets);
* ``retransmit`` -- ack + bounded retransmission timers on the messages
  whose loss otherwise wedges the protocol (EGP updates, ORWG route
  setup, LS topology-exchange on link-up);
* ``refresh`` -- periodic re-origination of LSAs for a bounded burst
  after every change, so a lost flood heals instead of persisting as a
  stale LSDB entry.

The config is the ``hardening`` row of the runtime-feature table
(:mod:`repro.protocols.runtime`): nodes consult ``self.hardening`` at
each decision point and fall back to the exact legacy behaviour when a
feature is off, which keeps unhardened runs byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro.protocols.flagset import FlagSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import RoutingProtocol

#: The individually toggleable feature names, in canonical order.
FEATURES: Tuple[str, ...] = ("dedup", "retransmit", "refresh")


@dataclass(frozen=True)
class HardeningConfig(FlagSet):
    """Which robustness features are on, and their timer parameters.

    Timer values are in simulated time units; link delays in generated
    internets are 3--30 units, so the defaults sit comfortably above one
    round trip without dragging out convergence.
    """

    FLAGS = FEATURES
    NOUN = "hardening"

    dedup: bool = False
    retransmit: bool = False
    refresh: bool = False
    #: Ack wait before a retransmission (about two worst-case RTTs).
    retransmit_timeout: float = 60.0
    #: Retransmissions before giving a message up for lost.
    max_retries: int = 3
    #: Gap between periodic LSA re-originations.
    refresh_interval: float = 40.0
    #: Re-originations after each change (bounded, so runs quiesce).
    refresh_count: int = 2


#: No hardening: the exact legacy protocol behaviour.
SOFT = HardeningConfig()

#: Every feature on, default timers.
HARDENED = HardeningConfig(dedup=True, retransmit=True, refresh=True)

hardening_from = HardeningConfig.parse


def duplicates_ignored(protocol: "RoutingProtocol") -> int:
    """Control-plane duplicates suppressed by hardening, network-wide."""
    return sum(
        node.duplicates_ignored for node in protocol.network.nodes.values()
    )
