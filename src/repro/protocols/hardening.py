"""Robustness features the protocols can enable, individually toggleable.

The base protocols assume a lossless control channel, as the paper's
qualitative design discussion does.  Under real impairments (see
:mod:`repro.faults`) they need the classic trio of hardening mechanisms,
each independently switchable so E11 can ablate what every one buys:

* ``dedup`` -- suppress duplicate control messages by sequence number
  (LS flooding already dedups by LSA sequence; this extends the idea to
  EGP reachability updates and ORWG setup packets);
* ``retransmit`` -- ack + bounded retransmission on the messages whose
  loss otherwise wedges the protocol (EGP updates, ORWG route setup, LS
  topology-exchange on link-up).  Each family keeps its own ack message;
  the one timer is :meth:`ProtocolNode.arm_retransmit
  <repro.simul.node.ProtocolNode.arm_retransmit>` /
  ``clear_retransmit``, whose timeout and retry budget are the
  constants ``RETRANSMIT_TIMEOUT`` / ``MAX_RETRIES`` of
  :mod:`repro.simul.node`;
* ``refresh`` -- periodic re-origination of LSAs for a bounded burst
  after every change (``REFRESH_COUNT`` of them, ``REFRESH_INTERVAL``
  apart), so a lost flood heals instead of persisting as a stale LSDB
  entry.

The config is the ``hardening`` row of the five-row runtime-feature
table (:mod:`repro.protocols.runtime`; the bounded ingress queue is a
fault axis, not a row) and holds only its flags: no experiment varies a
timer, so the timers are module constants.  Nodes consult
``self.hardening`` at each decision point and fall back to the exact
legacy behaviour when a feature is off, which keeps unhardened runs
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro.protocols.flagset import FlagSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import RoutingProtocol

#: The individually toggleable feature names, in canonical order.
FEATURES: Tuple[str, ...] = ("dedup", "retransmit", "refresh")

#: Gap between periodic LSA re-originations, in simulated time units
#: (link delays in generated internets are 3--30).
REFRESH_INTERVAL = 40.0
#: Re-originations after each change (bounded, so runs quiesce).
REFRESH_COUNT = 2


@dataclass(frozen=True)
class HardeningConfig(FlagSet):
    """Which robustness features are on."""

    FLAGS = FEATURES
    NOUN = "hardening"

    dedup: bool = False
    retransmit: bool = False
    refresh: bool = False


#: No hardening: the exact legacy protocol behaviour.
SOFT = HardeningConfig()

#: Every feature on.
HARDENED = HardeningConfig(dedup=True, retransmit=True, refresh=True)

hardening_from = HardeningConfig.parse


def duplicates_ignored(protocol: "RoutingProtocol") -> int:
    """Control-plane duplicates suppressed by hardening, network-wide."""
    return sum(
        node.duplicates_ignored for node in protocol.network.nodes.values()
    )
