"""Graceful restart: keep forwarding through a planned control-plane restart.

The paper's administrative-autonomy premise means ADs restart their
routing processes on their own schedules -- software upgrades, config
reloads, crash recovery -- and the rest of the internet should not treat
every planned restart as a topology change.  Without help, a restarting
AD's neighbours withdraw its routes immediately, the withdrawal floods
the internet, and traffic through the AD blackholes until the restarted
process re-converges: a *disruptive* restart.  Graceful restart (the
BGP/OSPF mechanism family, RFC 4724 / RFC 3623 in spirit) makes the
restart *hitless*:

* ``helper`` -- neighbours of a gracefully restarting AD keep its routes
  installed as **stale** for a bounded hold period instead of
  withdrawing them.  The data plane (the compiled FIB of
  :mod:`repro.traffic`) keeps forwarding through the restarting AD, so
  a restart that completes within the hold window never perturbs the
  rest of the internet.  If the hold timer expires first, the helpers
  give up and the normal withdrawal/reconvergence machinery runs.
* ``resync`` -- when the restarted process comes back inside the hold
  window, each surviving neighbour replays its adjacency bring-up with
  the restarter (the protocol family's own link-up machinery: LS
  database exchange, DV full-table flush, path-vector Loc-RIB
  re-advertisement), which both refills the restarter's tables and
  refreshes the helpers' stale entries.

The config is the ``graceful`` row of the runtime-feature table
(:mod:`repro.protocols.runtime`).  With every feature off (the default)
the crash/restore machinery behaves byte-identically to the legacy
disruptive path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from repro.protocols.flagset import FlagSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import RoutingProtocol

#: The individually toggleable feature names, in canonical order.
FEATURES: Tuple[str, ...] = ("helper", "resync")


@dataclass(frozen=True)
class GracefulRestartConfig(FlagSet):
    """Which graceful-restart features are on, plus the hold timer.

    ``hold_time`` is in simulated time units (wall-clock seconds times
    ``time_scale`` on the live substrate); generated-internet link
    delays are 3--30 units, so the default comfortably covers a restart
    plus a few round trips of resynchronisation.
    """

    FLAGS = FEATURES
    NOUN = "graceful-restart"

    #: Neighbours retain a restarting AD's routes as stale for
    #: ``hold_time`` instead of withdrawing them.
    helper: bool = False
    #: On restore within the hold window, surviving neighbours replay
    #: adjacency bring-up with the restarter.
    resync: bool = False
    #: How long helpers hold stale routes before giving up.
    hold_time: float = 300.0


#: No graceful restart: every crash is a disruptive topology change.
GR_OFF = GracefulRestartConfig()

#: Every feature on, default hold timer.
GR_FULL = GracefulRestartConfig(helper=True, resync=True)

graceful_from = GracefulRestartConfig.parse


def graceful_summary(protocol: "RoutingProtocol") -> Dict[str, int]:
    """Network-wide graceful-restart counters for the run record."""
    return {
        "holds": sum(
            node.grace_holds for node in protocol.network.nodes.values()
        ),
        "expirations": protocol.grace_expirations,
        "resyncs": protocol.grace_resyncs,
    }
