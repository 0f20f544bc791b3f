"""Charging and accounting over policy routes.

Section 2.3 lists "charging and accounting policies" among the policy
dimensions; Policy Terms here carry an advertised ``charge``.  This
module settles the books for a weighted traffic matrix routed by any
route finder:

* per transit AD: *revenue* (sum of its terms' charges over the traffic
  that actually used them, weighted by flow volume) and carried volume;
* per source AD: total *cost* paid to carriers;
* the unsettled remainder (flows with no route).

Administrators combine this with :mod:`repro.mgmt.impact` to see whether
a restrictive policy forfeits more revenue than it saves resources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.core.routes import Route
from repro.core.synthesis import synthesize_route
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.traffic.workload import TrafficMatrix

RouteFinder = Callable[[FlowSpec], Optional[Union[Route, Sequence[ADId]]]]


@dataclass
class LedgerEntry:
    """One AD's side of the books."""

    revenue: float = 0.0
    carried_volume: float = 0.0
    paid: float = 0.0
    originated_volume: float = 0.0


@dataclass
class Ledger:
    """Settled accounting for one traffic matrix."""

    entries: Dict[ADId, LedgerEntry] = field(default_factory=dict)
    routed_volume: float = 0.0
    unrouted_volume: float = 0.0

    def entry(self, ad_id: ADId) -> LedgerEntry:
        return self.entries.setdefault(ad_id, LedgerEntry())

    def top_earners(self, n: int = 5) -> Sequence[Tuple[ADId, float]]:
        ranked = sorted(
            ((ad, e.revenue) for ad, e in self.entries.items()),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked[:n]

    @property
    def total_revenue(self) -> float:
        return sum(e.revenue for e in self.entries.values())

    @property
    def total_paid(self) -> float:
        return sum(e.paid for e in self.entries.values())

    def summary(self) -> str:
        lines = [
            f"Accounting: routed volume {self.routed_volume:g}, "
            f"unrouted {self.unrouted_volume:g}",
            f"  total charges settled: {self.total_revenue:.2f}",
        ]
        for ad_id, revenue in self.top_earners():
            if revenue > 0:
                lines.append(f"  AD {ad_id} earns {revenue:.2f}")
        return "\n".join(lines)


def settle(
    graph: InterADGraph,
    policies: PolicyDatabase,
    matrix: TrafficMatrix,
    finder: Optional[RouteFinder] = None,
) -> Ledger:
    """Route every matrix flow and settle charges.

    ``finder`` defaults to exact synthesis over the database.  For each
    routed flow of weight *w*, every transit AD on the path earns
    ``w * charge`` of the Policy Term that permitted the traversal, and
    the source pays the sum.
    """
    if finder is None:
        finder = lambda flow: synthesize_route(graph, policies, flow)
    ledger = Ledger()
    for flow, weight in matrix.entries:
        result = finder(flow)
        if result is None:
            ledger.unrouted_volume += weight
            continue
        path = tuple(result.path if isinstance(result, Route) else result)
        ledger.routed_volume += weight
        source_entry = ledger.entry(flow.src)
        source_entry.originated_volume += weight
        total_charge = 0.0
        for i in range(1, len(path) - 1):
            term = policies.permitting_term(
                path[i], flow, path[i - 1], path[i + 1]
            )
            charge = (term.charge if term is not None else 0.0) * weight
            transit_entry = ledger.entry(path[i])
            transit_entry.revenue += charge
            transit_entry.carried_volume += weight
            total_charge += charge
        source_entry.paid += total_charge
    return ledger
