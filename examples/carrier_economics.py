#!/usr/bin/env python
"""Carrier economics: charging, policy trade-offs, ordering negotiation.

The paper's policy model (Section 2.3) includes "charging and accounting
policies"; its conclusion (Section 6) predicts administrators will need
tools to weigh a policy's resource savings against its costs.  This
example runs a regional carrier's business review:

1. settle the books for a gravity traffic matrix under current policies;
2. propose monetising transit (a charge on the carrier's policy terms)
   and measure how much traffic flees to cheaper routes when sources
   weigh charges in their selection criteria;
3. ECMA coda: the carriers try to encode their business preferences as a
   single partial ordering and discover which demands the central
   authority has to reject.

Run:  python examples/carrier_economics.py
"""

from dataclasses import replace

from repro.analysis.tables import Table
from repro.core.synthesis import synthesize_route
from repro.mgmt.accounting import settle
from repro.mgmt.negotiation import negotiate_ordering
from repro.policy.selection import RouteSelectionPolicy
from repro.workloads import reference_scenario
from repro.traffic.workload import gravity_traffic


def main() -> None:
    scenario = reference_scenario(seed=31, restrictiveness=0.0)
    graph, policies = scenario.graph, scenario.policies
    matrix = gravity_traffic(graph, 60, seed=32)

    # 1. Books under free transit.
    ledger = settle(graph, policies, matrix)
    print(ledger.summary())

    # 2. The top carrier monetises: a steep charge on all its terms
    #    (terms are immutable values; re-advertise charged replacements).
    top_carrier = max(
        ledger.entries, key=lambda ad: ledger.entries[ad].carried_volume
    )
    charge = 25.0
    print(f"\nAD {top_carrier} (carried volume "
          f"{ledger.entries[top_carrier].carried_volume:g}) sets charge {charge}")
    old_terms = policies.terms_of(top_carrier)
    policies.remove_terms(top_carrier)
    for term in old_terms:
        policies.add_term(replace(term, charge=charge, term_id=-1))

    table = Table(
        "sources weigh charges?",
        "carrier revenue",
        "carrier volume",
        "routed volume",
        title="Revenue vs price sensitivity",
    )
    for weight in (0.0, 1.0):
        selection = RouteSelectionPolicy(charge_weight=weight)
        finder = lambda f: synthesize_route(graph, policies, f, selection)
        books = settle(graph, policies, matrix, finder=finder)
        entry = books.entries.get(top_carrier)
        table.add(
            "no" if weight == 0 else "yes (weight 1.0)",
            f"{entry.revenue:.0f}" if entry else "0",
            f"{entry.carried_volume:g}" if entry else "0",
            f"{books.routed_volume:g}",
        )
    print(table.render())
    print("(price-sensitive sources detour around the charging carrier "
          "where a free legal route exists)")

    # 3. ECMA coda: encode 'I shall be above my competitors' preferences.
    regionals = [a.ad_id for a in graph.ads() if a.level.name == "REGIONAL"]
    demands = []
    for i, r in enumerate(regionals):
        # Every regional demands to outrank the next two (cyclically) --
        # mutually unsatisfiable by construction at the wrap-around.
        demands.append((regionals[(i + 1) % len(regionals)], r))
    result = negotiate_ordering(graph.ad_ids(), demands)
    print(f"\nECMA ordering negotiation over {len(demands)} ranking demands:")
    print(result.summary())


if __name__ == "__main__":
    main()
