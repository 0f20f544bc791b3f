#!/usr/bin/env python
"""Convergence study: reconvergence cost after link failures.

Reproduces the Section 4.3 / 5.1.1 story: naive distance vector pays a
count-to-infinity tax after failures; the ECMA partial ordering bounds
it; path-vector (IDRP) suppresses loops via full AD paths; link-state
floods the change once and recomputes locally.

Run:  python examples/convergence_study.py
"""

from repro.analysis.tables import Table
from repro.faults.plan import random_failure_plan
from repro.protocols import make_protocol
from repro.simul.runner import run_episodes
from repro.workloads import reference_scenario


def main() -> None:
    scenario = reference_scenario(seed=11)
    plan = random_failure_plan(scenario.graph, count=5, repair=True, seed=11)
    print(
        f"scenario: {scenario.graph.num_ads} ADs; failing/repairing "
        f"{len(plan) // 2} links one at a time\n"
    )

    contenders = [
        ("naive DV (inf=32)", lambda g, p: make_protocol("naive-dv", g, p, infinity=32)),
        ("ECMA (partial order)", lambda g, p: make_protocol("ecma", g, p)),
        ("IDRP (path vector)", lambda g, p: make_protocol("idrp", g, p)),
        ("ORWG (link state)", lambda g, p: make_protocol("orwg", g, p)),
    ]

    table = Table(
        "protocol",
        "initial msgs",
        "per-failure msgs",
        "per-failure KB",
        "per-failure time",
        title="Reconvergence cost after a single link failure (mean over episodes)",
    )
    for name, factory in contenders:
        proto = factory(scenario.graph.copy(), scenario.policies.copy())
        initial, *episodes = run_episodes(proto, plan)
        n = len(episodes)
        msgs = sum(e.messages for e in episodes) / n
        kb = sum(e.bytes for e in episodes) / n / 1024
        time = sum(e.time for e in episodes) / n
        table.add(name, initial.messages, f"{msgs:.0f}", f"{kb:.1f}", f"{time:.0f}")
    print(table.render())


if __name__ == "__main__":
    main()
