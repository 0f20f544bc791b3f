"""Ablations A1-A6: pricing the reproduction's own design choices.

These are not paper tables; they isolate mechanisms the paper reasons
about (or that this implementation chose), one knob at a time:

* **A1** -- synthesis fast path: constrained-Dijkstra walk relaxation
  with exact fallback, vs always-exact branch-and-bound.
* **A2** -- database distribution (Section 6, issue 3): full flooding vs
  spanning-tree-scoped flooding -- message savings and the robustness
  price after a tree-link failure.
* **A3** -- PG state limits (Section 6, issue 3): bounded handle caches
  vs delivery success under concurrent routes.
* **A4** -- Section 5.2's multiple-routes-per-destination extension:
  availability recovered vs routing-table replication paid, per class
  count.
* **A5** -- Section 6's pruning heuristic: hierarchical corridor
  synthesis over a region partition vs flat full-topology synthesis.
* **A6** -- triggered-update batching delay: update coalescing trades
  message volume against convergence time.

A1-A5 are cell-less entries (their columns -- search work, stale LSDBs,
PG state, per-class RIBs, corridor hits -- are not in any record); A6
is a grid of harness cells, one per flush delay.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

from repro.adgraph.trees import spanning_tree_links
from repro.analysis.tables import Table
from repro.core.evaluation import evaluate_availability, sample_flows
from repro.core.hierarchical import HierarchicalSynthesizer
from repro.core.synthesis import (
    SynthesisStats,
    exhaustive_best_path,
    synthesize_route,
)
from repro.faults.plan import safe_failure_candidates
from repro.harness.experiments.common import Experiment
from repro.harness.record import RunRecord
from repro.harness.spec import (
    ExperimentSpec,
    FailureSpec,
    ProtocolSpec,
    ScenarioSpec,
)
from repro.policy.generators import source_class_policies
from repro.policy.legality import path_cost
from repro.protocols import make_protocol
from repro.workloads import reference_scenario, scaled_scenario

#: Every ablation runs on this reference internet (A5 sweeps sizes).
ABLATION_SEED = 71


def _a1_table() -> Tuple[str, Dict[str, Any]]:
    """Walk relaxation + fallback vs always-exact search."""
    scenario = reference_scenario(seed=ABLATION_SEED)
    flows = scenario.flows[:40]

    fast_stats = SynthesisStats()
    fast_routes = [
        synthesize_route(scenario.graph, scenario.policies, f, stats=fast_stats)
        for f in flows
    ]
    exact_stats = SynthesisStats()
    exact_paths = [
        exhaustive_best_path(scenario.graph, scenario.policies, f, stats=exact_stats)
        for f in flows
    ]

    def cost(path, flow):
        return None if path is None else path_cost(scenario.graph, path, flow.qos.metric)

    # Same answers (cost-equal optima), wildly different work: each
    # flow's (fast, exact) route cost, None where no route was found.
    costs = [
        (cost(None if route is None else route.path, flow), cost(path, flow))
        for route, path, flow in zip(fast_routes, exact_paths, flows)
    ]
    agreements = sum(route is not None for route in fast_routes)

    table = Table(
        "strategy",
        "states expanded",
        "fallback runs",
        "routes found",
        title=f"A1: synthesis fast path vs always-exact ({len(flows)} flows)",
    )
    table.add("dijkstra + fallback", fast_stats.states_expanded,
              fast_stats.fallback_runs, fast_stats.routes_found)
    table.add("always exact", exact_stats.states_expanded,
              exact_stats.fallback_runs, agreements)
    return table.render(), dict(fast=fast_stats, exact=exact_stats, costs=costs)


def _a2_table() -> Tuple[str, Dict[str, Any]]:
    """Full vs spanning-tree flooding: savings and robustness price."""
    scenario = reference_scenario(seed=ABLATION_SEED)

    def converge(flooding):
        proto = make_protocol(
            "orwg", scenario.graph.copy(), scenario.policies.copy(), flooding=flooding
        )
        result = proto.converge()
        return proto, result

    full_proto, full_res = converge("full")
    tree_proto, tree_res = converge("tree")

    def desync_after_tree_failure(proto):
        tree = spanning_tree_links(proto.graph)
        candidates = [k for k in safe_failure_candidates(proto.graph) if k in tree]
        if not candidates:
            return 0
        a, b = candidates[0]
        proto.network.set_link_status(a, b, up=False)
        proto.network.run()
        reference = proto.network.node(a).lsdb
        stale = sum(
            1
            for ad in proto.graph.ad_ids()
            if proto.network.node(ad).lsdb != reference
        )
        return stale

    full_stale = desync_after_tree_failure(full_proto)
    tree_stale = desync_after_tree_failure(tree_proto)

    table = Table(
        "flooding",
        "msgs to converge",
        "KB",
        "stale LSDBs after tree-link failure",
        title="A2: database distribution -- full vs spanning-tree flooding",
    )
    table.add("full", full_res.messages, f"{full_res.bytes / 1024:.0f}", full_stale)
    table.add("tree", tree_res.messages, f"{tree_res.bytes / 1024:.0f}", tree_stale)
    facts = dict(
        full_msgs=full_res.messages,
        tree_msgs=tree_res.messages,
        full_stale=full_stale,
        tree_stale=tree_stale,
    )
    return table.render(), facts


def _a3_table() -> Tuple[str, Dict[str, Any]]:
    """Bounded PG caches: delivery success vs state held."""
    scenario = reference_scenario(seed=ABLATION_SEED)
    flows = [
        f
        for f in scenario.flows
        if synthesize_route(scenario.graph, scenario.policies, f) is not None
    ][:12]

    def run(limit):
        proto = make_protocol(
            "orwg", scenario.graph.copy(), scenario.policies.copy(), pg_cache_limit=limit
        )
        proto.converge()
        attempts = []
        for flow in flows:
            attempt = proto.open_route(flow)
            attempts.append(attempt)
        proto.network.run()
        established = [a for a in attempts if a.established]
        for a in established:
            proto.send_data(a, packets=2)
        proto.network.run()
        delivered = sum(proto.delivered(a) for a in established)
        evictions = sum(
            proto.network.node(ad).pg.evictions for ad in proto.graph.ad_ids()
        )
        state = max(proto.pg_cache_size(ad) for ad in proto.graph.ad_ids())
        return len(established), delivered, evictions, state

    table = Table(
        "PG cache limit",
        "routes established",
        "pkts delivered (of 2/route)",
        "evictions",
        "max PG state",
        title=f"A3: PG state limits under {len(flows)} concurrent routes",
    )
    results = {}
    for limit in (None, 16, 8, 4, 2):
        est, delivered, evictions, state = run(limit)
        results[limit] = (est, delivered, evictions, state)
        table.add("unbounded" if limit is None else limit, est, delivered,
                  evictions, state)
    return table.render(), dict(flows=len(flows), results=results)


def _a4_table() -> Tuple[str, Dict[int, Dict[str, Any]]]:
    """Section 5.2's multiple advertised routes: availability vs table
    replication."""
    graph = reference_scenario(seed=ABLATION_SEED).graph
    scen = source_class_policies(graph, 6, refusal_prob=0.3, seed=7)
    flows = sample_flows(graph, 40, seed=8)

    def run(classes):
        proto = make_protocol(
            "idrp", graph.copy(), scen.policies.copy(), route_classes=classes
        )
        res = proto.converge()
        rep = evaluate_availability(
            proto.graph, proto.policies, flows, proto.find_route
        )
        return dict(
            avail=rep.availability,
            illegal=rep.n_illegal,
            rib=proto.total_rib_size(),
            msgs=res.messages,
            kb=res.bytes / 1024,
        )

    table = Table(
        "route classes",
        "availability",
        "illegal",
        "total RIB",
        "msgs",
        "KB",
        title="A4: IDRP multiple routes per destination (Section 5.2 extension)",
    )
    results = {}
    for classes in (1, 2, 6):
        r = run(classes)
        results[classes] = r
        table.add(classes, f"{r['avail']:.2f}", r["illegal"], r["rib"],
                  r["msgs"], f"{r['kb']:.0f}")
    return table.render(), results


def _a5_table() -> Tuple[str, Dict[int, Dict[str, Any]]]:
    """Section 6's pruning heuristic: corridor-restricted synthesis over a
    region partition vs flat full-topology synthesis, at several internet
    sizes."""
    table = Table(
        "ADs",
        "routable flows",
        "flat states",
        "hier states",
        "saving",
        "corridor hit ratio",
        "fallbacks",
        "availability preserved",
        title=(
            "A5: hierarchical (corridor) synthesis vs flat synthesis "
            "(routable flows -- pruning cannot help prove a route's absence)"
        ),
    )
    results = {}
    for size in (50, 100, 200):
        scen = scaled_scenario(size, seed=81)
        # Pruning targets route *finding*; proving absence is inherently
        # global, so the comparison uses routable flows.
        flows = [
            f
            for f in scen.flows
            if synthesize_route(scen.graph, scen.policies, f) is not None
        ]
        flat_stats = SynthesisStats()
        flat_found = 0
        for flow in flows:
            if synthesize_route(
                scen.graph, scen.policies, flow, stats=flat_stats
            ) is not None:
                flat_found += 1
        hier = HierarchicalSynthesizer(scen.graph, scen.policies)
        hier_found = sum(hier.route(f) is not None for f in flows)
        saving = 1 - hier.stats.synthesis.states_expanded / max(
            1, flat_stats.states_expanded
        )
        results[size] = dict(
            flat_states=flat_stats.states_expanded,
            hier_states=hier.stats.synthesis.states_expanded,
            hit_ratio=hier.stats.hit_ratio,
            flat_found=flat_found,
            hier_found=hier_found,
        )
        table.add(
            scen.graph.num_ads,
            len(flows),
            flat_stats.states_expanded,
            hier.stats.synthesis.states_expanded,
            f"{saving:+.0%}",
            f"{hier.stats.hit_ratio:.2f}",
            hier.stats.fallbacks,
            "yes" if hier_found == flat_found else "NO",
        )
    return table.render(), results


# --------------------------------------------------------------------------
# A6 -- update batching: the triggered-update flush delay trades message
# volume against convergence time.  A tiny delay sends near-per-change
# updates; a long delay coalesces whole waves into single updates but
# holds routes stale for longer.

TRIGGER_DELAYS: Tuple[float, ...] = (0.1, 1.0, 5.0, 20.0)
TRIGGER_DELAYS_SMOKE: Tuple[float, ...] = (0.1, 20.0)


def _a6_spec(smoke: bool) -> ExperimentSpec:
    delays = TRIGGER_DELAYS_SMOKE if smoke else TRIGGER_DELAYS
    return ExperimentSpec(
        name="ablation_a6_trigger_delay",
        scenarios=(ScenarioSpec(kind="reference", seed=ABLATION_SEED),),
        protocols=tuple(
            ProtocolSpec(
                "naive-dv",
                label=f"naive-dv(delay={delay})",
                options=(("trigger_delay", delay),),
            )
            for delay in delays
        ),
        failures=(
            FailureSpec(
                kind="random", count=2 if smoke else 4, repair=True, seed=ABLATION_SEED
            ),
        ),
    )


def _render_a6(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    table = Table(
        "flush delay",
        "initial msgs",
        "initial time",
        "msgs/event",
        "time/event",
        title="A6: triggered-update batching delay (naive DV)",
    )
    for protocol, rec in zip(spec.protocols, records):
        msgs = [e.messages for e in rec.failure_episodes]
        times = [e.time for e in rec.failure_episodes]
        table.add(
            dict(protocol.options)["trigger_delay"],
            rec.initial.messages,
            f"{rec.initial.time:.0f}",
            f"{sum(msgs) / len(msgs):.0f}",
            f"{sum(times) / len(times):.0f}",
        )
    return table.render()


ENTRIES: Tuple[Experiment, ...] = (
    Experiment(
        name="ablation_a1_fast_path",
        eid="A1",
        description="Synthesis fast path vs always-exact search",
        tabulate=_a1_table,
    ),
    Experiment(
        name="ablation_a2_flooding",
        eid="A2",
        description="Full vs spanning-tree flooding",
        tabulate=_a2_table,
    ),
    Experiment(
        name="ablation_a3_pg_cache",
        eid="A3",
        description="Bounded PG caches vs delivery",
        tabulate=_a3_table,
    ),
    Experiment(
        name="ablation_a4_idrp_multiroute",
        eid="A4",
        description="IDRP multiple routes per destination",
        tabulate=_a4_table,
    ),
    Experiment(
        name="ablation_a5_hierarchical",
        eid="A5",
        description="Hierarchical corridor vs flat synthesis",
        tabulate=_a5_table,
    ),
    Experiment(
        name="ablation_a6_trigger_delay",
        eid="A6",
        description="Triggered-update batching delay (naive DV)",
        build_spec=_a6_spec,
        render=_render_a6,
    ),
)
