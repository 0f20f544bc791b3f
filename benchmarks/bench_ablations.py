"""Ablations A1-A4: pricing the reproduction's own design choices.

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
"""

import pytest

from _common import emit
from repro.adgraph.trees import spanning_tree_links
from repro.analysis.tables import Table
from repro.core.evaluation import evaluate_availability, sample_flows
from repro.core.synthesis import (
    SynthesisStats,
    exhaustive_best_path,
    synthesize_route,
)
from repro.faults.plan import random_failure_plan, safe_failure_candidates
from repro.policy.generators import source_class_policies
from repro.policy.legality import path_cost
from repro.protocols import make_protocol
from repro.workloads import reference_scenario


@pytest.fixture(scope="module")
def scenario():
    return reference_scenario(seed=71)


def test_a1_synthesis_fast_path(benchmark, scenario):
    """Walk relaxation + fallback vs always-exact search."""
    flows = scenario.flows[:40]

    def fast():
        stats = SynthesisStats()
        routes = [
            synthesize_route(scenario.graph, scenario.policies, f, stats=stats)
            for f in flows
        ]
        return routes, stats

    def exact():
        stats = SynthesisStats()
        paths = [
            exhaustive_best_path(scenario.graph, scenario.policies, f, stats=stats)
            for f in flows
        ]
        return paths, stats

    fast_routes, fast_stats = fast()
    exact_paths, exact_stats = exact()

    # Same answers (cost-equal optima), wildly different work.
    agreements = 0
    for route, path, flow in zip(fast_routes, exact_paths, flows):
        if route is None:
            assert path is None
        else:
            assert path is not None
            assert path_cost(scenario.graph, route.path, flow.qos.metric) == (
                pytest.approx(path_cost(scenario.graph, path, flow.qos.metric))
            )
            agreements += 1

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
    emit("ablation_a1_fast_path", table.render())

    assert fast_stats.states_expanded < exact_stats.states_expanded / 2
    benchmark.pedantic(fast, iterations=1, rounds=1)


def test_a2_flooding_scope(benchmark, scenario):
    """Full vs spanning-tree flooding: savings and robustness price."""

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
    emit("ablation_a2_flooding", table.render())

    assert tree_res.messages < full_res.messages
    assert full_stale == 0
    assert tree_stale > 0  # the robustness price

    benchmark.pedantic(converge, args=("tree",), iterations=1, rounds=1)


def test_a3_pg_cache_limits(benchmark, scenario):
    """Bounded PG caches: delivery success vs state held."""
    flows = [
        f
        for f in scenario.flows
        if synthesize_route(scenario.graph, scenario.policies, f) is not None
    ][:12]
    assert len(flows) == 12

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
    emit("ablation_a3_pg_cache", table.render())

    unbounded = results[None]
    tiny = results[2]
    assert unbounded[2] == 0
    assert tiny[1] < unbounded[1]  # deliveries lost to eviction
    assert tiny[3] <= 2

    benchmark.pedantic(run, args=(8,), iterations=1, rounds=1)


def test_a4_idrp_multiroute(benchmark, scenario):
    """Section 5.2's multiple advertised routes: availability vs table
    replication."""
    graph = scenario.graph
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
    emit("ablation_a4_idrp_multiroute", table.render())

    assert results[6]["avail"] >= results[1]["avail"]
    assert results[6]["rib"] > 3 * results[1]["rib"]  # the replication bill
    assert all(r["illegal"] == 0 for r in results.values())

    benchmark.pedantic(run, args=(2,), iterations=1, rounds=1)


def test_a5_hierarchical_synthesis(benchmark):
    """Section 6's pruning heuristic: corridor-restricted synthesis over a
    region partition vs flat full-topology synthesis, at several internet
    sizes."""
    from repro.core.hierarchical import HierarchicalSynthesizer
    from repro.workloads import scaled_scenario

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
        results[size] = (flat_stats, hier, flat_found, hier_found)
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
    emit("ablation_a5_hierarchical", table.render())

    for size, (flat_stats, hier, flat_found, hier_found) in results.items():
        assert hier_found == flat_found  # fallback keeps completeness
    # At the largest size the corridor pruning must pay off.
    flat_stats, hier, _, _ = results[200]
    assert hier.stats.synthesis.states_expanded < flat_stats.states_expanded
    assert hier.stats.hit_ratio > 0.5

    benchmark.pedantic(
        lambda: [
            HierarchicalSynthesizer(
                scaled_scenario(100, seed=81).graph,
                scaled_scenario(100, seed=81).policies,
            )
        ],
        iterations=1,
        rounds=1,
    )


def test_a6_trigger_delay(benchmark, scenario):
    """Update batching: the triggered-update flush delay trades message
    volume against convergence time.  A tiny delay sends near-per-change
    updates; a long delay coalesces whole waves into single updates but
    holds routes stale for longer."""
    from repro.simul.runner import run_episodes

    plan = random_failure_plan(scenario.graph, count=4, repair=True, seed=71)

    def run(delay):
        proto = make_protocol(
            "naive-dv", scenario.graph.copy(), scenario.policies.copy(), trigger_delay=delay
        )
        initial, *episodes = run_episodes(proto, plan)
        msgs = [e.messages for e in episodes]
        times = [e.time for e in episodes]
        return dict(
            initial=initial.messages,
            initial_time=initial.time,
            mean_msgs=sum(msgs) / len(msgs),
            mean_time=sum(times) / len(times),
        )

    table = Table(
        "flush delay",
        "initial msgs",
        "initial time",
        "msgs/event",
        "time/event",
        title="A6: triggered-update batching delay (naive DV)",
    )
    results = {}
    for delay in (0.1, 1.0, 5.0, 20.0):
        r = run(delay)
        results[delay] = r
        table.add(
            delay,
            r["initial"],
            f"{r['initial_time']:.0f}",
            f"{r['mean_msgs']:.0f}",
            f"{r['mean_time']:.0f}",
        )
    emit("ablation_a6_trigger_delay", table.render())

    # Shape: batching harder saves messages and costs time.
    assert results[20.0]["initial"] <= results[0.1]["initial"]
    assert results[20.0]["initial_time"] > results[0.1]["initial_time"]

    benchmark.pedantic(run, args=(1.0,), iterations=1, rounds=1)
