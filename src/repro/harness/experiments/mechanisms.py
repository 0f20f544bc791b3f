"""Two mechanisms the paper prices in prose, measured on converged
protocols: source-specific policy granularity (E5) and route setup
amortisation (E6).  Both are cell-less entries: their columns (FIB
fanout, transit computations, PG setups and handle reuse) come from
protocol objects the harness records do not carry."""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Tuple

from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.analysis.stats import summarize
from repro.analysis.tables import Table
from repro.core.evaluation import evaluate_availability
from repro.core.synthesis import synthesize_route
from repro.forwarding.headers import (
    amortized_handle_bytes,
    source_route_header_bytes,
)
from repro.harness.experiments.common import Experiment
from repro.policy.flows import FlowSpec
from repro.policy.generators import source_class_policies
from repro.protocols import make_protocol
from repro.traffic.workload import TrafficMatrix, request_sequence, uniform_traffic
from repro.workloads import reference_scenario

# --------------------------------------------------------------------------
# E5 -- The cost of source-specific policy granularity (Sections 5.2.1 and
# 5.3): as transit policies discriminate among sources, hop-by-hop FIBs
# fan out, every LS-HbH transit AD replicates the route computation
# (ORWG transit ADs compute none), IDRP's single advertised route serves
# ever fewer sources, and the advertised policy volume grows.

GRANULARITY_CLASSES = [1, 2, 4, 8, 16, 32]


def _granularity_setting():
    graph = generate_internet(
        TopologyConfig(
            num_backbones=2,
            regionals_per_backbone=3,
            campuses_per_parent=5,
            lateral_prob=0.4,
            bypass_prob=0.15,
            seed=23,
        )
    )
    stubs = [a.ad_id for a in graph.ads() if a.level.rank == 0]
    # Many sources, few destinations: the per-source-tree pressure case.
    # Destinations are spread across the hierarchy (not siblings).
    dests = stubs[:: max(1, len(stubs) // 3)][:3]
    sources = [s for s in stubs if s not in dests]
    flows = [FlowSpec(s, d) for d in dests for s in sources]
    return graph, flows, set(sources)


def _fib_fanout(proto, flows):
    """Distinct next hops per (transit AD, destination) under LS-HbH."""
    fanout = defaultdict(set)
    for flow in flows:
        path = proto.find_route(flow)
        if path is None:
            continue
        for i in range(1, len(path) - 1):
            fanout[(path[i], flow.dst)].add(path[i + 1])
    if not fanout:
        return 0.0, 0
    sizes = [len(v) for v in fanout.values()]
    return sum(sizes) / len(sizes), max(sizes)


def _run_granularity(graph, flows, sources, classes):
    scen = source_class_policies(graph, classes, refusal_prob=0.3, seed=4)

    hbh = make_protocol("ls-hbh", graph.copy(), scen.policies.copy())
    hbh.converge()
    mean_fan, max_fan = _fib_fanout(hbh, flows)
    transit_comps = sum(
        n
        for (ad, kind), n in hbh.network.metrics.computations.items()
        if kind == "policy_route" and ad not in sources
    )

    orwg = make_protocol("orwg", graph.copy(), scen.policies.copy())
    orwg.converge()
    orwg_rep = evaluate_availability(
        orwg.graph, orwg.policies, flows, orwg.find_route
    )
    orwg_transit = sum(
        n
        for (ad, kind), n in orwg.network.metrics.computations.items()
        if kind == "synthesis" and ad not in sources
    )

    idrp = make_protocol("idrp", graph.copy(), scen.policies.copy())
    idrp.converge()
    idrp_rep = evaluate_availability(
        idrp.graph, idrp.policies, flows, idrp.find_route
    )

    return dict(
        pts=scen.policies.num_terms,
        pt_bytes=scen.policies.size_bytes(),
        mean_fan=mean_fan,
        max_fan=max_fan,
        transit_comps=transit_comps,
        orwg_transit=orwg_transit,
        idrp_avail=idrp_rep.availability,
        orwg_avail=orwg_rep.availability,
    )


def _granularity_table() -> Tuple[str, Dict[int, Dict[str, Any]]]:
    graph, flows, sources = _granularity_setting()
    table = Table(
        "classes",
        "PTs",
        "PT KB",
        "FIB fanout mean",
        "FIB fanout max",
        "LS-HbH transit comps",
        "ORWG transit comps",
        "IDRP avail",
        "ORWG avail",
        title=(
            f"E5: source-specific granularity ({len(flows)} flows, "
            f"{len(sources)} sources -> 3 destinations)"
        ),
    )
    results = {}
    for classes in GRANULARITY_CLASSES:
        r = _run_granularity(graph, flows, sources, classes)
        results[classes] = r
        table.add(
            classes,
            r["pts"],
            f"{r['pt_bytes'] / 1024:.1f}",
            f"{r['mean_fan']:.2f}",
            r["max_fan"],
            r["transit_comps"],
            r["orwg_transit"],
            f"{r['idrp_avail']:.2f}",
            f"{r['orwg_avail']:.2f}",
        )
    return table.render(), results


# --------------------------------------------------------------------------
# E6 -- Route setup amortisation, header overhead and PG state (Section
# 5.4.1: "the first packet ... acts as a policy route setup packet ...
# successive data packets use that handle"), across traffic locality.

SETUP_ZIPF_SKEWS = [0.0, 0.8, 1.6]
SETUP_REQUESTS = 150
SETUP_PACKETS_PER_REQUEST = 8


def _routable_matrix(scenario, n_flows, seed):
    """A flow population restricted to flows with a legal route: real
    sources stop asking for destinations they can never reach, so the
    request stream should not be dominated by dead flows."""
    matrix = uniform_traffic(scenario.graph, 3 * n_flows, seed=seed)
    routable = [
        (flow, weight)
        for flow, weight in matrix.entries
        if synthesize_route(scenario.graph, scenario.policies, flow) is not None
    ]
    return TrafficMatrix(tuple(routable[:n_flows]))


def _run_locality(scenario, zipf_s):
    proto = make_protocol("orwg", scenario.graph.copy(), scenario.policies.copy())
    proto.converge()
    matrix = _routable_matrix(scenario, 40, seed=31)
    requests = request_sequence(matrix, SETUP_REQUESTS, zipf_s=zipf_s, seed=32)

    open_routes = {}
    latencies = []
    setups = reuses = failures = 0
    for flow in requests:
        attempt = open_routes.get(flow)
        if attempt is not None and attempt.established:
            reuses += 1
        else:
            attempt = proto.open_route(flow)
            proto.network.run()
            if attempt.established:
                setups += 1
                latencies.append(attempt.latency)
                open_routes[flow] = attempt
            else:
                failures += 1
                continue
        proto.send_data(attempt, packets=SETUP_PACKETS_PER_REQUEST)
        proto.network.run()

    delivered = sum(proto.delivered(a) for a in open_routes.values())
    cache = [proto.pg_cache_size(a) for a in proto.graph.ad_ids()]
    mean_route_len = (
        sum(len(a.route) for a in open_routes.values()) / max(1, len(open_routes))
    )
    return dict(
        setups=setups,
        reuses=reuses,
        failures=failures,
        latency=summarize(latencies) if latencies else None,
        delivered=delivered,
        max_cache=max(cache),
        total_cache=sum(cache),
        mean_route_len=mean_route_len,
    )


def _setup_overhead_table() -> Tuple[str, Dict[str, Any]]:
    scenario = reference_scenario(seed=29, restrictiveness=0.2)
    table = Table(
        "zipf s",
        "setups",
        "handle reuses",
        "no-route",
        "setup RTT p50",
        "setup RTT p95",
        "pkts delivered",
        "max PG cache",
        "total PG state",
        title=(
            "E6a: setup amortisation vs traffic locality "
            f"({SETUP_REQUESTS} route requests)"
        ),
    )
    results = {}
    for s in SETUP_ZIPF_SKEWS:
        r = _run_locality(scenario, s)
        results[s] = r
        lat = r["latency"]
        table.add(
            f"{s:.1f}",
            r["setups"],
            r["reuses"],
            r["failures"],
            f"{lat.p50:.0f}" if lat else "-",
            f"{lat.p95:.0f}" if lat else "-",
            r["delivered"],
            r["max_cache"],
            r["total_cache"],
        )

    # Header-byte comparison at the measured mean route length.
    route_len = max(2, round(results[0.0]["mean_route_len"]))
    transits = max(0, route_len - 2)
    hdr = Table(
        "packets on route",
        "per-packet source route",
        "setup+handle amortised",
        "saving",
        title=f"E6b: header bytes per packet (route length {route_len} ADs)",
    )
    per_packet = source_route_header_bytes(route_len)
    amortised_at = {}
    for n in (1, 2, 5, 10, 50, 200):
        amortised = amortized_handle_bytes(route_len, transits, n)
        amortised_at[n] = amortised
        hdr.add(
            n,
            per_packet,
            f"{amortised:.1f}",
            f"{(1 - amortised / per_packet) * 100:+.0f}%",
        )
    facts = dict(results=results, per_packet=per_packet, amortised=amortised_at)
    return table.render() + "\n\n" + hdr.render(), facts


ENTRIES: Tuple[Experiment, ...] = (
    Experiment(
        name="granularity",
        eid="E5",
        description="Source-specific policy granularity costs",
        tabulate=_granularity_table,
    ),
    Experiment(
        name="setup_overhead",
        eid="E6",
        description="Route setup amortisation and header overhead",
        tabulate=_setup_overhead_table,
    ),
)
