"""Pure analysis, no protocol runs: Figure 1's composition (E2), the
single partial ordering (E8), the AD-level abstraction (E9) and route
synthesis strategies (E10).  Each is a cell-less entry: it computes its
table directly and returns the values the table gate checks."""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from repro.adgraph.ad import ADKind, Level, LinkKind
from repro.adgraph.expansion import RouterExpansion
from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.adgraph.partial_order import try_order_from_constraints
from repro.analysis.stats import summarize
from repro.analysis.tables import Table
from repro.core.strategies import HybridStrategy, OnDemandStrategy, PrecomputeStrategy
from repro.core.synthesis import RouteSynthesizer, synthesize_route
from repro.harness.experiments.common import Experiment
from repro.policy.flows import FlowSpec
from repro.policy.generators import open_policies
from repro.traffic.workload import request_sequence, uniform_traffic
from repro.workloads import reference_scenario

# --------------------------------------------------------------------------
# E2 -- Figure 1, regenerated: a backbone/regional/campus hierarchy with
# lateral and bypass links, composed across the exception-link densities.

FIG1_BASE = dict(num_backbones=2, regionals_per_backbone=3, campuses_per_parent=4)


def fig1_compose(lateral, bypass, multihome, seed=0):
    cfg = TopologyConfig(
        lateral_prob=lateral,
        bypass_prob=bypass,
        multihome_prob=multihome,
        seed=seed,
        **FIG1_BASE,
    )
    return generate_internet(cfg)


def _fig1_table() -> Tuple[str, Dict[str, Any]]:
    table = Table(
        "lateral/bypass/multihome",
        "ADs",
        "bb/reg/cam",
        "stub",
        "multi",
        "transit",
        "hybrid",
        "hier links",
        "lateral",
        "bypass",
        "connected",
        title="Figure 1 (regenerated): internet composition vs exception-link density",
    )
    sweeps = [
        (0.0, 0.0, 0.0),
        (0.2, 0.05, 0.1),
        (0.3, 0.1, 0.15),  # the Figure-1-like default
        (0.5, 0.2, 0.3),
        (0.8, 0.4, 0.5),
    ]
    connected = []
    for lateral, bypass, multihome in sweeps:
        g = fig1_compose(lateral, bypass, multihome)
        levels = g.level_counts()
        kinds = g.kind_counts()
        links = g.link_kind_counts()
        table.add(
            f"{lateral:.1f}/{bypass:.2f}/{multihome:.2f}",
            g.num_ads,
            f"{levels[Level.BACKBONE]}/{levels[Level.REGIONAL]}/{levels[Level.CAMPUS]}",
            kinds[ADKind.STUB],
            kinds[ADKind.MULTIHOMED],
            kinds[ADKind.TRANSIT],
            kinds[ADKind.HYBRID],
            links[LinkKind.HIERARCHICAL],
            links[LinkKind.LATERAL],
            links[LinkKind.BYPASS],
            "yes" if g.is_connected() else "NO",
        )
        connected.append(g.is_connected())
    return table.render(), {"connected": connected}


# --------------------------------------------------------------------------
# E8 -- Mutual satisfiability of policies in a single partial ordering
# (Section 5.1.1): the fraction of random policy-constraint sets that
# admit one ordering, and how often one new policy breaks an ordering.

ORDER_TRIALS = 120


def _random_constraints(rng, n_ads, n_constraints):
    """Each constraint is an AD's policy preference 'I must be below X'
    (e.g. to keep X's traffic from transiting me upward)."""
    out = []
    while len(out) < n_constraints:
        a, b = rng.sample(range(n_ads), 2)
        out.append((a, b))
    return out


def _satisfiable_fraction(n_ads, n_constraints, seed):
    rng = random.Random(seed)
    ok = 0
    for _ in range(ORDER_TRIALS):
        constraints = _random_constraints(rng, n_ads, n_constraints)
        if try_order_from_constraints(range(n_ads), constraints) is not None:
            ok += 1
    return ok / ORDER_TRIALS


def _renegotiation_probability(n_ads, n_constraints, seed):
    """Given a satisfiable ordering, how often does ONE new policy
    constraint conflict with it (forcing global renegotiation)?"""
    rng = random.Random(seed)
    broken = attempts = 0
    while attempts < ORDER_TRIALS:
        constraints = _random_constraints(rng, n_ads, n_constraints)
        if try_order_from_constraints(range(n_ads), constraints) is None:
            continue
        attempts += 1
        extra = _random_constraints(rng, n_ads, 1)
        combined = constraints + extra
        if try_order_from_constraints(range(n_ads), combined) is None:
            broken += 1
    return broken / attempts


def _partial_order_table() -> Tuple[str, Dict[str, Any]]:
    table = Table(
        "ADs",
        "constraints/AD=0.5",
        "1.0",
        "1.5",
        "2.0",
        title=(
            "E8a: fraction of random policy sets expressible in a single "
            f"partial ordering ({ORDER_TRIALS} trials each)"
        ),
    )
    fractions = {}
    for n_ads in (10, 20, 40, 80):
        row = []
        for density in (0.5, 1.0, 1.5, 2.0):
            frac = _satisfiable_fraction(n_ads, int(n_ads * density), seed=n_ads)
            fractions[(n_ads, density)] = frac
            row.append(f"{frac:.2f}")
        table.add(n_ads, *row)

    reneg = Table(
        "ADs",
        "P(one new policy breaks the ordering)",
        title="E8b: renegotiation pressure after a single policy change",
    )
    for n_ads in (10, 20, 40, 80):
        p = _renegotiation_probability(n_ads, n_ads, seed=n_ads + 1)
        reneg.add(n_ads, f"{p:.2f}")
    return table.render() + "\n\n" + reneg.render(), {"fractions": fractions}


# --------------------------------------------------------------------------
# E9 -- The price and payoff of the AD-level abstraction (Section 4.1):
# ADs expand into router rings, and the best router-level realisation of
# each AD-level route is compared with the router-level optimum, next to
# the routing-information volume at the two granularities.


def _measure_abstraction(graph, flows):
    expansion = RouterExpansion(graph)
    policies = open_policies(graph).policies
    stretches = []
    for flow in flows:
        route = synthesize_route(graph, policies, flow)
        if route is None:
            continue
        stretch = expansion.stretch(route.path)
        if stretch is not None:
            stretches.append(stretch)
    info_ad, info_router = expansion.information_volume()
    return stretches, info_ad, info_router, expansion.total_routers()


def _abstraction_table() -> Tuple[str, Dict[str, Any]]:
    table = Table(
        "topology",
        "routers",
        "AD-level info",
        "router-level info",
        "info ratio",
        "stretch mean",
        "stretch p95",
        "stretch max",
        title="E9: AD-level abstraction -- information saved vs optimality lost",
    )
    all_ok = []
    for seed in (51, 52, 53):
        graph = generate_internet(
            TopologyConfig(
                num_backbones=2,
                regionals_per_backbone=3,
                campuses_per_parent=4,
                lateral_prob=0.4,
                bypass_prob=0.15,
                seed=seed,
            )
        )
        rng = random.Random(seed)
        stubs = [a.ad_id for a in graph.stub_ads()]
        flows = [FlowSpec(*rng.sample(stubs, 2)) for _ in range(40)]
        stretches, info_ad, info_router, routers = _measure_abstraction(graph, flows)
        s = summarize(stretches)
        all_ok.append((s, info_ad, info_router))
        table.add(
            f"seed {seed} ({graph.num_ads} ADs)",
            routers,
            info_ad,
            info_router,
            f"{info_router / info_ad:.1f}x",
            f"{s.mean:.3f}",
            f"{s.p95:.3f}",
            f"{s.maximum:.3f}",
        )
    return table.render(), {"topologies": all_ok}


# --------------------------------------------------------------------------
# E10 -- Route synthesis strategies (Section 6, research issue 1):
# precompute vs on-demand vs hybrid under a Zipf request stream.

STRATEGY_REQUESTS = 2000
STRATEGY_ZIPF_S = 1.0


def _strategies_table() -> Tuple[str, Dict[str, Any]]:
    scenario = reference_scenario(seed=61, restrictiveness=0.2)
    matrix = uniform_traffic(scenario.graph, 120, seed=62, fixed_hour=12)
    requests = request_sequence(
        matrix, STRATEGY_REQUESTS, zipf_s=STRATEGY_ZIPF_S, seed=63
    )
    # The full flow universe a precompute-all strategy must cover: every
    # ordered pair of edge (leaf-level) ADs -- the realistic lower bound
    # on "all policy routes".
    edges = [a.ad_id for a in scenario.graph.ads() if a.level.rank == 0]
    universe = [FlowSpec(s, d) for s in edges for d in edges if s != d]
    popular = [f for f, _ in sorted(matrix.entries, key=lambda e: -e[1])]

    def fresh_synth():
        return RouteSynthesizer(scenario.graph, scenario.policies)

    strategies: List[Tuple[str, Any]] = [
        ("precompute-all", PrecomputeStrategy(fresh_synth(), universe)),
        ("on-demand (LRU 64)", OnDemandStrategy(fresh_synth(), 64)),
        (
            "hybrid (top 20 + LRU 64)",
            HybridStrategy(fresh_synth(), popular[:20], 64),
        ),
        (
            "hybrid (top 60 + LRU 64)",
            HybridStrategy(fresh_synth(), popular[:60], 64),
        ),
    ]

    table = Table(
        "strategy",
        "precompute states",
        "table size",
        "answered",
        "hit ratio",
        "mean states/request",
        title=(
            f"E10: synthesis strategies under a Zipf(s={STRATEGY_ZIPF_S}) "
            f"stream of {STRATEGY_REQUESTS} requests "
            f"(universe: {len(universe)} flows)"
        ),
    )
    stats = {}
    for name, strategy in strategies:
        answered = sum(strategy.lookup(f) is not None for f in requests)
        s = strategy.stats
        stats[name] = (s, strategy.table_size, answered)
        table.add(
            name,
            s.precompute_states,
            strategy.table_size,
            answered,
            f"{s.hit_ratio:.2f}",
            f"{s.mean_request_states:.1f}",
        )
    return table.render(), stats


ENTRIES: Tuple[Experiment, ...] = (
    Experiment(
        name="fig1_topology",
        eid="E2",
        description="Figure 1 topology composition",
        tabulate=_fig1_table,
    ),
    Experiment(
        name="partial_order",
        eid="E8",
        description="Partial-ordering satisfiability (ECMA)",
        tabulate=_partial_order_table,
    ),
    Experiment(
        name="abstraction",
        eid="E9",
        description="AD-level abstraction: stretch vs information",
        tabulate=_abstraction_table,
    ),
    Experiment(
        name="synthesis_strategies",
        eid="E10",
        description="Synthesis strategies: precompute/on-demand/hybrid",
        tabulate=_strategies_table,
    ),
)
