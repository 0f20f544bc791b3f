"""Tests for bottleneck-bandwidth QOS routing (widest-path synthesis)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.core.synthesis import synthesize_route
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.generators import restricted_policies
from repro.policy.legality import is_legal_path, path_metric
from repro.policy.qos import QOS
from repro.policy.selection import RouteSelectionPolicy
from repro.policy.terms import PolicyTerm
from tests.helpers import mk_graph, open_db
from tests.oracles import brute_force_widest


def wide_diamond():
    """0 -> {1, 2} -> 3: via 1 is short but narrow, via 2 long but wide."""
    return mk_graph(
        [(0, "Cs"), (1, "Rt"), (2, "Rt"), (3, "Cs")],
        [(0, 1), (0, 2), (1, 3), (2, 3)],
        metrics={
            (0, 1): {"delay": 1.0, "cost": 1.0, "bandwidth": 1.5},
            (1, 3): {"delay": 1.0, "cost": 1.0, "bandwidth": 45.0},
            (0, 2): {"delay": 5.0, "cost": 1.0, "bandwidth": 45.0},
            (2, 3): {"delay": 5.0, "cost": 1.0, "bandwidth": 34.0},
        },
    )


class TestWidestPath:
    def test_bandwidth_flow_takes_wide_branch(self):
        g = wide_diamond()
        db = open_db(g)
        delay_route = synthesize_route(g, db, FlowSpec(0, 3, qos=QOS.DEFAULT))
        bw_route = synthesize_route(g, db, FlowSpec(0, 3, qos=QOS.HIGH_BANDWIDTH))
        assert delay_route.path == (0, 1, 3)
        assert bw_route.path == (0, 2, 3)
        assert bw_route.cost == 34.0  # the bottleneck, not a sum

    def test_trivial_flow_has_infinite_width(self):
        g = wide_diamond()
        route = synthesize_route(g, open_db(g), FlowSpec(0, 0, qos=QOS.HIGH_BANDWIDTH))
        assert route.path == (0,)
        assert route.cost == float("inf")

    def test_policy_constraints_still_apply(self):
        g = wide_diamond()
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=1))  # only the narrow transit serves
        route = synthesize_route(g, db, FlowSpec(0, 3, qos=QOS.HIGH_BANDWIDTH))
        assert route.path == (0, 1, 3)
        assert route.cost == 1.5

    def test_qos_restricted_term_blocks_bandwidth_class(self):
        g = wide_diamond()
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=1))
        db.add_term(
            PolicyTerm(owner=2, qos_classes=frozenset(QOS.additive_classes()))
        )
        route = synthesize_route(g, db, FlowSpec(0, 3, qos=QOS.HIGH_BANDWIDTH))
        # AD 2 refuses the bandwidth class; only the narrow branch is legal.
        assert route.path == (0, 1, 3)

    def test_selection_criteria_respected(self):
        g = wide_diamond()
        sel = RouteSelectionPolicy(avoid_ads=frozenset({2}))
        route = synthesize_route(
            g, open_db(g), FlowSpec(0, 3, qos=QOS.HIGH_BANDWIDTH), sel
        )
        assert route.path == (0, 1, 3)

    def test_unreachable(self):
        g = wide_diamond()
        g.set_link_status(0, 1, up=False)
        g.set_link_status(0, 2, up=False)
        assert synthesize_route(
            g, open_db(g), FlowSpec(0, 3, qos=QOS.HIGH_BANDWIDTH)
        ) is None

    def test_path_metric_is_minimum(self):
        g = wide_diamond()
        assert path_metric(g, (0, 2, 3), QOS.HIGH_BANDWIDTH) == 34.0
        assert path_metric(g, (0, 2, 3), QOS.DEFAULT) == 10.0


class TestGeneratedBandwidth:
    def test_generator_attaches_bandwidth(self):
        g = generate_internet(TopologyConfig(seed=5))
        for link in g.links():
            assert link.metrics["bandwidth"] > 0

    def test_backbone_links_widest(self):
        from repro.adgraph.ad import Level

        g = generate_internet(TopologyConfig(num_backbones=3, seed=5))
        bb_links = [
            ln
            for ln in g.links()
            if g.ad(ln.a).level is Level.BACKBONE and g.ad(ln.b).level is Level.BACKBONE
        ]
        edge_links = [
            ln
            for ln in g.links()
            if Level.CAMPUS in (g.ad(ln.a).level, g.ad(ln.b).level)
            and Level.BACKBONE not in (g.ad(ln.a).level, g.ad(ln.b).level)
        ]
        assert min(ln.metric("bandwidth") for ln in bb_links) > max(
            ln.metric("bandwidth") for ln in edge_links
        )

    def test_bandwidth_stream_does_not_perturb_delay(self):
        """Adding the bandwidth metric must not have changed committed
        delay/cost draws (separate RNG stream)."""
        g = generate_internet(TopologyConfig(seed=42))
        # Spot values from the pre-bandwidth era of this repository.
        assert g.num_ads == 26 and g.num_links == 32


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000))
def test_widest_path_matches_brute_force(seed):
    """Property: synthesis finds the maximum-bottleneck legal route."""
    rng = random.Random(seed)
    g = generate_internet(
        TopologyConfig(
            num_backbones=1,
            regionals_per_backbone=2,
            campuses_per_parent=2,
            lateral_prob=0.5,
            seed=seed % 30,
        )
    )
    db = restricted_policies(g, 0.5, seed=seed).policies
    src, dst = rng.sample(g.ad_ids(), 2)
    flow = FlowSpec(src, dst, qos=QOS.HIGH_BANDWIDTH, hour=rng.randrange(24))
    expected = brute_force_widest(g, db, flow)
    route = synthesize_route(g, db, flow)
    if expected is None:
        assert route is None
    else:
        assert route is not None
        assert is_legal_path(g, db, route.path, flow)
        assert route.cost == pytest.approx(expected)


class TestProtocolIntegration:
    def test_orwg_routes_and_delivers_bandwidth_flows(self):
        from repro.protocols.orwg import ORWGProtocol

        g = wide_diamond()
        proto = ORWGProtocol(g, open_db(g))
        proto.converge()
        flow = FlowSpec(0, 3, qos=QOS.HIGH_BANDWIDTH)
        assert proto.source_route(flow) == (0, 2, 3)
        attempt = proto.open_route(flow)
        proto.network.run()
        assert attempt.established
        proto.send_data(attempt, packets=3)
        proto.network.run()
        assert proto.delivered(attempt) == 3

    def test_k_routes_ranked_widest_first(self):
        from repro.core.synthesis import k_alternative_routes

        g = wide_diamond()
        routes = k_alternative_routes(
            g, open_db(g), FlowSpec(0, 3, qos=QOS.HIGH_BANDWIDTH), k=3
        )
        widths = [r.cost for r in routes]
        assert widths == sorted(widths, reverse=True)
        assert routes[0].path == (0, 2, 3)

    def test_hierarchical_synthesizer_supports_bandwidth(self):
        from repro.core.hierarchical import HierarchicalSynthesizer
        from repro.policy.generators import hierarchical_policies

        g = generate_internet(TopologyConfig(seed=8))
        db = hierarchical_policies(g).policies
        hs = HierarchicalSynthesizer(g, db)
        stubs = [a.ad_id for a in g.stub_ads()]
        flow = FlowSpec(stubs[0], stubs[-1], qos=QOS.HIGH_BANDWIDTH)
        route = hs.route(flow)
        flat = synthesize_route(g, db, flow)
        assert (route is None) == (flat is None)
        if route is not None:
            assert is_legal_path(g, db, route.path, flow)
