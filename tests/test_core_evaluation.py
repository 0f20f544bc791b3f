"""Tests for ground-truth evaluation and availability reports."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.core.evaluation import (
    AvailabilityReport,
    evaluate_availability,
    legal_route_exists,
    sample_flows,
)
from repro.core.synthesis import synthesize_route
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.generators import restricted_policies
from repro.policy.legality import is_legal_path
from repro.policy.qos import QOS
from repro.policy.uci import UCI
from tests.helpers import diamond_graph, line_graph, open_db
from tests.oracles import nx_graph


class TestLegalRouteExists:
    def test_trivial_and_simple(self):
        g = diamond_graph()
        db = open_db(g)
        assert legal_route_exists(g, db, FlowSpec(0, 0)) is True
        assert legal_route_exists(g, db, FlowSpec(0, 3)) is True

    def test_policy_blocks_existence(self):
        g = line_graph(3)
        assert legal_route_exists(g, PolicyDatabase(), FlowSpec(0, 2)) is False

    def test_partition_blocks_existence(self):
        g = line_graph(3)
        g.set_link_status(0, 1, up=False)
        assert legal_route_exists(g, open_db(g), FlowSpec(0, 2)) is False

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_matches_brute_force(self, seed):
        """Property: existence matches exhaustive path enumeration."""
        import random

        g = generate_internet(
            TopologyConfig(
                num_backbones=1,
                regionals_per_backbone=2,
                campuses_per_parent=2,
                lateral_prob=0.4,
                seed=seed % 30,
            )
        )
        db = restricted_policies(g, 0.8, seed=seed).policies
        rng = random.Random(seed)
        src, dst = rng.sample(g.ad_ids(), 2)
        flow = FlowSpec(src, dst, hour=rng.randrange(24))
        nxg = nx_graph(g)
        expected = any(
            is_legal_path(g, db, p, flow)
            for p in nx.all_simple_paths(nxg, src, dst)
        )
        assert legal_route_exists(g, db, flow) is expected


class TestSampleFlows:
    def test_count_and_distinct_endpoints(self, gen_graph):
        flows = sample_flows(gen_graph, 25, seed=1)
        assert len(flows) == 25
        for f in flows:
            assert f.src != f.dst

    def test_stub_pool_uses_leaf_ads(self, gen_graph):
        flows = sample_flows(gen_graph, 20, seed=1)
        leaves = {a.ad_id for a in gen_graph.ads() if a.level.rank == 0}
        for f in flows:
            assert f.src in leaves and f.dst in leaves

    def test_class_choices_respected(self, gen_graph):
        flows = sample_flows(
            gen_graph,
            30,
            seed=2,
            qos_choices=[QOS.LOW_COST],
            uci_choices=[UCI.RESEARCH],
        )
        assert {f.qos for f in flows} == {QOS.LOW_COST}
        assert {f.uci for f in flows} == {UCI.RESEARCH}

    def test_deterministic(self, gen_graph):
        assert sample_flows(gen_graph, 10, seed=3) == sample_flows(
            gen_graph, 10, seed=3
        )

    def test_unknown_pool_rejected(self, gen_graph):
        with pytest.raises(ValueError):
            sample_flows(gen_graph, 5, endpoints="bogus")


class TestEvaluateAvailability:
    def test_perfect_finder_scores_one(self, gen_graph, gen_restricted):
        flows = sample_flows(gen_graph, 20, seed=4)
        finder = lambda f: synthesize_route(gen_graph, gen_restricted, f)
        report = evaluate_availability(gen_graph, gen_restricted, flows, finder)
        assert report.availability == 1.0
        assert report.n_illegal == 0
        assert report.mean_stretch == pytest.approx(1.0)

    def test_blind_finder_scores_zero(self, gen_graph, gen_restricted):
        flows = sample_flows(gen_graph, 10, seed=4)
        report = evaluate_availability(
            gen_graph, gen_restricted, flows, lambda f: None
        )
        assert report.n_found == 0
        assert report.availability == 0.0 or report.n_existing == 0

    def test_illegal_routes_counted_not_credited(self, gen_graph, gen_restricted):
        flows = sample_flows(gen_graph, 10, seed=4)

        def cheater(flow):
            # Claim a direct link regardless of reality.
            return (flow.src, flow.dst)

        report = evaluate_availability(gen_graph, gen_restricted, flows, cheater)
        assert report.n_found == 10
        assert report.n_found_legal + report.n_illegal == 10

    def test_stretch_reflects_suboptimal_finder(self):
        g = diamond_graph()
        db = open_db(g)
        flows = [FlowSpec(0, 3)]
        expensive = lambda f: (0, 2, 3)
        report = evaluate_availability(g, db, flows, expensive)
        assert report.mean_stretch == pytest.approx(10.0 / 2.0)

    def test_empty_report_defaults(self):
        report = AvailabilityReport()
        assert report.availability == 1.0
        assert report.mean_stretch == 1.0
