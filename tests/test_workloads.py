"""Tests for traffic matrices, request sequences, and scenarios."""

import pytest

from repro.workloads.scenarios import (
    reference_scenario,
    scaled_scenario,
    small_scenario,
)
from repro.traffic.workload import (
    TrafficMatrix,
    gravity_traffic,
    request_sequence,
    uniform_traffic,
)
from repro.policy.flows import FlowSpec


class TestTrafficMatrices:
    def test_uniform_basics(self, gen_graph):
        tm = uniform_traffic(gen_graph, 30, seed=1)
        assert len(tm) == 30
        assert tm.total_weight == 30.0
        for flow in tm.flows:
            assert flow.src != flow.dst

    def test_uniform_deterministic(self, gen_graph):
        a = uniform_traffic(gen_graph, 10, seed=2)
        b = uniform_traffic(gen_graph, 10, seed=2)
        assert a.entries == b.entries

    def test_gravity_weights_scale_with_degree(self, gen_graph):
        tm = gravity_traffic(gen_graph, 50, seed=3)
        for flow, weight in tm.entries:
            expected = max(1, gen_graph.degree(flow.src)) * max(
                1, gen_graph.degree(flow.dst)
            )
            assert weight == float(expected)

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            TrafficMatrix(((FlowSpec(1, 2), 0.0),))


class TestRequestSequence:
    def test_zipf_concentrates_requests(self, gen_graph):
        tm = uniform_traffic(gen_graph, 50, seed=4)
        flat = request_sequence(tm, 500, zipf_s=0.0, seed=5)
        skewed = request_sequence(tm, 500, zipf_s=2.0, seed=5)

        def top_share(seq):
            from collections import Counter

            counts = Counter(seq)
            return max(counts.values()) / len(seq)

        assert top_share(skewed) > top_share(flat)

    def test_length_and_membership(self, gen_graph):
        tm = uniform_traffic(gen_graph, 10, seed=6)
        seq = request_sequence(tm, 100, seed=7)
        assert len(seq) == 100
        population = set(tm.flows)
        assert all(f in population for f in seq)

    def test_validation(self, gen_graph):
        tm = uniform_traffic(gen_graph, 5, seed=8)
        with pytest.raises(ValueError):
            request_sequence(tm, -1)
        with pytest.raises(ValueError):
            request_sequence(tm, 5, zipf_s=-1.0)
        assert request_sequence(TrafficMatrix(()), 5) == []


class TestScenarios:
    def test_reference_scenario_shape(self):
        s = reference_scenario()
        assert 50 <= s.graph.num_ads <= 80
        assert len(s.flows) == 60
        assert s.policies.num_terms > 0
        assert s.graph.is_connected()

    def test_small_scenario(self):
        s = small_scenario()
        assert s.graph.num_ads <= 30

    def test_scaled_scenario_tracks_target(self):
        s = scaled_scenario(150, seed=1)
        assert 75 <= s.graph.num_ads <= 300

    def test_deterministic(self):
        a = reference_scenario(seed=5)
        b = reference_scenario(seed=5)
        assert a.graph.ad_ids() == b.graph.ad_ids()
        assert a.flows == b.flows
        assert a.policies.num_terms == b.policies.num_terms
