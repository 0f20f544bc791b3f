"""Tests for the policy scenario generators."""

import pytest

from repro.adgraph.ad import ADKind, Level
from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.policy.flows import FlowSpec
from repro.policy.generators import (
    customer_cone,
    hierarchical_policies,
    open_policies,
    restricted_policies,
    source_class_members,
    source_class_of,
    source_class_policies,
)
from tests.helpers import ads_of_kind, term_is_open


@pytest.fixture
def graph():
    return generate_internet(TopologyConfig(seed=4, hybrid_fraction=0.4))


class TestCustomerCone:
    def test_cone_of_regional_includes_campuses(self, hierarchy):
        cone = customer_cone(hierarchy, 1)
        assert cone == {1, 3, 4}

    def test_cone_of_stub_is_itself(self, hierarchy):
        assert customer_cone(hierarchy, 3) == {3}

    def test_cone_of_backbone_covers_hierarchy(self, hierarchy):
        cone = customer_cone(hierarchy, 0)
        # Everything reachable downward through hierarchical links.
        assert cone == {0, 1, 2, 3, 4, 5, 6}

    def test_cone_ignores_lateral_and_bypass(self, hierarchy):
        # 1-2 lateral and 3-0 bypass must not extend cones sideways/upward.
        assert 2 not in customer_cone(hierarchy, 1)
        assert 0 not in customer_cone(hierarchy, 3)


class TestOpenPolicies:
    def test_every_transit_capable_ad_has_open_term(self, graph):
        db = open_policies(graph).policies
        for ad in graph.transit_ads():
            terms = db.terms_of(ad.ad_id)
            assert len(terms) == 1 and term_is_open(terms[0])
        for ad in graph.stub_ads():
            assert db.terms_of(ad.ad_id) == ()


class TestHierarchicalPolicies:
    def test_pure_transit_open(self, graph):
        db = hierarchical_policies(graph).policies
        for ad in ads_of_kind(graph, ADKind.TRANSIT):
            assert any(term_is_open(t) for t in db.terms_of(ad.ad_id))

    def test_hybrid_limited_to_cone(self, graph):
        db = hierarchical_policies(graph).policies
        hybrids = ads_of_kind(graph, ADKind.HYBRID)
        assert hybrids, "fixture must contain hybrid ADs"
        for ad in hybrids:
            cone = customer_cone(graph, ad.ad_id)
            outside = next(
                a for a in graph.ad_ids() if a not in cone
            )
            inside_flow = FlowSpec(src=min(cone), dst=outside)
            outside_flow = FlowSpec(src=outside, dst=outside)
            nbrs = graph.neighbors(ad.ad_id, include_down=True)
            if len(nbrs) < 2:
                continue
            prev, nxt = nbrs[0], nbrs[1]
            assert db.transit_permits(ad.ad_id, inside_flow, prev, nxt)
            assert not db.transit_permits(ad.ad_id, outside_flow, prev, nxt)

    def test_stubs_have_no_terms(self, graph):
        db = hierarchical_policies(graph).policies
        for ad in graph.stub_ads():
            assert db.terms_of(ad.ad_id) == ()


class TestRestrictedPolicies:
    def test_zero_restrictiveness_equals_hierarchical(self, graph):
        base = hierarchical_policies(graph).policies
        restricted = restricted_policies(graph, 0.0, seed=1).policies
        assert base.num_terms == restricted.num_terms
        for b, r in zip(base.all_terms(), restricted.all_terms()):
            assert b.owner == r.owner
            assert term_is_open(b) == term_is_open(r)

    def test_restrictions_narrow_terms(self, graph):
        base = hierarchical_policies(graph).policies
        tight = restricted_policies(graph, 1.0, seed=1).policies
        open_before = sum(term_is_open(t) for t in base.all_terms())
        open_after = sum(term_is_open(t) for t in tight.all_terms())
        assert open_after < open_before

    def test_invalid_restrictiveness(self, graph):
        with pytest.raises(ValueError):
            restricted_policies(graph, 1.5)

    def test_deterministic(self, graph):
        a = restricted_policies(graph, 0.5, seed=3).policies
        b = restricted_policies(graph, 0.5, seed=3).policies
        assert a.all_terms() == b.all_terms()


class TestSourceClassPolicies:
    def test_class_partition(self, graph):
        n = 4
        members = [source_class_members(graph, n, c) for c in range(n)]
        all_ids = set().union(*members)
        assert all_ids == set(graph.ad_ids())
        for i in range(n):
            for j in range(i + 1, n):
                assert not (members[i] & members[j])

    def test_class_of_is_stable(self):
        assert source_class_of(10, 4) == source_class_of(10, 4) == 2

    def test_term_count_scales_with_classes(self, graph):
        few = source_class_policies(graph, 2, seed=1).policies
        many = source_class_policies(graph, 8, seed=1).policies
        assert many.num_terms > few.num_terms

    def test_backbones_serve_every_class(self, graph):
        db = source_class_policies(graph, 6, refusal_prob=0.9, seed=2).policies
        for ad in graph.ads_by_level(Level.BACKBONE):
            assert len(db.terms_of(ad.ad_id)) == 6

    def test_invalid_args(self, graph):
        with pytest.raises(ValueError):
            source_class_policies(graph, 0)
        with pytest.raises(ValueError):
            source_class_policies(graph, 2, refusal_prob=2.0)
        with pytest.raises(ValueError):
            source_class_of(1, 0)
