"""Unit tests for InterADGraph."""

import pytest

from repro.adgraph.ad import AD, ADKind, Level, LinkKind
from repro.adgraph.graph import InterADGraph
from tests.helpers import mk_graph
from tests.oracles import nx_graph


class TestNodeManagement:
    def test_add_and_lookup(self):
        g = InterADGraph()
        ad = g.add_ad(AD(1, "x", Level.CAMPUS, ADKind.STUB))
        assert g.ad(1) is ad
        assert g.has_ad(1)
        assert 1 in g
        assert g.num_ads == 1

    def test_duplicate_ad_rejected(self):
        g = InterADGraph()
        g.add_ad(AD(1, "x", Level.CAMPUS, ADKind.STUB))
        with pytest.raises(ValueError):
            g.add_ad(AD(1, "y", Level.CAMPUS, ADKind.STUB))

    def test_ads_sorted_by_id(self):
        g = mk_graph([(3, "Cs"), (1, "Bt"), (2, "Rt")], [])
        assert [a.ad_id for a in g.ads()] == [1, 2, 3]
        assert g.ad_ids() == [1, 2, 3]

    def test_kind_filters(self, hierarchy):
        transit_ids = {a.ad_id for a in hierarchy.transit_ads()}
        stub_ids = {a.ad_id for a in hierarchy.stub_ads()}
        assert transit_ids == {0, 1, 2}
        assert stub_ids == {3, 4, 5, 6}
        assert transit_ids | stub_ids == set(hierarchy.ad_ids())


class TestLinkManagement:
    def test_link_requires_known_endpoints(self):
        g = mk_graph([(1, "Cs")], [])
        with pytest.raises(ValueError):
            g.connect(1, 99)

    def test_duplicate_link_rejected(self):
        g = mk_graph([(1, "Cs"), (2, "Cs")], [(1, 2)])
        with pytest.raises(ValueError):
            g.connect(2, 1)

    def test_link_lookup_order_insensitive(self):
        g = mk_graph([(1, "Cs"), (2, "Cs")], [(1, 2)])
        assert g.link(1, 2) is g.link(2, 1)
        assert g.has_link(2, 1)

    def test_neighbors_exclude_down_links(self):
        g = mk_graph([(1, "Rt"), (2, "Rt"), (3, "Rt")], [(1, 2), (1, 3)])
        assert g.neighbors(1) == [2, 3]
        g.set_link_status(1, 2, up=False)
        assert g.neighbors(1) == [3]
        assert g.neighbors(1, include_down=True) == [2, 3]
        assert g.degree(1) == 1

    def test_links_filtering(self):
        g = mk_graph([(1, "Rt"), (2, "Rt"), (3, "Rt")], [(1, 2), (2, 3)])
        g.set_link_status(1, 2, up=False)
        assert len(g.links()) == 2
        assert len(g.links(include_down=False)) == 1


class TestAnalysis:
    def test_connectivity(self, hierarchy):
        assert hierarchy.is_connected()
        g = mk_graph([(1, "Cs"), (2, "Cs")], [])
        assert not g.is_connected()

    def test_connectivity_respects_down_links(self):
        g = mk_graph([(1, "Cs"), (2, "Cs")], [(1, 2)])
        assert g.is_connected()
        g.set_link_status(1, 2, up=False)
        assert not g.is_connected(live_only=True)
        assert g.is_connected(live_only=False)

    def test_histograms(self, hierarchy):
        levels = hierarchy.level_counts()
        assert levels[Level.BACKBONE] == 1
        assert levels[Level.REGIONAL] == 2
        assert levels[Level.CAMPUS] == 4
        kinds = hierarchy.kind_counts()
        assert kinds[ADKind.STUB] == 4
        links = hierarchy.link_kind_counts()
        assert links[LinkKind.BYPASS] == 1
        assert links[LinkKind.LATERAL] == 1

    def test_nx_export_carries_metrics(self, diamond):
        g = nx_graph(diamond)
        assert g[0][1]["delay"] == 1.0
        assert g[0][2]["delay"] == 5.0

    def test_copy_is_independent(self, diamond):
        clone = diamond.copy()
        clone.set_link_status(0, 1, up=False)
        assert diamond.link(0, 1).up
        assert not clone.link(0, 1).up
        assert clone.num_ads == diamond.num_ads
        assert clone.num_links == diamond.num_links

    def test_empty_graph_is_connected(self):
        assert InterADGraph().is_connected()
