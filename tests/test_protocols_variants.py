"""Tests for the four dismissed design points (Section 5.5)."""

import pytest

from repro.adgraph.partial_order import PartialOrder
from repro.core.evaluation import sample_flows
from repro.policy.flows import FlowSpec
from repro.policy.generators import hierarchical_policies
from repro.policy.selection import RouteSelectionPolicy
from repro.protocols.variants import (
    DVSourceTermsProtocol,
    DVSourceTopologyProtocol,
    LSHbHTopologyProtocol,
    LSSourceTopologyProtocol,
    ValleyFreeSearch,
)


def valley_free_path(graph, order, src, dst):
    """One destination asked of a fresh search."""
    return ValleyFreeSearch(graph, order, src).path_to(dst)


class TestValleyFreeDijkstra:
    def test_simple_hierarchy_path(self, hierarchy):
        order = PartialOrder.from_hierarchy(hierarchy)
        path = valley_free_path(hierarchy, order, 3, 5)
        assert path is not None
        assert order.path_is_valid(path)
        assert path[0] == 3 and path[-1] == 5

    def test_trivial(self, hierarchy):
        order = PartialOrder.from_hierarchy(hierarchy)
        assert valley_free_path(hierarchy, order, 3, 3) == (3,)

    def test_result_is_simple_path(self, gen_graph):
        order = PartialOrder.from_hierarchy(gen_graph)
        ids = gen_graph.ad_ids()
        for src in ids[::4]:
            search = ValleyFreeSearch(gen_graph, order, src)
            for dst in ids[::5]:
                if src == dst:
                    continue
                path = search.path_to(dst)
                if path is not None:
                    assert len(set(path)) == len(path)
                    assert order.path_is_valid(path)

    def test_unreachable_when_valley_required(self, hierarchy):
        """If the only physical connection would require a valley, the
        search correctly returns None."""
        order = PartialOrder.from_hierarchy(hierarchy)
        hierarchy.set_link_status(0, 1, up=False)
        hierarchy.set_link_status(1, 2, up=False)
        # 4 now reaches the world only via 1; 1 reaches 0 only through
        # 3's bypass (1->3 down, 3->0 up): a valley.  No valid path.
        assert valley_free_path(hierarchy, order, 4, 5) is None


class TestLSTopologyVariants:
    @pytest.mark.parametrize(
        "cls", [LSHbHTopologyProtocol, LSSourceTopologyProtocol]
    )
    def test_routes_valley_free(self, cls, gen_graph, gen_policies):
        proto = cls(gen_graph, gen_policies)
        proto.converge()
        for flow in sample_flows(gen_graph, 20, seed=3):
            path = proto.find_route(flow)
            if path is not None and len(path) > 1:
                assert proto.order.path_is_valid(path)

    def test_hbh_and_source_agree(self, gen_graph, gen_policies):
        """Both variants compute the same valley-free route; only the
        decision location differs."""
        hbh = LSHbHTopologyProtocol(gen_graph.copy(), gen_policies)
        src = LSSourceTopologyProtocol(gen_graph.copy(), gen_policies)
        hbh.converge()
        src.converge()
        for flow in sample_flows(gen_graph, 15, seed=4):
            assert hbh.find_route(flow) == src.find_route(flow)

    def test_source_variant_honours_selection(self, gen_graph, gen_policies):
        proto = LSSourceTopologyProtocol(gen_graph, gen_policies)
        proto.converge()
        flows = sample_flows(gen_graph, 10, seed=5)
        flow = next(
            f
            for f in flows
            if (p := proto.find_route(f)) is not None and len(p) > 2
        )
        # A one-hop budget cannot fit the multi-hop route: the source
        # rejects it rather than forwarding blind.
        sel = RouteSelectionPolicy(max_hops=1)
        assert proto.source_route(flow, sel) is None


class TestDVSourceVariants:
    def test_pv_src_source_routes_from_path_vector(self, hierarchy):
        db = hierarchical_policies(hierarchy).policies
        proto = DVSourceTermsProtocol(hierarchy, db)
        proto.converge()
        path = proto.find_route(FlowSpec(3, 4))
        assert path == (3, 1, 4)

    def test_pv_src_rejects_route_violating_selection(self, hierarchy):
        db = hierarchical_policies(hierarchy).policies
        proto = DVSourceTermsProtocol(hierarchy, db)
        proto.converge()
        sel = RouteSelectionPolicy(avoid_ads=frozenset({1}))
        # The advertised route to 4 goes through 1; the source can reject
        # it (source routing) but has no alternative (path vector):
        # exactly the "little advantage" of Section 5.5.2.
        assert proto.source_route(FlowSpec(3, 4), sel) is None

    def test_topo_vector_paths_valley_free(self, gen_graph, gen_policies):
        proto = DVSourceTopologyProtocol(gen_graph, gen_policies)
        proto.converge()
        for flow in sample_flows(gen_graph, 20, seed=6):
            path = proto.find_route(flow)
            if path is not None and len(path) > 1:
                assert proto.order.path_is_valid(path)
                assert len(set(path)) == len(path)

    def test_topo_vector_stubs_never_transit(self, gen_graph, gen_policies):
        proto = DVSourceTopologyProtocol(gen_graph, gen_policies)
        proto.converge()
        for flow in sample_flows(gen_graph, 20, seed=7):
            path = proto.find_route(flow)
            if path is not None:
                for transit in path[1:-1]:
                    assert gen_graph.ad(transit).kind.may_transit
