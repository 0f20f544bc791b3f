"""Tests for the LS / hop-by-hop / policy-terms design point."""


from repro.core.evaluation import evaluate_availability, sample_flows
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.generators import source_class_policies
from repro.policy.sets import ADSet
from repro.policy.terms import PolicyTerm
from repro.protocols.lshbh import LinkStateHopByHopProtocol
from tests.helpers import mk_graph, open_db


class TestRouting:
    def test_policy_respected(self, diamond):
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=2))  # only the expensive transit
        proto = LinkStateHopByHopProtocol(diamond, db)
        proto.converge()
        assert proto.find_route(FlowSpec(0, 3)) == (0, 2, 3)

    def test_full_availability(self, gen_graph, gen_restricted):
        proto = LinkStateHopByHopProtocol(gen_graph, gen_restricted)
        proto.converge()
        flows = sample_flows(gen_graph, 30, seed=6)
        report = evaluate_availability(
            gen_graph, gen_restricted, flows, proto.find_route
        )
        assert report.availability == 1.0
        assert report.n_illegal == 0

    def test_source_specific_routing(self):
        """Two sources get different legal routes through the same
        destination -- no single spanning tree can serve both."""
        g = mk_graph(
            [(0, "Cs"), (4, "Cs"), (1, "Rt"), (2, "Rt"), (3, "Cs")],
            [(0, 1), (0, 2), (4, 1), (4, 2), (1, 3), (2, 3)],
        )
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=1, sources=ADSet.of([0])))
        db.add_term(PolicyTerm(owner=2, sources=ADSet.of([4])))
        proto = LinkStateHopByHopProtocol(g, db)
        proto.converge()
        assert proto.find_route(FlowSpec(0, 3)) == (0, 1, 3)
        assert proto.find_route(FlowSpec(4, 3)) == (4, 2, 3)

    def test_no_loops(self, gen_graph, gen_restricted):
        proto = LinkStateHopByHopProtocol(gen_graph, gen_restricted)
        proto.converge()
        for flow in sample_flows(gen_graph, 40, seed=8):
            proto.find_route(flow)
        assert proto.forwarding_loops == 0


def burden(proto, ad_id):
    """Route computations ``ad_id`` has performed (E5's metric)."""
    return proto.network.metrics.computations.get((ad_id, "policy_route"), 0)


class TestReplicatedComputation:
    def test_every_transit_recomputes_the_source_route(self, diamond):
        proto = LinkStateHopByHopProtocol(diamond, open_db(diamond))
        proto.converge()
        flow = FlowSpec(0, 3)
        path = proto.find_route(flow)
        assert path == (0, 1, 3)
        # Both on-path ADs (source and transit) computed the same route.
        assert burden(proto, 0) == 1
        assert burden(proto, 1) == 1

    def test_burden_grows_with_flow_classes(self, gen_graph):
        """The E5 mechanism: distinct (source, class) flows each force a
        fresh route computation at every on-path transit AD."""
        scen = source_class_policies(gen_graph, 4, seed=1)
        proto = LinkStateHopByHopProtocol(gen_graph, scen.policies)
        proto.converge()
        flows = sample_flows(gen_graph, 25, seed=9)
        for flow in flows:
            proto.find_route(flow)
        burdens = [
            burden(proto, a.ad_id) for a in gen_graph.transit_ads()
        ]
        assert sum(burdens) > 0
        # Re-walking the same flows is free (cached per LSDB version).
        before = sum(burdens)
        for flow in flows:
            proto.find_route(flow)
        after = sum(
            burden(proto, a.ad_id) for a in gen_graph.transit_ads()
        )
        assert after == before

    def test_cache_invalidated_on_topology_change(self, diamond):
        proto = LinkStateHopByHopProtocol(diamond, open_db(diamond))
        proto.converge()
        flow = FlowSpec(0, 3)
        proto.find_route(flow)
        proto.network.set_link_status(1, 3, up=False)
        proto.network.run()
        assert proto.find_route(flow) == (0, 2, 3)
