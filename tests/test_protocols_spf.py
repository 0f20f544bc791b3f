"""Tests for the plain link-state SPF baseline."""


from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.protocols.spf import PlainLinkStateProtocol
from tests.helpers import line_graph
from tests.oracles import spf_next_hops


class TestSpfNextHops:
    def test_shortest_paths_on_diamond(self, diamond):
        table = spf_next_hops(diamond, 0, "delay")
        assert table[3] == 1  # via the cheap branch
        assert table[1] == 1
        assert table[2] == 2

    def test_respects_metric_choice(self, diamond):
        # Under "cost" all links weigh 1; 0->3 ties at 2 hops either way.
        table = spf_next_hops(diamond, 0, "cost")
        assert table[3] in {1, 2}

    def test_skips_down_links(self, diamond):
        diamond.set_link_status(0, 1, up=False)
        table = spf_next_hops(diamond, 0, "delay")
        assert table[3] == 2
        assert 1 in table  # still reachable the long way: 0-2-3-1
        assert table[1] == 2

    def test_unreachable_omitted(self):
        g = line_graph(3)
        g.set_link_status(1, 2, up=False)
        table = spf_next_hops(g, 0, "delay")
        assert 2 not in table

    def test_deterministic_on_ties(self, diamond):
        t1 = spf_next_hops(diamond, 0, "cost")
        t2 = spf_next_hops(diamond, 0, "cost")
        assert t1 == t2


class TestProtocol:
    def test_end_to_end_routing(self, diamond):
        proto = PlainLinkStateProtocol(diamond, PolicyDatabase())
        proto.converge()
        assert proto.find_route(FlowSpec(0, 3)) == (0, 1, 3)

    def test_consistent_hop_by_hop_no_loops(self, gen_graph):
        proto = PlainLinkStateProtocol(gen_graph, PolicyDatabase())
        proto.converge()
        ids = gen_graph.ad_ids()
        for src in ids[::5]:
            for dst in ids[::7]:
                if src != dst:
                    assert proto.find_route(FlowSpec(src, dst)) is not None
        assert proto.forwarding_loops == 0

    def test_reroutes_after_failure(self, diamond):
        proto = PlainLinkStateProtocol(diamond, PolicyDatabase())
        proto.converge()
        proto.network.set_link_status(1, 3, up=False)
        proto.network.run()
        assert proto.find_route(FlowSpec(0, 3)) == (0, 2, 3)

    def test_per_qos_tables_cached(self, diamond):
        proto = PlainLinkStateProtocol(diamond, PolicyDatabase())
        proto.converge()
        proto.find_route(FlowSpec(0, 3, qos=QOS.DEFAULT))
        proto.find_route(FlowSpec(0, 3, qos=QOS.DEFAULT))
        spf_runs = proto.network.metrics.computations.get((0, "spf"), 0)
        assert spf_runs == 1  # second lookup served from cache

    def test_rib_size_is_lsdb(self, diamond):
        proto = PlainLinkStateProtocol(diamond, PolicyDatabase())
        proto.converge()
        assert proto.rib_size(0) == diamond.num_ads
