"""Tests for the Section 5.2/Section 6 extensions: multi-route IDRP,
tree-scoped flooding, and bounded PG caches."""

import pytest

from repro.adgraph.trees import spanning_tree_links
from repro.core.evaluation import evaluate_availability, sample_flows
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.generators import source_class_policies
from repro.policy.sets import ADSet
from repro.policy.terms import PolicyTerm
from repro.protocols.idrp import IDRPProtocol
from repro.protocols.orwg import ORWGProtocol
from repro.protocols.orwg.gateway import PolicyGatewayCache
from repro.protocols.orwg.messages import Handle
from tests.helpers import line_graph, mk_graph, open_db


class TestSpanningTreeLinks:
    def test_tree_size_and_connectivity(self, hierarchy):
        tree = spanning_tree_links(hierarchy)
        assert len(tree) == hierarchy.num_ads - 1
        # Every tree key is a real link.
        for a, b in tree:
            assert hierarchy.has_link(a, b)

    def test_deterministic(self, gen_graph):
        assert spanning_tree_links(gen_graph) == spanning_tree_links(gen_graph)

    def test_forest_on_disconnected_graph(self):
        g = mk_graph([(0, "Cs"), (1, "Cs"), (2, "Cs")], [(0, 1)])
        assert spanning_tree_links(g) == frozenset({(0, 1)})


class TestMultiRouteIDRP:
    @staticmethod
    def _scenario():
        """The Section 5.2 starvation scenario from test_protocols_idrp:
        source 4 starves under single-route IDRP."""
        g = mk_graph(
            [(0, "Cs"), (4, "Cs"), (1, "Rt"), (2, "Rt"), (3, "Cs")],
            [(0, 1), (0, 2), (4, 1), (4, 2), (1, 3), (2, 3)],
            metrics={
                (0, 1): {"delay": 1.0},
                (1, 3): {"delay": 1.0},
                (0, 2): {"delay": 5.0},
                (2, 3): {"delay": 5.0},
                (4, 1): {"delay": 1.0},
                (4, 2): {"delay": 5.0},
            },
        )
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=1, sources=ADSet.of([0])))
        db.add_term(PolicyTerm(owner=2))
        return g, db

    def test_multiple_classes_rescue_starved_source(self):
        g, db = self._scenario()
        single = IDRPProtocol(g.copy(), db.copy(), route_classes=1)
        single.converge()
        assert single.find_route(FlowSpec(4, 3)) is None  # starved

        multi = IDRPProtocol(g.copy(), db.copy(), route_classes=2)
        multi.converge()
        # ADs 0 (class 0) and 4 (class 0)?  class = ad_id % 2: 0->0, 4->0.
        # Both sources share a class here; use 5 classes so they split.
        multi5 = IDRPProtocol(g.copy(), db.copy(), route_classes=5)
        multi5.converge()
        path = multi5.find_route(FlowSpec(4, 3))
        assert path == (4, 2, 3)
        assert multi5.find_route(FlowSpec(0, 3)) == (0, 1, 3)

    def test_rib_replication_cost(self):
        """The paper's cost: tables replicate per class."""
        g, db = self._scenario()
        single = IDRPProtocol(g.copy(), db.copy(), route_classes=1)
        multi = IDRPProtocol(g.copy(), db.copy(), route_classes=4)
        single.converge()
        multi.converge()
        assert multi.total_rib_size() > 2 * single.total_rib_size()

    def test_availability_recovers_with_classes(self, gen_graph):
        scen = source_class_policies(gen_graph, 6, refusal_prob=0.3, seed=5)
        flows = sample_flows(gen_graph, 30, seed=6)
        availability = {}
        for classes in (1, 6):
            proto = IDRPProtocol(
                gen_graph.copy(), scen.policies.copy(), route_classes=classes
            )
            proto.converge()
            rep = evaluate_availability(
                proto.graph, proto.policies, flows, proto.find_route
            )
            availability[classes] = rep.availability
            assert rep.n_illegal == 0
        assert availability[6] >= availability[1]

    def test_invalid_route_classes(self, gen_graph, gen_policies):
        with pytest.raises(ValueError):
            IDRPProtocol(gen_graph, gen_policies, route_classes=0)


class TestTreeFlooding:
    def test_initial_convergence_cheaper(self, gen_graph, gen_policies):
        full = ORWGProtocol(gen_graph.copy(), gen_policies.copy(), flooding="full")
        tree = ORWGProtocol(gen_graph.copy(), gen_policies.copy(), flooding="tree")
        full_res = full.converge()
        tree_res = tree.converge()
        assert tree_res.messages < full_res.messages

    def test_lsdbs_still_synchronised(self, gen_graph, gen_policies):
        proto = ORWGProtocol(gen_graph, gen_policies, flooding="tree")
        proto.converge()
        dbs = [proto.network.node(a).lsdb for a in gen_graph.ad_ids()]
        for db in dbs[1:]:
            assert db == dbs[0]

    def test_tree_link_failure_desynchronises(self, gen_graph, gen_policies):
        """The robustness cost: a failed tree link silences the flood
        across the cut even though physical connectivity remains."""
        proto = ORWGProtocol(gen_graph, gen_policies, flooding="tree")
        proto.converge()
        tree = spanning_tree_links(proto.graph)
        # Pick a tree link whose removal keeps the graph connected.
        from repro.faults.plan import safe_failure_candidates

        candidates = [k for k in safe_failure_candidates(proto.graph) if k in tree]
        if not candidates:
            pytest.skip("no redundant tree link in this topology")
        a, b = candidates[0]
        proto.network.set_link_status(a, b, up=False)
        proto.network.run()
        versions = {
            ad: proto.network.node(ad).lsdb.get(a)
            for ad in proto.graph.ad_ids()
        }
        seqs = {lsa.seq for lsa in versions.values() if lsa is not None}
        # At least two different views of AD a's LSA persist: stale ones
        # behind the cut, fresh ones near it.
        assert len(seqs) > 1

    def test_unknown_strategy_rejected(self, gen_graph, gen_policies):
        with pytest.raises(ValueError):
            ORWGProtocol(gen_graph, gen_policies, flooding="gossip")


class TestBoundedPGCache:
    def test_limit_validated(self):
        with pytest.raises(ValueError):
            PolicyGatewayCache(1, limit=0)

    def test_lru_eviction(self):
        from repro.protocols.orwg.gateway import PGCacheEntry

        cache = PolicyGatewayCache(1, limit=2)
        entries = {}
        for i in range(3):
            h = Handle(0, i)
            entries[i] = PGCacheEntry(
                flow=FlowSpec(0, 9), prev=0, next=9, term_ref=None, policy_version=0
            )
            cache.install(h, entries[i])
        assert cache.size == 2
        assert cache.evictions == 1
        assert cache.lookup(Handle(0, 0)) is None  # oldest evicted
        assert cache.lookup(Handle(0, 2)) is not None

    def test_lookup_refreshes_recency(self):
        from repro.protocols.orwg.gateway import PGCacheEntry

        cache = PolicyGatewayCache(1, limit=2)
        mk = lambda: PGCacheEntry(
            flow=FlowSpec(0, 9), prev=0, next=9, term_ref=None, policy_version=0
        )
        cache.install(Handle(0, 0), mk())
        cache.install(Handle(0, 1), mk())
        cache.lookup(Handle(0, 0))  # refresh 0
        cache.install(Handle(0, 2), mk())  # evicts 1, not 0
        assert cache.lookup(Handle(0, 0)) is not None
        assert cache.lookup(Handle(0, 1)) is None

    def test_small_cache_drops_excess_routes(self):
        """Transit PGs with tiny caches lose handles under concurrency;
        evicted routes stop delivering."""
        g = line_graph(3)
        limited = ORWGProtocol(g, open_db(g), pg_cache_limit=2)
        limited.converge()
        attempts = [limited.open_route(FlowSpec(0, 2)) for _ in range(5)]
        limited.network.run()
        assert all(a.established for a in attempts)
        for a in attempts:
            limited.send_data(a, packets=1)
        limited.network.run()
        delivered = sum(limited.delivered(a) for a in attempts)
        assert delivered < 5
        transit = limited.network.node(1)
        assert transit.pg.evictions > 0

    def test_unlimited_cache_keeps_everything(self):
        g = line_graph(3)
        proto = ORWGProtocol(g, open_db(g))
        proto.converge()
        attempts = [proto.open_route(FlowSpec(0, 2)) for _ in range(5)]
        proto.network.run()
        for a in attempts:
            proto.send_data(a, packets=1)
        proto.network.run()
        assert sum(proto.delivered(a) for a in attempts) == 5


class TestRouteTTL:
    def test_expired_route_rejected_and_refreshable(self):
        g = line_graph(3)
        proto = ORWGProtocol(g, open_db(g), route_ttl=50.0)
        proto.converge()
        attempt = proto.open_route(FlowSpec(0, 2))
        proto.network.run()
        assert attempt.established
        # Within the lifetime: packets flow.
        proto.send_data(attempt, packets=2)
        proto.network.run()
        assert proto.delivered(attempt) == 2
        # Push simulated time past the lifetime with an idle marker event.
        proto.network.sim.schedule(100.0, lambda: None)
        proto.network.run()
        proto.send_data(attempt, packets=1)
        proto.network.run()
        assert proto.delivered(attempt) == 2  # expired at the transit PG
        assert attempt.state == "failed"
        assert "expired" in attempt.reason
        # A refresh setup restores service.
        retry = proto.open_route(FlowSpec(0, 2))
        proto.network.run()
        assert retry.established
        proto.send_data(retry, packets=1)
        proto.network.run()
        assert proto.delivered(retry) == 1

    def test_no_ttl_means_immortal(self):
        g = line_graph(3)
        proto = ORWGProtocol(g, open_db(g))
        proto.converge()
        attempt = proto.open_route(FlowSpec(0, 2))
        proto.network.run()
        proto.network.sim.schedule(1_000_000.0, lambda: None)
        proto.network.run()
        proto.send_data(attempt, packets=1)
        proto.network.run()
        assert proto.delivered(attempt) == 1

    def test_invalid_ttl_rejected(self):
        g = line_graph(3)
        with pytest.raises(ValueError):
            ORWGProtocol(g, open_db(g), route_ttl=0.0)


class TestHierarchicalRouteServer:
    def test_same_availability_as_flat(self, gen_graph, gen_restricted):
        from repro.core.evaluation import evaluate_availability, sample_flows

        flat = ORWGProtocol(gen_graph.copy(), gen_restricted.copy())
        hier = ORWGProtocol(
            gen_graph.copy(), gen_restricted.copy(), synthesis="hierarchical"
        )
        flat.converge()
        hier.converge()
        flows = sample_flows(gen_graph, 25, seed=44)
        flat_rep = evaluate_availability(
            flat.graph, flat.policies, flows, flat.find_route
        )
        hier_rep = evaluate_availability(
            hier.graph, hier.policies, flows, hier.find_route
        )
        assert hier_rep.availability == flat_rep.availability == 1.0
        assert hier_rep.n_illegal == 0

    def test_hierarchical_server_prunes_search(self, gen_graph, gen_restricted):
        from repro.core.evaluation import sample_flows

        hier = ORWGProtocol(
            gen_graph, gen_restricted, synthesis="hierarchical"
        )
        hier.converge()
        flows = [
            f
            for f in sample_flows(gen_graph, 25, seed=45)
            if hier.find_route(f) is not None
        ]
        node = hier.network.node(flows[0].src)
        server = node.hierarchical_server()
        assert server.stats.requests > 0
        assert server.stats.hit_ratio > 0.5

    def test_setup_works_with_hierarchical_routes(self, gen_graph, gen_restricted):
        from repro.core.evaluation import sample_flows

        proto = ORWGProtocol(
            gen_graph, gen_restricted, synthesis="hierarchical"
        )
        proto.converge()
        flow = next(
            f
            for f in sample_flows(gen_graph, 20, seed=46)
            if proto.find_route(f) is not None
        )
        attempt = proto.open_route(flow)
        proto.network.run()
        assert attempt.established
        proto.send_data(attempt, packets=2)
        proto.network.run()
        assert proto.delivered(attempt) == 2

    def test_unknown_synthesis_rejected(self, gen_graph, gen_policies):
        with pytest.raises(ValueError):
            ORWGProtocol(gen_graph, gen_policies, synthesis="magic")

    def test_levels_flooded_for_partitioning(self, gen_graph, gen_policies):
        proto = ORWGProtocol(gen_graph, gen_policies)
        proto.converge()
        node = proto.network.node(gen_graph.ad_ids()[0])
        view, _ = node.local_view()
        for ad_id in gen_graph.ad_ids():
            assert view.ad(ad_id).level == gen_graph.ad(ad_id).level
