"""Tests for the link-state flooding substrate."""


from repro.policy.database import PolicyDatabase
from repro.policy.terms import PolicyTerm
from repro.protocols.flooding import LSDBGenerations, LSNode
from repro.simul.network import SimNetwork
from tests.helpers import line_graph, mk_graph, open_db


def build_ls_network(graph, policies=None, include_terms=True):
    policies = policies or PolicyDatabase()
    net = SimNetwork(graph)
    generations = LSDBGenerations()
    for ad_id in graph.ad_ids():
        net.add_node(
            LSNode(
                ad_id,
                own_terms=policies.terms_of(ad_id),
                include_terms=include_terms,
                generations=generations,
            )
        )
    net.start()
    net.run()
    return net


class TestFloodingSync:
    def test_all_nodes_share_identical_lsdb(self, hierarchy):
        net = build_ls_network(hierarchy)
        dbs = [net.node(a).lsdb for a in hierarchy.ad_ids()]
        reference = dbs[0]
        assert set(reference) == set(hierarchy.ad_ids())
        for db in dbs[1:]:
            assert db == reference

    def test_duplicate_lsas_not_reflooded(self):
        g = line_graph(3)
        net = build_ls_network(g)
        before = net.metrics.messages.get("LinkStateAd", 0)
        # Re-delivering an already-known LSA must not cascade.
        lsa = net.node(0).lsdb[2]
        net.node(0).on_message(1, lsa)
        net.run()
        after = net.metrics.messages.get("LinkStateAd", 0)
        assert after == before

    def test_terms_flooded_when_enabled(self, hierarchy):
        db = open_db(hierarchy)
        net = build_ls_network(hierarchy, db)
        _, policies = net.node(3).local_view()
        assert policies.num_terms == db.num_terms

    def test_terms_omitted_when_disabled(self, hierarchy):
        db = open_db(hierarchy)
        net = build_ls_network(hierarchy, db, include_terms=False)
        _, policies = net.node(3).local_view()
        assert policies.num_terms == 0

    def test_term_citations_survive_flooding(self, hierarchy):
        """Term ids reconstructed from LSAs must match the originals, or
        ORWG setup citations would dangle."""
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=1, charge=1.0))
        db.add_term(PolicyTerm(owner=1, charge=2.0))
        net = build_ls_network(hierarchy, db)
        _, view = net.node(5).local_view()
        assert view.term(1, 0).charge == 1.0
        assert view.term(1, 1).charge == 2.0


class TestLocalView:
    def test_view_matches_topology(self, hierarchy):
        net = build_ls_network(hierarchy)
        graph, _ = net.node(0).local_view()
        assert set(graph.ad_ids()) == set(hierarchy.ad_ids())
        for link in hierarchy.links():
            assert graph.has_link(link.a, link.b)
            assert graph.link(link.a, link.b).metric("delay") == link.metric("delay")

    def test_view_cached_until_change(self, hierarchy):
        net = build_ls_network(hierarchy)
        node = net.node(0)
        g1, p1 = node.local_view()
        g2, p2 = node.local_view()
        assert g1 is g2 and p1 is p2

    def test_link_believed_up_only_if_both_endpoints_agree(self):
        g = line_graph(3)
        net = build_ls_network(g)
        node0 = net.node(0)
        # Forge: node 1 re-originates claiming 1-2 down, node 2 silent.
        g.set_link_status(1, 2, up=False)
        net.node(1).originate()
        net.run()
        graph, _ = node0.local_view()
        assert not graph.link(1, 2).up


class TestDynamics:
    def test_failure_reflooded_and_views_updated(self, hierarchy):
        net = build_ls_network(hierarchy)
        net.set_link_status(0, 1, up=False)
        net.run()
        for ad_id in hierarchy.ad_ids():
            graph, _ = net.node(ad_id).local_view()
            assert not graph.link(0, 1).up

    def test_repair_and_database_exchange(self, hierarchy):
        net = build_ls_network(hierarchy)
        net.set_link_status(0, 1, up=False)
        net.run()
        net.set_link_status(0, 1, up=True)
        net.run()
        for ad_id in hierarchy.ad_ids():
            graph, _ = net.node(ad_id).local_view()
            assert graph.link(0, 1).up

    def test_partition_heals_after_repair(self):
        """Changes made during a partition propagate once it heals."""
        g = mk_graph(
            [(0, "Rt"), (1, "Rt"), (2, "Rt"), (3, "Rt")],
            [(0, 1), (1, 2), (2, 3)],
        )
        net = build_ls_network(g)
        net.set_link_status(1, 2, up=False)
        net.run()
        # During the partition, fail 2-3 too: side {0,1} can't know.
        net.set_link_status(2, 3, up=False)
        net.run()
        g01_view, _ = net.node(0).local_view()
        assert g01_view.link(2, 3).up  # stale, as expected
        # Heal the partition: database exchange brings node 0 up to date.
        net.set_link_status(1, 2, up=True)
        net.run()
        g01_view, _ = net.node(0).local_view()
        assert not g01_view.link(2, 3).up

    def test_db_version_bumps_on_change(self, hierarchy):
        net = build_ls_network(hierarchy)
        node = net.node(3)
        v = node.db_version
        net.set_link_status(0, 1, up=False)
        net.run()
        assert node.db_version > v

    def test_lsdb_bytes_positive(self, hierarchy):
        net = build_ls_network(hierarchy, open_db(hierarchy))
        assert sum(lsa.size_bytes() for lsa in net.node(0).lsdb.values()) > 0
