"""Tests for IDRP / BGP-2 (path vector + policy attributes).

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because QOS members hash by identity, not by
name, so the hash of a ``(dest, qos, cls)`` routing key differs in every
process whatever the seed: IDRP's pinned records, its allocation budget
and the set algebra, together with the bench-determinism job, show that
no output depends on it.
"""

import pytest

from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.generators import source_class_policies
from repro.policy.legality import is_legal_path
from repro.policy.sets import ADSet
from repro.policy.terms import PolicyTerm
from repro.policy.qos import QOS
from repro.protocols.idrp import BGP2Protocol, IDRPProtocol, IDRPUpdate, RouteAd
from tests.helpers import diamond_graph, line_graph, mk_graph, open_db

pytestmark = pytest.mark.hashseed


class TestBasicRouting:
    def test_line_routing(self):
        g = line_graph(4)
        proto = IDRPProtocol(g, open_db(g))
        proto.converge()
        assert proto.find_route(FlowSpec(0, 3)) == (0, 1, 2, 3)

    def test_loop_suppression_via_path(self):
        g = diamond_graph()
        proto = IDRPProtocol(g, open_db(g))
        proto.converge()
        node = proto.network.node(1)
        for per_nbr in node.rib_in.values():
            for ad in per_nbr.values():
                assert 1 not in ad.path or ad.is_withdrawal

    def test_selected_paths_loop_free(self, gen_graph, gen_policies):
        proto = IDRPProtocol(gen_graph, gen_policies)
        proto.converge()
        for ad_id in gen_graph.ad_ids():
            node = proto.network.node(ad_id)
            for entry in node.loc.values():
                assert len(set(entry.path)) == len(entry.path)

    def test_stubs_never_advertise_transit(self, gen_graph, gen_policies):
        proto = IDRPProtocol(gen_graph, gen_policies)
        proto.converge()
        for ad in gen_graph.stub_ads():
            node = proto.network.node(ad.ad_id)
            for per_nbr_keys in node._advertised.values():
                for dest, _qos, _cls in per_nbr_keys:
                    assert dest == ad.ad_id


class TestSourceScopes:
    @staticmethod
    def _scoped_scenario():
        """AD 1 carries only source 0's traffic; AD 2 carries anyone's.

        Topology: sources 0 and 4 both hang off transit 1 and transit 2,
        destination 3 reachable through either transit.
        """
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

    def test_scope_respected_at_source(self):
        g, db = self._scoped_scenario()
        proto = IDRPProtocol(g, db)
        proto.converge()
        # Source 0 may use the cheap transit 1.
        assert proto.find_route(FlowSpec(0, 3)) == (0, 1, 3)
        # Source 4 is excluded from transit 1; via the scoped update it
        # must either use transit 2 or nothing -- never an illegal route.
        path4 = proto.find_route(FlowSpec(4, 3))
        if path4 is not None:
            assert is_legal_path(g, db, path4, FlowSpec(4, 3))

    def test_single_route_starves_sources(self):
        """The Section 5.2 pathology: one advertised route per dest means
        a source can starve even though a legal route exists."""
        g, db = self._scoped_scenario()
        proto = IDRPProtocol(g, db)
        proto.converge()
        from repro.core.evaluation import legal_route_exists

        assert legal_route_exists(g, db, FlowSpec(4, 3)) is True
        found = proto.find_route(FlowSpec(4, 3))
        # Node 4 selected the cheaper route via 1 (scoped to source 0);
        # since 4 is not in its scope, 4 has no usable route.
        assert found is None

    def test_bgp2_cannot_express_scopes(self):
        """BGP-2 drops the scope attribute; the same scenario now yields
        an illegal route for source 4 (it cannot know it is excluded)."""
        g, db = self._scoped_scenario()
        proto = BGP2Protocol(g, db)
        proto.converge()
        path = proto.find_route(FlowSpec(4, 3))
        # BGP2 transit enforcement at AD 1 drops the packet mid-path or
        # the route is illegal -- either way source 4 is worse off and
        # cannot tell why.
        if path is not None:
            assert not is_legal_path(g, db, path, FlowSpec(4, 3))


class TestFailureResponse:
    def test_reroute_after_failure(self):
        g = diamond_graph()
        proto = IDRPProtocol(g, open_db(g))
        proto.converge()
        assert proto.find_route(FlowSpec(0, 3)) == (0, 1, 3)
        proto.network.set_link_status(1, 3, up=False)
        proto.network.run()
        assert proto.find_route(FlowSpec(0, 3)) == (0, 2, 3)

    def test_withdrawal_propagates(self):
        g = line_graph(4)
        proto = IDRPProtocol(g, open_db(g))
        proto.converge()
        proto.network.set_link_status(2, 3, up=False)
        proto.network.run()
        assert proto.find_route(FlowSpec(0, 3)) is None
        node0 = proto.network.node(0)
        assert node0.entry_for(3, FlowSpec(0, 3).qos) is None

    def test_repair_restores(self):
        g = diamond_graph()
        proto = IDRPProtocol(g, open_db(g))
        proto.converge()
        proto.network.set_link_status(1, 3, up=False)
        proto.network.run()
        proto.network.set_link_status(1, 3, up=True)
        proto.network.run()
        assert proto.find_route(FlowSpec(0, 3)) == (0, 1, 3)


class TestInputScreen:
    def test_an_ad_for_a_qos_class_the_node_does_not_run_is_skipped(self):
        # Stored, it would be selected under a key no lookup reads
        # (``_qos_for`` falls back to the first table) and re-exported.
        g = line_graph(3)
        proto = IDRPProtocol(g, open_db(g), qos_classes=(QOS.DEFAULT,))
        proto.converge()
        node = proto.network.node(1)
        rib_in = {key: dict(per_nbr) for key, per_nbr in node.rib_in.items()}
        loc = dict(node.loc)
        sent = dict(proto.network.metrics.messages)
        for cls, qos in ((0, QOS.LOW_COST), (7, QOS.DEFAULT)):
            for path in ((0, 9), ()):  # an advertisement and a withdrawal
                ad = RouteAd(9, qos, path, 1.0, ADSet.everyone(), cls)
                node.on_message(0, IDRPUpdate((ad,)))
        assert node.rib_in == rib_in and node.loc == loc
        assert not node._pending and not node._flush_scheduled
        proto.network.run()
        assert proto.network.metrics.messages == sent
        # The same ad in a class the node does run is news.
        node.on_message(0, IDRPUpdate((RouteAd(9, QOS.DEFAULT, (0, 9), 1.0, ADSet.everyone()),)))
        assert (9, QOS.DEFAULT, 0) in node.loc and node._pending


class TestTransitEnforcement:
    def test_transit_checks_own_policy_on_actual_hops(self):
        # AD 1 only accepts traffic entering from AD 0.
        g = mk_graph(
            [(0, "Cs"), (4, "Cs"), (1, "Rt"), (3, "Cs")],
            [(0, 1), (4, 1), (1, 3)],
        )
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=1, prev_ads=ADSet.of([0])))
        proto = IDRPProtocol(g, db)
        proto.converge()
        assert proto.find_route(FlowSpec(0, 3)) == (0, 1, 3)
        # From 4, AD 1's own enforcement refuses to forward.
        assert proto.find_route(FlowSpec(4, 3)) is None


class TestGranularityPressure:
    def test_availability_drops_as_policies_get_source_specific(self, gen_graph):
        """Section 5.2.1: as policy granularity rises, the single
        advertised route serves fewer sources."""
        from repro.core.evaluation import evaluate_availability, sample_flows

        flows = sample_flows(gen_graph, 30, seed=3)
        coarse = source_class_policies(gen_graph, 1, refusal_prob=0.35, seed=2)
        fine = source_class_policies(gen_graph, 8, refusal_prob=0.35, seed=2)
        avail = {}
        for scen in (coarse, fine):
            proto = IDRPProtocol(gen_graph.copy(), scen.policies)
            proto.converge()
            rep = evaluate_availability(
                proto.graph, proto.policies, flows, proto.find_route
            )
            avail[scen.name] = rep.availability
        assert avail[fine.name] <= avail[coarse.name]
