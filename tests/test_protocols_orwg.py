"""Tests for the ORWG/IDPR architecture (LS + source routing + PTs)."""

import pytest

from repro.core.evaluation import evaluate_availability, sample_flows
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.selection import RouteSelectionPolicy
from repro.policy.sets import ADSet
from repro.policy.terms import PolicyTerm
from repro.protocols.orwg import ORWGProtocol
from repro.protocols.orwg.messages import DataPacket
from tests.helpers import line_graph, open_db


@pytest.fixture
def diamond_proto(diamond):
    proto = ORWGProtocol(diamond, open_db(diamond))
    proto.converge()
    return proto


class TestSourceRouting:
    def test_source_computes_best_legal_route(self, diamond_proto):
        assert diamond_proto.source_route(FlowSpec(0, 3)) == (0, 1, 3)

    def test_selection_criteria_private_to_source(self, diamond_proto):
        sel = RouteSelectionPolicy(avoid_ads=frozenset({1}))
        assert diamond_proto.source_route(FlowSpec(0, 3), sel) == (0, 2, 3)

    def test_full_availability(self, gen_graph, gen_restricted):
        proto = ORWGProtocol(gen_graph, gen_restricted)
        proto.converge()
        flows = sample_flows(gen_graph, 30, seed=11)
        report = evaluate_availability(
            gen_graph, gen_restricted, flows, proto.find_route
        )
        assert report.availability == 1.0
        assert report.n_illegal == 0

    def test_k_routes_multiple_alternatives(self, diamond_proto):
        routes = diamond_proto.k_routes(FlowSpec(0, 3), k=3)
        assert [r.path for r in routes] == [(0, 1, 3), (0, 2, 3)]

    def test_transit_ads_do_no_route_computation(self, diamond_proto):
        diamond_proto.source_route(FlowSpec(0, 3))
        comps = diamond_proto.network.metrics.computations
        assert comps.get((0, "synthesis"), 0) == 1
        assert comps.get((1, "synthesis"), 0) == 0
        assert comps.get((2, "synthesis"), 0) == 0


class TestSetup:
    def test_setup_establishes_and_caches(self, diamond_proto):
        attempt = diamond_proto.open_route(FlowSpec(0, 3))
        diamond_proto.network.run()
        assert attempt.established
        assert attempt.route == (0, 1, 3)
        assert attempt.latency > 0
        # Transit AD 1 and both endpoints hold the handle.
        assert diamond_proto.pg_cache_size(0) == 1
        assert diamond_proto.pg_cache_size(1) == 1
        assert diamond_proto.pg_cache_size(3) == 1
        assert diamond_proto.pg_cache_size(2) == 0

    def test_setup_fails_without_route(self):
        g = line_graph(3)
        proto = ORWGProtocol(g, PolicyDatabase())  # nobody transits
        proto.converge()
        attempt = proto.open_route(FlowSpec(0, 2))
        proto.network.run()
        assert attempt.state == "failed"
        assert "no legal route" in attempt.reason

    def test_setup_latency_is_route_round_trip(self, diamond_proto):
        attempt = diamond_proto.open_route(FlowSpec(0, 3))
        diamond_proto.network.run()
        # Forward (delay 1+1) plus ack (1+1) over the cheap branch.
        assert attempt.latency == pytest.approx(4.0)

    def test_trivial_flow_established_immediately(self, diamond_proto):
        attempt = diamond_proto.open_route(FlowSpec(0, 0))
        diamond_proto.network.run()
        assert attempt.established
        assert attempt.latency == 0.0


class TestDataForwarding:
    def test_handle_packets_delivered(self, diamond_proto):
        attempt = diamond_proto.open_route(FlowSpec(0, 3))
        diamond_proto.network.run()
        diamond_proto.send_data(attempt, packets=5)
        diamond_proto.network.run()
        assert diamond_proto.delivered(attempt) == 5

    def test_datagram_mode_delivers_with_bigger_headers(self, diamond_proto):
        attempt = diamond_proto.open_route(FlowSpec(0, 3))
        diamond_proto.network.run()
        diamond_proto.send_data(attempt, packets=3, carry_route=True)
        diamond_proto.network.run()
        assert diamond_proto.delivered(attempt) == 3
        handle_pkt = DataPacket(attempt.handle, attempt.flow)
        route_pkt = DataPacket(attempt.handle, attempt.flow, attempt.route, 1)
        assert route_pkt.header_bytes() > handle_pkt.header_bytes()

    def test_unknown_handle_dropped(self, diamond_proto):
        attempt = diamond_proto.open_route(FlowSpec(0, 3))
        diamond_proto.network.run()
        # Teardown then send: caches are gone, packets die at first PG.
        diamond_proto.teardown(attempt)
        diamond_proto.network.run()
        diamond_proto.send_data(attempt, packets=2)
        diamond_proto.network.run()
        assert diamond_proto.delivered(attempt) == 0

    def test_per_packet_validation_counts(self, diamond_proto):
        attempt = diamond_proto.open_route(FlowSpec(0, 3))
        diamond_proto.network.run()
        diamond_proto.send_data(attempt, packets=4)
        diamond_proto.network.run()
        node1 = diamond_proto.network.node(1)
        assert node1.pg.lookup(attempt.handle).packets_forwarded == 4


class TestPolicyDynamics:
    def test_stale_cache_revalidated_on_policy_change(self, diamond):
        db = open_db(diamond)
        proto = ORWGProtocol(diamond, db)
        proto.converge()
        attempt = proto.open_route(FlowSpec(0, 3))
        proto.network.run()
        assert attempt.established
        # AD 1 withdraws transit for source 0 and re-floods.
        db.remove_terms(1)
        db.add_term(PolicyTerm(owner=1, sources=ADSet.of([2])))
        proto.notify_policy_change(1)
        proto.network.run()
        # The next data packet hits a stale handle: revalidation fails,
        # a NAK tears the route down, the source learns of the failure.
        proto.send_data(attempt, packets=1)
        proto.network.run()
        assert proto.delivered(attempt) == 0
        assert attempt.state == "failed"
        assert proto.pg_cache_size(1) == 0
        # A fresh setup now picks the still-legal alternative.
        retry = proto.open_route(FlowSpec(0, 3))
        proto.network.run()
        assert retry.established
        assert retry.route == (0, 2, 3)

    def test_setup_rejected_when_view_stale(self, diamond):
        """A source whose LSDB predates a policy change cites a term the
        owner no longer honours; the PG NAKs at setup time."""
        db = open_db(diamond)
        proto = ORWGProtocol(diamond, db)
        proto.converge()
        # Change AD 1's policy but do NOT re-flood (stale views).
        db.remove_terms(1)
        attempt = proto.open_route(FlowSpec(0, 3))
        proto.network.run()
        assert attempt.state == "failed"
        assert "AD 1" in attempt.reason


class TestTopologyDynamics:
    def test_route_recomputed_after_failure(self, diamond_proto):
        proto = diamond_proto
        assert proto.source_route(FlowSpec(0, 3)) == (0, 1, 3)
        proto.network.set_link_status(1, 3, up=False)
        proto.network.run()
        assert proto.source_route(FlowSpec(0, 3)) == (0, 2, 3)

    def test_rib_size_counts_lsdb_and_cache(self, diamond_proto):
        attempt = diamond_proto.open_route(FlowSpec(0, 3))
        diamond_proto.network.run()
        assert diamond_proto.rib_size(1) == diamond_proto.graph.num_ads + 1


class TestHandleReuse:
    def test_distinct_setups_get_distinct_handles(self, diamond_proto):
        a1 = diamond_proto.open_route(FlowSpec(0, 3))
        a2 = diamond_proto.open_route(FlowSpec(0, 3))
        diamond_proto.network.run()
        assert a1.handle != a2.handle
        assert a1.established and a2.established

    def test_one_route_serves_many_packets(self, diamond_proto):
        """Policy routes are long-lived: one setup amortises over the
        whole packet stream (Section 5.4.1)."""
        attempt = diamond_proto.open_route(FlowSpec(0, 3))
        diamond_proto.network.run()
        diamond_proto.send_data(attempt, packets=50)
        diamond_proto.network.run()
        assert diamond_proto.delivered(attempt) == 50
        assert diamond_proto.pg_cache_size(1) == 1


class TestRouteRepair:
    def test_link_failure_under_established_route_naks_source(self, diamond):
        """A PG whose cached next hop dies tears the route down toward
        the source instead of blackholing data packets."""
        proto = ORWGProtocol(diamond, open_db(diamond))
        proto.converge()
        attempt = proto.open_route(FlowSpec(0, 3))
        proto.network.run()
        assert attempt.route == (0, 1, 3)
        # Fail the downstream link 1-3; LSAs reflood, but the cached
        # handle at AD 1 still points into the dead link.
        proto.network.set_link_status(1, 3, up=False)
        proto.network.run()
        proto.send_data(attempt, packets=1)
        proto.network.run()
        assert proto.delivered(attempt) == 0
        assert attempt.state == "failed"
        assert "down" in attempt.reason
        # Re-setup finds the surviving branch.
        retry = proto.open_route(FlowSpec(0, 3))
        proto.network.run()
        assert retry.established
        assert retry.route == (0, 2, 3)
        proto.send_data(retry, packets=3)
        proto.network.run()
        assert proto.delivered(retry) == 3

    def test_source_access_link_failure_detected_locally(self, diamond):
        proto = ORWGProtocol(diamond, open_db(diamond))
        proto.converge()
        attempt = proto.open_route(FlowSpec(0, 3))
        proto.network.run()
        proto.network.set_link_status(0, 1, up=False)
        proto.network.run()
        proto.send_data(attempt, packets=1)
        proto.network.run()
        assert attempt.state == "failed"
        assert proto.delivered(attempt) == 0
