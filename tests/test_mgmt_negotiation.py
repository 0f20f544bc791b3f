"""Tests for ECMA ordering negotiation and charge accounting."""

import pytest

from repro.mgmt.accounting import settle
from repro.mgmt.negotiation import negotiate_ordering, renegotiate
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.terms import PolicyTerm
from repro.traffic.workload import TrafficMatrix
from tests.helpers import line_graph


class TestNegotiation:
    def test_compatible_demands_all_accepted(self):
        result = negotiate_ordering([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        assert result.dropped == []
        assert result.acceptance_ratio == 1.0
        assert result.order.rank(1) < result.order.rank(2) < result.order.rank(3)

    def test_conflicting_demand_dropped(self):
        result = negotiate_ordering([1, 2], [(1, 2), (2, 1)])
        assert result.accepted == [(1, 2)]
        assert result.dropped == [(2, 1)]
        assert result.losers() == {2: 1}

    def test_priority_order_decides_winner(self):
        first = negotiate_ordering([1, 2], [(1, 2), (2, 1)])
        second = negotiate_ordering([1, 2], [(2, 1), (1, 2)])
        assert first.accepted == [(1, 2)]
        assert second.accepted == [(2, 1)]

    def test_self_demand_dropped(self):
        result = negotiate_ordering([1], [(1, 1)])
        assert result.dropped == [(1, 1)]

    def test_longer_cycle_partially_accepted(self):
        result = negotiate_ordering([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
        assert len(result.accepted) == 2
        assert result.dropped == [(3, 1)]

    def test_summary_names_losers(self):
        result = negotiate_ordering([1, 2], [(1, 2), (2, 1)])
        assert "AD 2" in result.summary()

    def test_empty_demands(self):
        result = negotiate_ordering([1, 2], [])
        assert result.acceptance_ratio == 1.0


class TestRenegotiate:
    def test_compatible_new_demand_accepted(self):
        accepted, result = renegotiate([1, 2, 3], [(1, 2)], (2, 3))
        assert accepted
        assert (2, 3) in result.accepted

    def test_conflicting_new_demand_rejected(self):
        accepted, result = renegotiate([1, 2], [(1, 2)], (2, 1))
        assert not accepted
        assert (2, 1) in result.dropped
        # Incumbent constraints survive.
        assert (1, 2) in result.accepted


class TestAccounting:
    @pytest.fixture
    def charged_line(self):
        g = line_graph(4)
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=1, charge=2.0))
        db.add_term(PolicyTerm(owner=2, charge=3.0))
        return g, db

    def test_charges_settled_per_transit(self, charged_line):
        g, db = charged_line
        matrix = TrafficMatrix(((FlowSpec(0, 3), 10.0),))
        ledger = settle(g, db, matrix)
        assert ledger.routed_volume == 10.0
        assert ledger.entry(1).revenue == 20.0
        assert ledger.entry(2).revenue == 30.0
        assert ledger.entry(0).paid == 50.0
        assert ledger.total_revenue == ledger.total_paid == 50.0

    def test_unrouted_volume_tracked(self, charged_line):
        g, db = charged_line
        g.set_link_status(1, 2, up=False)
        matrix = TrafficMatrix(((FlowSpec(0, 3), 5.0),))
        ledger = settle(g, db, matrix)
        assert ledger.unrouted_volume == 5.0
        assert ledger.total_revenue == 0.0

    def test_direct_neighbours_pay_nothing(self, charged_line):
        g, db = charged_line
        matrix = TrafficMatrix(((FlowSpec(0, 1), 7.0),))
        ledger = settle(g, db, matrix)
        assert ledger.total_revenue == 0.0
        assert ledger.entry(0).originated_volume == 7.0

    def test_custom_finder(self, charged_line):
        g, db = charged_line
        matrix = TrafficMatrix(((FlowSpec(0, 3), 1.0),))
        ledger = settle(g, db, matrix, finder=lambda f: (0, 1, 2, 3))
        assert ledger.entry(1).carried_volume == 1.0

    def test_top_earners_and_summary(self, charged_line):
        g, db = charged_line
        matrix = TrafficMatrix(
            ((FlowSpec(0, 3), 1.0), (FlowSpec(3, 0), 2.0))
        )
        ledger = settle(g, db, matrix)
        earners = ledger.top_earners(1)
        assert earners[0][0] == 2  # charge 3.0 x volume 3
        assert "Accounting" in ledger.summary()


class TestAccountingProperties:
    """Conservation invariants over random traffic and policies."""

    def test_revenue_equals_payments(self, gen_graph, gen_restricted):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from repro.traffic.workload import uniform_traffic

        @settings(max_examples=10, deadline=None)
        @given(seed=st.integers(0, 1000))
        def check(seed):
            matrix = uniform_traffic(gen_graph, 15, seed=seed)
            ledger = settle(gen_graph, gen_restricted, matrix)
            assert ledger.total_revenue == pytest.approx(ledger.total_paid)
            assert ledger.routed_volume + ledger.unrouted_volume == pytest.approx(
                matrix.total_weight
            )
            for entry in ledger.entries.values():
                assert entry.revenue >= 0 and entry.paid >= 0

        check()
