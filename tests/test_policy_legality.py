"""Tests for path legality -- the central predicate of the reproduction."""

import pytest

from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.legality import (
    first_violation,
    is_legal_path,
    path_cost,
)
from repro.policy.sets import ADSet
from repro.policy.terms import PolicyTerm
from tests.helpers import line_graph, open_db


@pytest.fixture
def line():
    return line_graph(4)  # 0-1-2-3


@pytest.fixture
def line_db(line):
    return open_db(line)


class TestIsLegalPath:
    def test_simple_legal_path(self, line, line_db):
        assert is_legal_path(line, line_db, [0, 1, 2, 3], FlowSpec(0, 3))

    def test_endpoints_must_match_flow(self, line, line_db):
        assert not is_legal_path(line, line_db, [1, 2, 3], FlowSpec(0, 3))
        assert not is_legal_path(line, line_db, [0, 1, 2], FlowSpec(0, 3))

    def test_empty_path_illegal(self, line, line_db):
        assert not is_legal_path(line, line_db, [], FlowSpec(0, 3))

    def test_single_ad_path(self, line, line_db):
        assert is_legal_path(line, line_db, [0], FlowSpec(0, 0))
        assert not is_legal_path(line, line_db, [0], FlowSpec(0, 3))

    def test_loop_illegal(self, diamond):
        db = open_db(diamond)
        assert not is_legal_path(
            diamond, db, [0, 1, 3, 2, 0], FlowSpec(0, 0)
        )

    def test_missing_link_illegal(self, line, line_db):
        assert not is_legal_path(line, line_db, [0, 2, 3], FlowSpec(0, 3))

    def test_down_link_illegal(self, line, line_db):
        line.set_link_status(1, 2, up=False)
        assert not is_legal_path(line, line_db, [0, 1, 2, 3], FlowSpec(0, 3))

    def test_transit_without_terms_illegal(self, line):
        db = PolicyDatabase()  # nobody offers transit
        assert not is_legal_path(line, db, [0, 1, 2, 3], FlowSpec(0, 3))
        # Direct neighbours need no transit at all.
        assert is_legal_path(line, db, [0, 1], FlowSpec(0, 1))

    def test_prev_next_constraints_checked_per_hop(self, diamond):
        db = PolicyDatabase()
        # AD 1 only accepts packets arriving from 0 and departing to 3.
        db.add_term(
            PolicyTerm(owner=1, prev_ads=ADSet.of([0]), next_ads=ADSet.of([3]))
        )
        db.add_term(PolicyTerm(owner=2))
        assert is_legal_path(diamond, db, [0, 1, 3], FlowSpec(0, 3))
        assert not is_legal_path(diamond, db, [3, 1, 0], FlowSpec(3, 0))

    def test_endpoints_need_no_transit_permission(self, line):
        # Only the middle ADs have terms; source and dest have none.
        db = PolicyDatabase([PolicyTerm(owner=1), PolicyTerm(owner=2)])
        assert is_legal_path(line, db, [0, 1, 2, 3], FlowSpec(0, 3))


class TestFirstViolation:
    def test_legal_path_has_no_violation(self, line, line_db):
        assert first_violation(line, line_db, [0, 1, 2, 3], FlowSpec(0, 3)) is None
        assert first_violation(line, line_db, [0, 1, 2], FlowSpec(0, 2)) is None

    def test_violation_messages(self, line, line_db):
        assert "starts at" in first_violation(line, line_db, [1, 3], FlowSpec(0, 3))
        assert "loop" in first_violation(
            line, line_db, [0, 1, 0], FlowSpec(0, 0)
        )
        assert "no link" in first_violation(
            line, line_db, [0, 2, 3], FlowSpec(0, 3)
        )
        assert first_violation(
            line, line_db, [0, 2], FlowSpec(0, 2)
        ) == "no link between AD 0 and AD 2"
        line.set_link_status(0, 1, up=False)
        assert "down" in first_violation(
            line, line_db, [0, 1, 2, 3], FlowSpec(0, 3)
        )
        assert first_violation(
            line, line_db, [0, 1], FlowSpec(0, 1)
        ) == "link 0-1 is down"

    def test_policy_violation_names_the_ad(self, line):
        db = PolicyDatabase([PolicyTerm(owner=1)])  # AD 2 missing
        msg = first_violation(line, db, [0, 1, 2, 3], FlowSpec(0, 3))
        assert "AD 2" in msg

    def test_empty_path(self, line, line_db):
        assert first_violation(line, line_db, [], FlowSpec(0, 3)) == "empty path"

    def test_single_ad_path_legal_iff_src_is_dst(self, line, line_db):
        assert first_violation(line, line_db, [0], FlowSpec(0, 0)) is None
        # A one-AD path to somewhere else fails on the endpoint check,
        # never on transit policy (there are no transits to consult).
        assert "ends at" in first_violation(line, line_db, [0], FlowSpec(0, 3))
        assert "starts at" in first_violation(line, line_db, [1], FlowSpec(0, 3))

    def test_loop_reported_before_link_and_policy(self, line):
        # The looping path also crosses a nonexistent link and has no
        # transit terms; the loop verdict must win (it is checked on the
        # path shape alone, before any ground-truth lookups).
        db = PolicyDatabase()
        msg = first_violation(line, db, [0, 1, 0, 2, 3], FlowSpec(0, 3))
        assert msg == "path contains a loop"

    def test_loop_returning_to_source(self, line, line_db):
        msg = first_violation(line, line_db, [0, 1, 0], FlowSpec(0, 0))
        assert msg == "path contains a loop"


class TestPathCost:
    def test_sums_metric(self, diamond):
        assert path_cost(diamond, [0, 1, 3], "delay") == 2.0
        assert path_cost(diamond, [0, 2, 3], "delay") == 10.0

    def test_single_node_costs_zero(self, diamond):
        assert path_cost(diamond, [0], "delay") == 0.0

    def test_missing_link_raises(self, diamond):
        with pytest.raises(KeyError):
            path_cost(diamond, [0, 3], "delay")

