"""Tests for source route-selection criteria."""

import math

import pytest

from repro.policy.qos import QOS
from repro.policy.selection import OPEN_SELECTION, RouteSelectionPolicy
from tests.helpers import diamond_graph


class TestValidation:
    def test_avoid_require_overlap_rejected(self):
        with pytest.raises(ValueError):
            RouteSelectionPolicy(
                avoid_ads=frozenset({1}), require_ads=frozenset({1})
            )

    def test_bad_max_hops_rejected(self):
        with pytest.raises(ValueError):
            RouteSelectionPolicy(max_hops=0)

    def test_negative_charge_weight_rejected(self):
        with pytest.raises(ValueError):
            RouteSelectionPolicy(charge_weight=-1.0)

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_non_finite_charge_weight_rejected_by_name(self, weight):
        with pytest.raises(ValueError, match=f"charge_weight {weight!r} is not finite"):
            RouteSelectionPolicy(charge_weight=weight)


class TestAcceptance:
    def test_open_accepts_anything(self):
        assert OPEN_SELECTION.acceptable([0, 1, 2, 3, 4, 5])
        assert OPEN_SELECTION.permits_node(42)

    def test_avoid(self):
        sel = RouteSelectionPolicy(avoid_ads=frozenset({2}))
        assert not sel.permits_node(2)
        assert sel.permits_node(1)
        assert not sel.acceptable([0, 2, 3])
        assert sel.acceptable([0, 1, 3])

    def test_require(self):
        sel = RouteSelectionPolicy(require_ads=frozenset({1}))
        assert sel.acceptable([0, 1, 3])
        assert not sel.acceptable([0, 2, 3])

    def test_max_hops(self):
        sel = RouteSelectionPolicy(max_hops=2)
        assert sel.acceptable([0, 1, 3])
        assert not sel.acceptable([0, 1, 2, 3])


class TestRanking:
    def test_rank_prefers_cheap_metric(self):
        g = diamond_graph()
        cheap = OPEN_SELECTION.rank_key(g, [0, 1, 3], QOS.DEFAULT)
        costly = OPEN_SELECTION.rank_key(g, [0, 2, 3], QOS.DEFAULT)
        assert cheap < costly

    def test_qos_changes_winner(self):
        g = diamond_graph()
        # Under the cost metric both paths cost 2 -> tie broken by hops
        # then path; under delay the [0,1,3] path wins outright.
        k1 = OPEN_SELECTION.rank_key(g, [0, 1, 3], QOS.LOW_COST)
        k2 = OPEN_SELECTION.rank_key(g, [0, 2, 3], QOS.LOW_COST)
        assert k1[0] == k2[0]
        assert k1 < k2  # path tie-break is deterministic

    def test_charge_weight_included(self):
        g = diamond_graph()
        sel = RouteSelectionPolicy(charge_weight=10.0)
        base = sel.rank_key(g, [0, 1, 3], QOS.DEFAULT, charges=0.0)
        charged = sel.rank_key(g, [0, 1, 3], QOS.DEFAULT, charges=1.0)
        assert charged[0] == base[0] + 10.0
