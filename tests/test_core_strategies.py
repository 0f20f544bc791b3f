"""Tests for the synthesis strategies (precompute / on-demand / hybrid)."""

import pytest

from repro.core.strategies import (
    HybridStrategy,
    OnDemandStrategy,
    PrecomputeStrategy,
)
from repro.core.synthesis import RouteSynthesizer
from repro.policy.flows import FlowSpec
from tests.helpers import diamond_graph, open_db


@pytest.fixture
def synthesizer():
    g = diamond_graph()
    return RouteSynthesizer(g, open_db(g))


FLOW_A = FlowSpec(0, 3)
FLOW_B = FlowSpec(3, 0)
FLOW_C = FlowSpec(1, 2)


class TestPrecompute:
    def test_upfront_work_then_free_lookups(self, synthesizer):
        strat = PrecomputeStrategy(synthesizer, [FLOW_A, FLOW_B])
        assert strat.stats.precompute_states > 0
        assert strat.stats.precomputed_routes == 2
        route = strat.lookup(FLOW_A)
        assert route is not None and route.path == (0, 1, 3)
        assert strat.stats.hits == 1
        assert strat.stats.request_states == 0

    def test_outside_universe_misses(self, synthesizer):
        strat = PrecomputeStrategy(synthesizer, [FLOW_A])
        assert strat.lookup(FLOW_C) is None
        assert strat.stats.requests - strat.stats.hits == 1

    def test_table_size(self, synthesizer):
        strat = PrecomputeStrategy(synthesizer, [FLOW_A, FLOW_B, FLOW_C])
        assert strat.table_size == 3


class TestOnDemand:
    def test_computes_then_caches(self, synthesizer):
        strat = OnDemandStrategy(synthesizer, cache_size=4)
        first = strat.lookup(FLOW_A)
        second = strat.lookup(FLOW_A)
        assert first is not None and first.path == second.path
        assert strat.stats.requests == 2
        assert strat.stats.hits == 1
        assert strat.stats.mean_request_states > 0

    def test_lru_eviction(self, synthesizer):
        strat = OnDemandStrategy(synthesizer, cache_size=1)
        strat.lookup(FLOW_A)
        strat.lookup(FLOW_B)  # evicts A
        assert strat.table_size == 1
        strat.lookup(FLOW_A)  # miss again
        assert strat.stats.hits == 0

    def test_zero_cache(self, synthesizer):
        strat = OnDemandStrategy(synthesizer, cache_size=0)
        strat.lookup(FLOW_A)
        strat.lookup(FLOW_A)
        assert strat.stats.hits == 0
        assert strat.table_size == 0

    def test_negative_cache_rejected(self, synthesizer):
        with pytest.raises(ValueError):
            OnDemandStrategy(synthesizer, cache_size=-1)

    def test_negative_results_cached_too(self, synthesizer):
        unreachable = FlowSpec(0, 3, hour=1)
        # Make it genuinely unreachable by avoiding both transits.
        from repro.policy.selection import RouteSelectionPolicy

        sel = RouteSelectionPolicy(avoid_ads=frozenset({1, 2}))
        strat = OnDemandStrategy(synthesizer, cache_size=4)
        assert strat.lookup(unreachable, sel) is None
        assert strat.lookup(unreachable, sel) is None
        assert strat.stats.hits == 1


class TestHybrid:
    def test_popular_hits_precomputed(self, synthesizer):
        strat = HybridStrategy(synthesizer, popular=[FLOW_A], cache_size=4)
        assert strat.stats.precomputed_routes == 1
        strat.lookup(FLOW_A)
        assert strat.stats.hits == 1
        assert strat.stats.request_states == 0

    def test_unpopular_goes_on_demand(self, synthesizer):
        strat = HybridStrategy(synthesizer, popular=[FLOW_A], cache_size=4)
        route = strat.lookup(FLOW_B)
        assert route is not None
        assert strat.stats.request_states > 0
        strat.lookup(FLOW_B)
        assert strat.stats.hits == 1  # second time from LRU

    def test_table_size_counts_both(self, synthesizer):
        strat = HybridStrategy(synthesizer, popular=[FLOW_A], cache_size=4)
        strat.lookup(FLOW_B)
        assert strat.table_size == 2

    def test_hit_ratio(self, synthesizer):
        strat = HybridStrategy(synthesizer, popular=[FLOW_A], cache_size=4)
        for _ in range(4):
            strat.lookup(FLOW_A)
        strat.lookup(FLOW_B)
        assert strat.stats.hit_ratio == pytest.approx(4 / 5)
