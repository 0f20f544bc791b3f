"""Tests for the Route value type."""

import pytest

from repro.core.routes import Route
from repro.policy.flows import FlowSpec


class TestRoute:
    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            Route(path=(1, 2), flow=FlowSpec(1, 3), cost=1.0)
        with pytest.raises(ValueError):
            Route(path=(), flow=FlowSpec(1, 3), cost=1.0)

    def test_basic_properties(self):
        r = Route(path=(1, 2, 3), flow=FlowSpec(1, 3), cost=2.0)
        assert r.hops == 2
        assert r.transit_ads == (2,)
        assert r.is_loop_free

    def test_header_bytes(self):
        r = Route(path=(1, 2, 3), flow=FlowSpec(1, 3), cost=2.0)
        assert r.header_bytes() == 6

    def test_trivial_route(self):
        r = Route(path=(5,), flow=FlowSpec(5, 5), cost=0.0)
        assert r.hops == 0
        assert r.transit_ads == ()
