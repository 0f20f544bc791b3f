"""Tests for flow specs, QOS and UCI classes."""

import pytest

from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.policy.uci import UCI


class TestFlowSpec:
    def test_defaults(self):
        f = FlowSpec(1, 2)
        assert f.qos is QOS.DEFAULT
        assert f.uci is UCI.DEFAULT
        assert f.hour == 12

    def test_invalid_hour(self):
        with pytest.raises(ValueError):
            FlowSpec(1, 2, hour=24)

    def test_reversed(self):
        f = FlowSpec(1, 2, qos=QOS.LOW_COST, hour=3)
        r = f.reversed()
        assert (r.src, r.dst) == (2, 1)
        assert r.qos is QOS.LOW_COST and r.hour == 3

    def test_hashable_and_equal(self):
        assert FlowSpec(1, 2) == FlowSpec(1, 2)
        assert len({FlowSpec(1, 2), FlowSpec(1, 2)}) == 1
        assert FlowSpec(1, 2) != FlowSpec(1, 2, hour=3)

    def test_endpoints(self):
        assert FlowSpec(4, 9).endpoints == (4, 9)


class TestQOS:
    def test_metric_binding(self):
        assert QOS.DEFAULT.metric == "delay"
        assert QOS.LOW_DELAY.metric == "delay"
        assert QOS.LOW_COST.metric == "cost"
        assert QOS.HIGH_BANDWIDTH.metric == "bandwidth"

    def test_composition(self):
        assert QOS.HIGH_BANDWIDTH.is_bottleneck
        assert not QOS.DEFAULT.is_bottleneck

    def test_all_classes(self):
        assert len(QOS.all_classes()) == 4
        assert QOS.HIGH_BANDWIDTH not in QOS.additive_classes()
        assert len(QOS.additive_classes()) == 3


class TestUCI:
    def test_all_classes(self):
        classes = UCI.all_classes()
        assert UCI.DEFAULT in classes
        assert len(classes) == 4
