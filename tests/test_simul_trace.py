"""Tests for the event tracer."""

import pytest

from repro.policy.database import PolicyDatabase
from repro.protocols.dv import DistanceVectorProtocol, DVUpdate
from repro.simul.ingress import IngressConfig
from repro.simul.trace import Tracer
from tests.helpers import line_graph, mk_graph


@pytest.fixture
def traced_run():
    g = line_graph(3)
    proto = DistanceVectorProtocol(g, PolicyDatabase())
    net = proto.build()
    tracer = Tracer.attach(net)
    proto.converge()
    return proto, tracer


class TestTracer:
    def test_records_every_delivery(self, traced_run):
        proto, tracer = traced_run
        delivered = sum(proto.network.metrics.messages.values())
        assert len(tracer.filtered(kind="msg")) == delivered

    def test_message_counts_match_metrics(self, traced_run):
        proto, tracer = traced_run
        assert tracer.message_counts()["DVUpdate"] == (
            proto.network.metrics.messages["DVUpdate"]
        )

    def test_link_changes_recorded(self, traced_run):
        proto, tracer = traced_run
        proto.network.set_link_status(0, 1, up=False)
        proto.network.run()
        link_events = tracer.filtered(kind="link")
        assert len(link_events) == 1
        assert link_events[0].detail == "DOWN"

    def test_ad_filter(self, traced_run):
        _, tracer = traced_run
        for rec in tracer.filtered(ad=0):
            assert 0 in (rec.src, rec.dst)

    def test_since_filter(self, traced_run):
        proto, tracer = traced_run
        t = proto.network.sim.now
        proto.network.set_link_status(0, 1, up=False)
        proto.network.run()
        late = tracer.filtered(since=t)
        assert late
        assert all(r.time >= t for r in late)

    def test_conversation_is_symmetric_pairwise(self, traced_run):
        _, tracer = traced_run
        convo = tracer.conversation(0, 1)
        assert convo
        for rec in convo:
            assert {rec.src, rec.dst} == {0, 1}

    def test_timeline_renders(self, traced_run):
        _, tracer = traced_run
        text = tracer.timeline(limit=5)
        assert "DVUpdate" in text
        assert "elided" in text or len(tracer) <= 5

    def test_capacity_bound(self):
        g = line_graph(3)
        proto = DistanceVectorProtocol(g, PolicyDatabase())
        net = proto.build()
        tracer = Tracer.attach(net, capacity=3)
        proto.converge()
        assert len(tracer) == 3
        assert tracer.dropped_records > 0

    def test_tracing_does_not_change_outcome(self):
        from repro.policy.flows import FlowSpec

        g1, g2 = line_graph(4), line_graph(4)
        plain = DistanceVectorProtocol(g1, PolicyDatabase())
        plain.converge()
        traced = DistanceVectorProtocol(g2, PolicyDatabase())
        Tracer.attach(traced.build())
        traced.converge()
        flow = FlowSpec(0, 3)
        assert plain.find_route(flow) == traced.find_route(flow)
        assert (
            plain.network.metrics.messages == traced.network.metrics.messages
        )

    def test_backpressure_redeliveries_pass_through_the_tracer(self):
        # The bounded ingress redelivers through network._deliver with an
        # attempt count; the tracer's wrapper used to take three arguments
        # and died with a TypeError on the first deferral.
        def run(traced):
            g = mk_graph(
                [(0, "Rt")] + [(i, "Cs") for i in range(1, 6)],
                [(0, i) for i in range(1, 6)],
            )
            proto = DistanceVectorProtocol(g, PolicyDatabase())
            net = proto.build()
            net.set_ingress(IngressConfig(capacity=0, policy="backpressure"))
            tracer = Tracer.attach(net) if traced else None
            proto.converge()
            return net.metrics, tracer

        metrics, tracer = run(traced=True)
        assert metrics.deferred > 0  # the redelivery path really ran
        plain, _ = run(traced=False)
        assert metrics.snapshot(0.0) == plain.snapshot(0.0)
        # One record per delivery attempt: first tries that were admitted
        # or dropped at the queue, plus every redelivery.
        attempts = sum(metrics.messages.values()) + metrics.queue_dropped
        assert len(tracer.filtered(kind="msg")) == attempts + metrics.deferred

    def test_capacity_validation(self):
        g = line_graph(2)
        net = DistanceVectorProtocol(g, PolicyDatabase()).build()
        with pytest.raises(ValueError):
            Tracer.attach(net, capacity=0)

    def test_empty_timeline(self):
        g = line_graph(2)
        net = DistanceVectorProtocol(g, PolicyDatabase()).build()
        tracer = Tracer.attach(net)
        assert tracer.timeline() == "(no events)"
