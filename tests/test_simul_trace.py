"""Tests for the event tracer.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because the simulator's delivery order must
come from the sorted incident-link tuple, never from set order
(``flood_links``, ``_crashed``), and the calls-per-message budget must
hold under both seeds.
"""

import asyncio

import pytest

from repro.live import LiveNetwork, settle
from repro.policy.database import PolicyDatabase
from repro.protocols.dv import DistanceVectorProtocol, DVUpdate
from repro.simul.ingress import IngressModel
from repro.simul import trace
from repro.simul.trace import Tracer
from tests.helpers import line_graph, mk_graph

pytestmark = pytest.mark.hashseed


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

    def test_timeline_renders(self, traced_run):
        _, tracer = traced_run
        text = tracer.timeline(limit=5)
        assert "DVUpdate" in text
        assert "elided" in text or len(tracer) <= 5

    def test_capacity_bound(self, monkeypatch):
        monkeypatch.setattr(trace, "CAPACITY", 3)
        g = line_graph(3)
        proto = DistanceVectorProtocol(g, PolicyDatabase())
        net = proto.build()
        tracer = Tracer.attach(net)
        proto.converge()
        assert len(tracer) == 3
        assert tracer.dropped_records > 0
        assert tracer.timeline().splitlines()[-1] == (
            f"... {tracer.dropped_records} later records not kept: "
            "the tracer keeps the first 3 (over all ADs) ..."
        )

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

    def test_queue_dropped_deliveries_pass_through_the_tracer(self):
        # The trace hook runs at the top of network._deliver, ahead of the
        # bounded ingress: a delivery the full queue drops is still a
        # delivery event.
        def run(traced):
            g = mk_graph(
                [(0, "Rt")] + [(i, "Cs") for i in range(1, 6)],
                [(0, i) for i in range(1, 6)],
            )
            proto = DistanceVectorProtocol(g, PolicyDatabase())
            net = proto.build()
            net.set_ingress(IngressModel(0))
            tracer = Tracer.attach(net) if traced else None
            proto.converge()
            return net, tracer

        net, tracer = run(traced=True)
        metrics = net.metrics
        assert metrics.queue_dropped > 0  # the tail-drop path really ran
        plain, _ = run(traced=False)
        assert metrics.snapshot(0.0) == plain.metrics.snapshot(0.0)
        # One record per delivery: served or dropped at the queue.
        deliveries = sum(metrics.messages.values()) + metrics.queue_dropped
        assert len(tracer.filtered(kind="msg")) == deliveries

    def test_empty_timeline(self):
        g = line_graph(2)
        net = DistanceVectorProtocol(g, PolicyDatabase()).build()
        tracer = Tracer.attach(net)
        assert tracer.timeline() == "(no events)"


def test_attach_works_on_the_live_network():
    """The hook is the Transport's: the live network reads it where a
    frame reaches its AD and when a link changes, as the simulator does."""

    async def scenario():
        proto = DistanceVectorProtocol(line_graph(3), PolicyDatabase())
        proto.substrate = "live"
        network = LiveNetwork(proto.graph, time_scale=0.002)
        proto.build(network=network)
        tracer = Tracer.attach(network)
        await network.start()
        try:
            assert await settle(network, timeout_s=30.0)
            network.set_link_status(0, 1, False)
            assert await settle(network, timeout_s=30.0)
            return tracer, sum(network.metrics.messages.values())
        finally:
            await network.close()

    tracer, delivered = asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
    assert len(tracer.filtered(kind="msg")) == delivered > 0
    (link,) = tracer.filtered(kind="link")
    assert (link.src, link.dst, link.detail) == (0, 1, "DOWN")
