"""The driver-facing skeleton both substrates share, pinned once.

:class:`~repro.simul.transport.Transport` owns the node registry, crash
silencing, link notification and the start order; ``SimNetwork`` and
``LiveNetwork`` only add their own steps.  Every test here runs one body
on both: the simulator, and a started live network over loopback UDP
(an 8-AD ring of silent recorder nodes, so no frame is ever sent).
"""

import asyncio

import pytest

from repro.live import LiveNetwork
from repro.protocols.versioning import WireConfig
from repro.simul.network import SimNetwork
from repro.simul.node import ProtocolNode
from repro.simul.transport import Clock

from .helpers import mk_graph

SUBSTRATES = ("sim", "live")


class Recorder(ProtocolNode):
    """Logs its start hook, its Hello and every link notification."""

    def __init__(self, ad_id, log):
        super().__init__(ad_id)
        self.log = log
        self.link_events = []
        self.wire = WireConfig(negotiate=True)

    def start(self):
        self.log.append(("start", self.ad_id))

    def announce_wire(self):
        self.log.append(("hello", self.ad_id))

    def on_link_change(self, link, up):
        self.link_events.append(((link.a, link.b), up))


def ring8():
    return mk_graph(
        [(i, "Rt") for i in range(8)],
        [(i, (i + 1) % 8) for i in range(8)],
    )


def run_on(substrate, body):
    """Register a recorder per AD, start the network, then ``body(net, log)``."""
    log = []

    def register(net):
        # Registered out of AD-id order: the start order must not care.
        for ad_id in (5, 2, 7, 0, 3, 6, 1, 4):
            net.add_node(Recorder(ad_id, log))

    if substrate == "sim":
        net = SimNetwork(ring8())
        register(net)
        net.start()
        net.run()
        body(net, log)
        return

    async def scenario():
        net = LiveNetwork(ring8(), time_scale=0.002)
        register(net)
        await net.start()
        try:
            body(net, log)
        finally:
            await net.close()

    asyncio.run(scenario())


@pytest.fixture(params=SUBSTRATES)
def substrate(request):
    return request.param


def test_registering_an_unknown_ad_is_refused(substrate):
    def body(net, log):
        with pytest.raises(ValueError, match="not in the topology"):
            net.add_node(Recorder(99, log))
        assert 99 not in net.nodes

    run_on(substrate, body)


def test_registering_a_second_node_for_an_ad_is_refused(substrate):
    def body(net, log):
        first = net.node(3)
        with pytest.raises(ValueError, match="already has a node"):
            net.add_node(Recorder(3, log))
        assert net.node(3) is first

    run_on(substrate, body)


def test_crashing_twice_or_an_unregistered_ad_is_refused(substrate):
    def body(net, log):
        with pytest.raises(ValueError, match="has no node to crash"):
            net.crash_node(99)
        net.crash_node(3)
        with pytest.raises(ValueError, match="already crashed"):
            net.crash_node(3)
        assert net.is_crashed(3)

    run_on(substrate, body)


def test_restoring_an_ad_that_is_not_crashed_is_refused(substrate):
    def body(net, log):
        with pytest.raises(ValueError, match="is not crashed"):
            net.restore_node(3)
        net.crash_node(3)
        net.restore_node(3)
        with pytest.raises(ValueError, match="is not crashed"):
            net.restore_node(3)

    run_on(substrate, body)


def test_a_replacement_node_must_be_for_the_restored_ad(substrate):
    def body(net, log):
        old = net.node(3)
        net.crash_node(3)
        with pytest.raises(ValueError, match="replacement node is for AD 4"):
            net.restore_node(3, Recorder(4, log))
        assert net.node(3) is old
        net.crash_node(3)
        fresh = Recorder(3, log)
        net.restore_node(3, fresh)
        assert net.node(3) is fresh
        assert fresh.transport is net

    run_on(substrate, body)


def test_registering_sets_the_node_transport(substrate):
    def body(net, log):
        assert all(node.transport is net for node in net.nodes.values())
        net.crash_node(3)
        fresh = Recorder(3, log)
        assert fresh.transport is None
        net.restore_node(3, fresh)
        assert fresh.transport is net

    run_on(substrate, body)


def test_a_node_never_registered_has_no_transport(substrate):
    def body(net, log):
        stray = Recorder(99, log)
        with pytest.raises(ValueError, match="not in the topology"):
            net.add_node(stray)
        assert stray.transport is None
        with pytest.raises(AttributeError):
            stray.send(0, None)

    run_on(substrate, body)


def test_clock_and_profiler_are_plain_attributes(substrate):
    def body(net, log):
        assert isinstance(net.clock, Clock)
        assert net.profiler is None
        if substrate == "sim":
            # The engine is the clock itself, not a wrapper around it.
            assert net.clock is net.sim

    run_on(substrate, body)


def test_neighbors_leave_out_down_links(substrate):
    def body(net, log):
        assert sorted(net.neighbors(0)) == [1, 7]
        net.set_link_status(0, 1, False)
        assert net.neighbors(0) == [7]
        assert net.neighbors(1) == [2]
        net.set_link_status(0, 1, True)
        assert sorted(net.neighbors(0)) == [1, 7]

    run_on(substrate, body)


def test_link_status_notifies_both_live_endpoints_only(substrate):
    def body(net, log):
        net.set_link_status(2, 3, False)
        assert net.node(2).link_events == [((2, 3), False)]
        assert net.node(3).link_events == [((2, 3), False)]
        net.crash_node(4)
        net.set_link_status(4, 5, False)
        assert net.node(4).link_events == []
        assert net.node(5).link_events == [((4, 5), False)]
        # Bystanders hear nothing.
        assert all(net.node(ad).link_events == [] for ad in (0, 1, 6, 7))

    run_on(substrate, body)


def test_is_crashed_follows_crash_and_restore(substrate):
    def body(net, log):
        assert not any(net.is_crashed(ad) for ad in net.nodes)
        net.crash_node(6)
        assert [ad for ad in sorted(net.nodes) if net.is_crashed(ad)] == [6]
        net.restore_node(6)
        assert not net.is_crashed(6)

    run_on(substrate, body)


def test_every_start_hook_runs_before_any_hello(substrate):
    def body(net, log):
        ads = list(range(8))
        assert log == [("start", ad) for ad in ads] + [("hello", ad) for ad in ads]

    run_on(substrate, body)
