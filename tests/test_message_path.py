"""The per-message path: ``Transport.broadcast`` and its call budget.

``Transport.broadcast`` is *defined* as the loop it replaced -- one
``send`` per live neighbour, in ``neighbors()`` order.  The simulator
overrides it with a single pass over the incident-link tuple, so the
first half of this file drives a network through ``broadcast`` and a
twin through that loop and requires the same deliveries, counters and
event count under every feature that sits on the path (down links, a
crashed destination, a tracer, an impaired channel, a bounded ingress).

The second half is the path-length tripwire: the number of Python-level
calls the engine makes per delivered LSA.  It is a count, not a timing,
so it repeats exactly on any host and fails the moment someone re-adds a
property hop or a per-message allocation.
"""

from __future__ import annotations

import asyncio
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.channel import ImpairedChannel, Impairment
from repro.live import LiveNetwork, settle
from repro.protocols.flooding import ExchangeAck
from repro.protocols.registry import make_protocol
from repro.simul.ingress import IngressConfig
from repro.simul.messages import Message
from repro.simul.network import SimNetwork
from repro.simul.node import ProtocolNode
from repro.simul.profiling import PhaseProfiler
from repro.simul.trace import Tracer
from repro.simul.transport import Transport
from repro.workloads.scenarios import scaled_scenario

from .helpers import mk_graph


@dataclass(frozen=True)
class Probe(Message):
    tag: int


def transport_broadcast(transport, src, msg, exclude=None):
    """The verb under test (whatever the substrate's class makes of it)."""
    transport.broadcast(src, msg, exclude)


def reference_broadcast(transport, src, msg, exclude=None):
    """The loop ``broadcast`` replaced, verbatim."""
    for nbr in transport.neighbors(src):
        if nbr != exclude:
            transport.send(src, nbr, msg)


class Flooder(ProtocolNode):
    """Logs every delivery; re-floods each probe once, minus the sender."""

    def __init__(self, ad_id, fan_out, log):
        super().__init__(ad_id)
        self.fan_out = fan_out
        self.log = log
        self.seen = set()

    def on_message(self, sender, msg):
        self.log.append((self.now, sender, self.ad_id, id(msg)))
        if msg.tag not in self.seen:
            self.seen.add(msg.tag)
            self.fan_out(self.transport, self.ad_id, msg, sender)


@st.composite
def cases(draw):
    n = draw(st.integers(2, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    delays = {e: float(draw(st.integers(1, 3))) for e in edges}
    return dict(
        n=n,
        edges=edges,
        delays=delays,
        down=draw(st.lists(st.sampled_from(edges), unique=True, max_size=3)),
        origins=draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)),
        exclude=draw(st.none() | st.integers(0, n - 1)),
        crashed=draw(st.none() | st.integers(0, n - 1)),
        traced=draw(st.booleans()),
        channel_seed=draw(st.none() | st.integers(0, 5)),
        ingress=draw(
            st.none()
            | st.builds(
                IngressConfig,
                capacity=st.integers(0, 2),
                service_time=st.sampled_from([0.0, 0.5, 2.0]),
                policy=st.sampled_from(["tail-drop", "backpressure"]),
                retry_delay=st.sampled_from([0.5, 2.0]),
                max_redeliveries=st.integers(0, 2),
            )
        ),
    )


def drive(case, fan_out, messages):
    graph = mk_graph(
        [(i, "Rt") for i in range(case["n"])],
        case["edges"],
        metrics={e: {"delay": d, "cost": 1.0} for e, d in case["delays"].items()},
    )
    network = SimNetwork(graph)
    log = []
    network.add_nodes(Flooder(i, fan_out, log) for i in range(case["n"]))
    for a, b in case["down"]:
        graph.link(a, b).up = False  # a bare write: nothing may cache ``up``
    if case["channel_seed"] is not None:
        network.set_channel(
            ImpairedChannel(
                Impairment(drop_prob=0.25, dup_prob=0.25, jitter=0.5),
                seed=case["channel_seed"],
            )
        )
    if case["ingress"] is not None:
        network.set_ingress(case["ingress"])
    if case["crashed"] is not None:
        network.crash_node(case["crashed"])
    tracer = Tracer.attach(network) if case["traced"] else None
    for origin, msg in zip(case["origins"], messages):
        fan_out(network, origin, msg, case["exclude"])
    network.run()
    m = network.metrics
    counters = (
        dict(m.messages), dict(m.bytes), m.dropped, m.channel_dropped,
        m.duplicated, m.deferred, m.queue_dropped,
    )
    traced = (
        None
        if tracer is None
        else [(r.time, r.src, r.dst, r.detail) for r in tracer.records]
    )
    return log, counters, network.sim.events_processed, network.sim.now, traced


@settings(max_examples=150, deadline=None)
@given(cases())
def test_broadcast_is_the_loop_it_replaces(case):
    # One message object per origin, shared by both runs, so the delivery
    # logs can compare identities.
    messages = [Probe(tag) for tag in range(len(case["origins"]))]
    assert drive(case, transport_broadcast, messages) == drive(
        case, reference_broadcast, messages
    )


def _star():
    return mk_graph(
        [(0, "Rt")] + [(i, "Cs") for i in range(1, 5)],
        [(0, i) for i in range(1, 5)],
    )


def test_every_check_of_send_survives_beside_broadcast():
    graph = _star()
    network = SimNetwork(graph)
    log = []
    network.add_nodes(Flooder(i, reference_broadcast, log) for i in range(5))
    with pytest.raises(ValueError, match="not neighbours"):
        network.send(1, 2, Probe(0))
    graph.link(0, 3).up = False
    network.send(0, 3, Probe(1))  # a down link drops and counts in send ...
    assert network.metrics.dropped == 1
    network.broadcast(0, Probe(2), exclude=2)  # ... and is skipped by the scan
    assert network.metrics.dropped == 1
    assert network.sim.pending == 2
    graph.link(0, 3).up = True  # the very next scan sees the repair
    network.broadcast(0, Probe(3))
    assert network.sim.pending == 6
    network.run()
    assert [dst for _, _, dst, _ in log] == [1, 4, 1, 2, 3, 4]


def test_node_broadcast_and_unscoped_flood_take_the_transport_verb():
    class Spy(SimNetwork):
        calls = 0

        def broadcast(self, src, msg, exclude=None):
            Spy.calls += 1
            super().broadcast(src, msg, exclude)

    scenario = scaled_scenario(30, seed=1)
    network = Spy(scenario.graph)
    make_protocol("plain-ls", scenario.graph, scenario.policies).build(network)
    network.start()
    network.run()
    floods = Spy.calls
    assert floods >= len(network.nodes)  # every origination and re-flood
    ProtocolNode.broadcast(network.nodes[0], Probe(0))
    assert Spy.calls == floods + 1


class Sink(ProtocolNode):
    def __init__(self, ad_id, log):
        super().__init__(ad_id)
        self.log = log

    def on_message(self, sender, msg):
        self.log.append((sender, self.ad_id))


def test_live_network_inherits_the_default_broadcast():
    assert LiveNetwork.broadcast is Transport.broadcast

    async def scenario():
        graph = _star()
        network = LiveNetwork(graph, time_scale=0.002)
        log = []
        for i in range(5):
            network.add_node(Sink(i, log))
        graph.link(0, 3).up = False
        await network.start()
        try:
            network.broadcast(0, ExchangeAck(token=7), exclude=2)
            assert await settle(network, timeout_s=60.0)
        finally:
            await network.close()
        return network, log

    network, log = asyncio.run(scenario())
    assert sorted(log) == [(0, 1), (0, 4)]
    assert network.metrics.messages == {"ExchangeAck": 2}
    assert network.metrics.dropped == 0


# ------------------------------------------------------------- call budget

#: Python-level calls per delivered message on the 100-AD plain-ls initial
#: convergence with a profiler attached.  28.14 before the handle-free
#: path, 12.94 with it; the slack is for a deliberate extra hop, not for
#: noise: a fresh interpreter repeats the count exactly, and first-use
#: work elsewhere in a test session moves it by a few calls in 244 000.
CALLS_PER_MESSAGE_BUDGET = 14.0


def test_python_calls_per_delivered_message_stay_within_budget():
    scenario = scaled_scenario(100, seed=0)
    network = make_protocol("plain-ls", scenario.graph, scenario.policies).build()
    network.set_profiler(PhaseProfiler())
    network.start()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        network.run()
    finally:
        sys.setprofile(previous)
    delivered = sum(network.metrics.messages.values())
    assert delivered > 10_000  # the run really flooded
    assert network.profiler.entries["proto.flood"] == delivered
    assert calls / delivered <= CALLS_PER_MESSAGE_BUDGET, (
        f"{calls} calls for {delivered} messages = {calls / delivered:.2f} "
        f"per message (budget {CALLS_PER_MESSAGE_BUDGET})"
    )
