"""The live in-flight table: a datagram this process sent is never decoded.

Once the kernel accepts a datagram whose every body is lossless
(``wire.lossless``), ``LiveNetwork._transmit`` maps its exact bytes to
the ``(src, dst, msg)`` of its frames, and the receiving runtime pops
that entry instead of splitting and decoding the bytes.  These tests
require the shortcut to be invisible: dispatching a datagram from the
table gives a receiver exactly what decoding the same bytes gives it
(deliveries, counters, drops, quarantines), the table serves no datagram
whose bytes it was not keyed by or whose body is lossy, and it holds
nothing once the network is idle or closed.  The first lossless frame
of each message type and wire version a network sends is decoded at
once and must round-trip, so a kind ``lossless`` misjudges fails the
run instead of reaching receivers from the table.

Most cases capture the datagrams at the sender's socket (the kernel
"accepts" them) and feed them to the receiving runtime's ``enqueue``
by hand, so the order in which they reach a runtime, and with it the
order of the seeded receive-loss draws, is the same with the table and
without it.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values.  The table is a dict keyed by bytes, but it
is only ever popped by exact key, never iterated, so no outcome here may
depend on hash order.
"""

import asyncio
import dataclasses
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import LiveNetwork, settle
from repro.live import network as live_network
from repro.policy.generators import open_policies
from repro.protocols.flooding import ExchangeAck
from repro.protocols.registry import make_protocol
from repro.protocols.versioning import Hello, WireConfig
from repro.simul.node import ProtocolNode
from repro.simul import wire
from repro.simul.wire import WIRE_VERSION, encode_frame

from .helpers import codec_calls, mk_graph
from .test_simul_wire import assert_same_types, messages
from .test_wire_golden import VERSIONS

pytestmark = pytest.mark.hashseed

TIME_SCALE = 0.002


class Recorder(ProtocolNode):
    """Logs every delivery as (receiver, sender, msg)."""

    def __init__(self, ad_id, log):
        super().__init__(ad_id)
        self.log = log

    def on_message(self, sender, msg):
        self.log.append((self.ad_id, sender, msg))


class CapturingSocket:
    """Stands in for a runtime's socket: every datagram is accepted and
    kept, none reaches the kernel."""

    def __init__(self, sent):
        self.sent = sent

    def sendto(self, data, addr):
        self.sent.append((data, addr[1]))
        return len(data)


async def started(graph, log, version=WIRE_VERSION):
    """A started network of recorders whose sockets only capture."""
    network = LiveNetwork(graph, time_scale=TIME_SCALE)
    for ad in graph.ad_ids():
        node = network.add_node(Recorder(ad, log))
        node.wire = WireConfig(version=version, min_version=1)
    await network.start()
    sent = []
    for runtime in network._runtimes.values():
        runtime.sock = CapturingSocket(sent)
    return network, sent


async def flushed(network, sent):
    """Let the loop turn's flush run; return (and forget) what it sent."""
    await asyncio.sleep(0)
    assert network.outbox_frames() == 0
    datagrams = list(sent)
    sent.clear()
    return datagrams


async def arrive(network, datagrams):
    """Hand each captured datagram, in order, to the runtime bound to
    its port, then let the serve tasks dispatch every frame."""
    by_port = {rt.port: rt for rt in network._runtimes.values()}
    for data, port in datagrams:
        by_port[port].enqueue(data)
    for _ in range(1000):
        if network._queued == 0:
            return
        await asyncio.sleep(0)
    raise AssertionError(f"{network._queued} frame(s) still queued")


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60.0))


def outcome(network, log):
    """Everything a receiver can observe, and every counter."""
    counters = dataclasses.replace(network.metrics.snapshot(0.0), last_activity=0.0)
    blocked = {ad: set(node.version_blocked) for ad, node in network.nodes.items()}
    return list(log), counters, blocked


# ------------------------------------ a table hit is what decoding gives


#: Bodies the table must refuse: a Hello down-emitted to v1 loses its
#: capabilities.
lossy_messages = st.builds(
    Hello,
    version=st.sampled_from(VERSIONS),
    min_version=st.just(1),
    capabilities=st.lists(st.sampled_from(["graceful", "x"]), max_size=2).map(tuple),
)


@st.composite
def cases(draw):
    n = draw(st.integers(2, 5))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return dict(
        n=n,
        edges=edges,
        version=draw(st.sampled_from(VERSIONS)),
        sends=draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    messages | lossy_messages,
                    st.none() | st.integers(0, n - 1),
                ),
                min_size=1,
                max_size=4,
            )
        ),
        crashed=draw(st.none() | st.integers(0, n - 1)),
        loss=draw(st.sampled_from([0.0, 0.5])),
    )


def deliver(case, *, table):
    """Broadcast the case's messages, then hand the captured datagrams to
    their receivers -- from the table, or with the table cleared."""

    async def scenario():
        graph = mk_graph([(i, "Rt") for i in range(case["n"])], case["edges"])
        log = []
        network, sent = await started(graph, log, case["version"])
        try:
            if case["crashed"] is not None:
                network.crash_node(case["crashed"])
            network.set_recv_loss(case["loss"], seed=7)
            for src, msg, exclude in case["sends"]:
                network.broadcast(src, msg, exclude)
            datagrams = await flushed(network, sent)
            if not table:
                network._in_flight.clear()
            known = len(network._in_flight)
            with codec_calls() as calls:
                await arrive(network, datagrams)
            assert network._in_flight == {}
            assert network.errors == []
            return datagrams, outcome(network, log), calls, known
        finally:
            await network.close()

    return run(scenario())


@settings(max_examples=40, deadline=None)
@given(cases())
def test_a_table_hit_is_what_decoding_the_same_bytes_gives(case):
    datagrams, (log, counters, blocked), calls, known = deliver(case, table=True)
    again, (parsed_log, parsed_counters, parsed_blocked), parse_calls, _ = deliver(
        case, table=False
    )
    # The very same bytes both ways (the ports are each network's own).
    assert [data for data, _ in datagrams] == [data for data, _ in again]
    assert counters == parsed_counters
    assert blocked == parsed_blocked
    assert [(to, frm) for to, frm, _ in log] == [(to, frm) for to, frm, _ in parsed_log]
    for (_, _, msg), (_, _, parsed) in zip(log, parsed_log):
        assert msg == parsed
        assert_same_types(msg, parsed)
    # Every datagram the table held was dispatched without a split or a
    # decode; only the rest (each holding a lossy body) were decoded.
    assert parse_calls["split"] == len(datagrams)
    assert calls["split"] == len(datagrams) - known
    lossless_sends = all(
        wire.lossless(msg, case["version"]) for _, msg, _ in case["sends"]
    )
    if datagrams and lossless_sends:
        assert known == len(datagrams)


# ------------------------------------------- what the table never serves


def _pair():
    return mk_graph([(0, "Rt"), (1, "Rt")], [(0, 1)])


def test_a_copy_with_one_byte_changed_is_decoded():
    async def scenario():
        log = []
        network, sent = await started(_pair(), log)
        try:
            network.send(0, 1, ExchangeAck(token=7))
            [(data, port)] = await flushed(network, sent)
            altered = data.replace(b'"token":7', b'"token":8')
            assert len(altered) == len(data) and altered != data
            with codec_calls() as calls:
                await arrive(network, [(altered, port)])
                assert calls == {"split": 1, "decode": 1}
                assert network._in_flight.keys() == {data}
                await arrive(network, [(data, port)])
                assert calls == {"split": 1, "decode": 1}
            assert network._in_flight == {}
            return log
        finally:
            await network.close()

    log = run(scenario())
    assert [msg for _, _, msg in log] == [ExchangeAck(token=8), ExchangeAck(token=7)]


def test_a_datagram_from_a_raw_socket_is_decoded():
    async def scenario():
        log = []
        network = LiveNetwork(_pair(), time_scale=TIME_SCALE)
        for ad in (0, 1):
            network.add_node(Recorder(ad, log))
        await network.start()
        intruder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            with codec_calls() as calls:
                intruder.sendto(
                    encode_frame(0, 1, ExchangeAck(token=5)),
                    ("127.0.0.1", network.port_of(1)),
                )
                deadline = asyncio.get_running_loop().time() + 5.0
                while not log and asyncio.get_running_loop().time() < deadline:
                    await asyncio.sleep(0.001)
            assert calls == {"split": 1, "decode": 1}
            assert network._in_flight == {}
            return log
        finally:
            intruder.close()
            await network.close()

    assert run(scenario()) == [(1, 0, ExchangeAck(token=5))]


@pytest.mark.parametrize(
    "lossy",
    [
        pytest.param(
            Hello(version=2, min_version=1, capabilities=("graceful",)),
            id="v1-field-revisions",
        ),
    ],
)
def test_a_datagram_with_a_lossy_body_is_decoded_whole(lossy):
    async def scenario():
        log = []
        network, sent = await started(_pair(), log, 1)
        try:
            # One lossless frame beside the lossy one: the datagram is one
            # unit, so neither frame comes from the table.
            network.send(0, 1, ExchangeAck(token=1))
            network.send(0, 1, lossy)
            datagrams = await flushed(network, sent)
            assert len(datagrams) == 1
            assert network._in_flight == {}
            with codec_calls() as calls:
                await arrive(network, datagrams)
            assert calls == {"split": 1, "decode": 2}
            return log
        finally:
            await network.close()

    (_, _, ack), (_, _, received) = run(scenario())
    assert ack == ExchangeAck(token=1)
    assert received is not lossy
    # The v1 body carries no capabilities: they default, as parsing says.
    assert received == Hello(version=2, min_version=1)


def test_the_second_of_two_identical_datagrams_in_flight_is_decoded():
    async def scenario():
        log = []
        network, sent = await started(_pair(), log)
        ack = ExchangeAck(token=3)
        try:
            network.send(0, 1, ack)
            first = await flushed(network, sent)
            network.send(0, 1, ack)
            second = await flushed(network, sent)
            assert first == second
            assert len(network._in_flight) == 1
            with codec_calls() as calls:
                await arrive(network, first)
                assert calls == {"split": 0, "decode": 0}
                await arrive(network, second)
                assert calls == {"split": 1, "decode": 1}
            assert network._in_flight == {}
            return log
        finally:
            await network.close()

    (_, _, hit), (_, _, parsed) = run(scenario())
    assert hit == parsed == ExchangeAck(token=3)


def test_a_datagram_dropped_at_a_runtime_not_serving_leaves_no_entry():
    async def scenario():
        network, sent = await started(_pair(), [])
        try:
            network.send(0, 1, ExchangeAck(token=4))
            datagrams = await flushed(network, sent)
            assert len(network._in_flight) == 1
            runtime = network._runtimes[1]
            runtime.state = live_network.NodeState.DRAINING
            dropped = network.metrics.dropped
            runtime.enqueue(datagrams[0][0])
            assert network.metrics.dropped == dropped + 1
            assert network._in_flight == {}
            assert network.idle()
            runtime.state = live_network.NodeState.SERVING
        finally:
            await network.close()

    run(scenario())


# ------------------------------------ the first frame of each kind is decoded


def test_the_first_lossless_frame_of_each_kind_is_decoded_once_per_network():
    async def scenario(version):
        network, sent = await started(_pair(), [], version)
        try:
            with codec_calls() as calls:
                for token in (1, 2, 3):
                    network.send(0, 1, ExchangeAck(token=token))
                network.send(1, 0, ExchangeAck(token=4))
            await flushed(network, sent)
            return calls, set(network._checked_kinds)
        finally:
            await network.close()

    for version in VERSIONS:
        for _ in range(2):  # a new network checks again
            calls, checked = run(scenario(version))
            assert calls == {"split": 0, "decode": 1}
            assert checked == {(ExchangeAck, version)}


def test_a_kind_that_does_not_round_trip_fails_its_first_send(monkeypatch):
    # Were ``lossless`` to pass a Hello down-emitted to v1, the table would
    # hand the receiver capabilities decoding drops: the check refuses.
    monkeypatch.setattr(live_network, "lossless", lambda msg, version: True)

    async def scenario():
        network, sent = await started(_pair(), [], 1)
        try:
            with pytest.raises(wire.WireError, match="Hello at wire version 1"):
                network.send(
                    0, 1, Hello(version=2, min_version=1, capabilities=("graceful",))
                )
            assert network.outbox_frames() == 0
            network.send(0, 1, ExchangeAck(token=5))
            assert len(await flushed(network, sent)) == 1
        finally:
            await network.close()

    run(scenario())


# ------------------------------------------------ empty when idle or closed


def test_the_table_is_empty_whenever_the_network_is_idle():
    async def scenario():
        graph = mk_graph(
            [(i, "Rt") for i in range(8)], [(i, (i + 1) % 8) for i in range(8)]
        )
        proto = make_protocol(
            "plain-ls", graph, open_policies(graph).policies, substrate="live"
        )
        network = LiveNetwork(proto.graph, time_scale=TIME_SCALE)
        proto.build(network=network)
        checks = []
        idle = network.idle

        def checked_idle():
            holds = idle()
            if holds:
                checks.append(len(network._in_flight))
            return holds

        network.idle = checked_idle
        await network.start()
        try:
            assert await settle(network, timeout_s=30.0)
            network.set_link_status(0, 1, False)
            assert await settle(network, timeout_s=30.0)
            network.set_link_status(0, 1, True)
            assert await settle(network, timeout_s=30.0)
            assert network.errors == []
        finally:
            await network.close()
        return checks

    checks = run(scenario())
    assert checks and set(checks) == {0}


def test_close_forgets_datagrams_no_socket_will_receive():
    async def scenario():
        network, sent = await started(_pair(), [])
        network.send(0, 1, ExchangeAck(token=9))
        await flushed(network, sent)
        assert len(network._in_flight) == 1 and not network.idle()
        await network.close()
        assert network._in_flight == {}

    run(scenario())
