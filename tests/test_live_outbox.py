"""The live send path: one datagram per adjacency per loop turn.

``LiveNetwork.send`` appends each encoded frame to its (src, dst)
outbox; one flush per event-loop turn packs every adjacency's frames,
in send order, into as few datagrams as fit ``MAX_DATAGRAM_BYTES``, and
a runtime splits a datagram back into its frames at their length
prefixes (unless the datagram is in the in-flight table,
``tests/test_live_in_flight.py``).  These tests pin the packing as a round trip, the loud
failure of a datagram whose prefix overruns it, the outbox's place in
quiescence, and the coalescing itself as a count (never a timing).
"""

import asyncio
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import LiveSubstrate, settle
from repro.live.network import MAX_DATAGRAM_BYTES, pack_frames, split_datagram
from repro.live.runner import SettleTimeout
from repro.protocols.flooding import ExchangeAck
from repro.protocols.registry import make_protocol
from repro.simul.wire import WireError, encode_frame
from repro.workloads.scenarios import scaled_scenario

from .test_live_supervisor import (
    TIME_SCALE,
    _converged_network,
    _run,
    _wait_for,
    ring8,
)


def _frame(body_len: int, fill: int) -> bytes:
    return body_len.to_bytes(4, "big") + bytes([fill]) * body_len


# Bodies of every scale: a handful of bytes, a few KiB, up to a whole datagram.
_BODY_LENS = st.one_of(
    st.integers(0, 64),
    st.integers(0, 4096),
    st.integers(0, MAX_DATAGRAM_BYTES - 4),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_BODY_LENS, max_size=30), min_size=1, max_size=4))
def test_packing_round_trips_each_adjacencys_frames_in_order(adjacencies):
    for body_lens in adjacencies:
        frames = [_frame(n, i % 256) for i, n in enumerate(body_lens)]
        packed = pack_frames(frames)
        datagrams = [datagram for datagram, _count in packed]
        assert all(len(datagram) <= MAX_DATAGRAM_BYTES for datagram in datagrams)
        assert [count for _datagram, count in packed] == [
            len(split_datagram(datagram)) for datagram in datagrams
        ]
        assert [f for d in datagrams for f in split_datagram(d)] == frames
        # As few as fit: no datagram could have taken its successor's
        # first frame.
        for (here, _), (there, _) in zip(packed, packed[1:]):
            first = split_datagram(there)[0]
            assert len(here) + len(first) > MAX_DATAGRAM_BYTES


def test_a_prefix_that_overruns_its_datagram_leaves_the_rest_one_frame():
    good = _frame(5, 1)
    assert split_datagram(good + b"\x00\x00\x01\x00xyz") == [good, b"\x00\x00\x01\x00xyz"]
    assert split_datagram(good + b"\x00\x01") == [good, b"\x00\x01"]
    assert split_datagram(b"\x00\x00\x01\x00xyz") == [b"\x00\x00\x01\x00xyz"]
    assert split_datagram(b"") == [b""]  # the decoder's "short frame"


def test_an_overrunning_prefix_fails_the_run_loudly_and_names_the_ad():
    async def scenario():
        _proto, network = await _converged_network(ring8())
        rt = network._runtimes[1]
        dispatched = rt.dispatched
        # A well-formed frame, then a prefix claiming more than is left.
        datagram = encode_frame(0, 1, ExchangeAck(0)) + b"\x00\x00\x10\x00{}"
        intruder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            intruder.sendto(datagram, ("127.0.0.1", network.port_of(1)))
            # The frame before it is dispatched; the remainder is one frame.
            await _wait_for(
                lambda: rt.dispatched - dispatched == 2, 5.0, "both frames"
            )
            with pytest.raises(RuntimeError, match="serve-task failure") as info:
                await settle(network, timeout_s=5.0)
            cause = info.value.__cause__
            assert isinstance(cause, WireError)
            assert str(cause).startswith("AD 1: frame length 4096 != body length 2")
        finally:
            intruder.close()
            await network.close()

    _run(scenario())


def test_frames_in_the_outbox_keep_the_network_from_quiescence():
    async def scenario():
        _proto, network = await _converged_network(ring8())
        try:
            sent, datagrams = network.frames_sent, network.datagrams_sent
            for token in range(3):
                network.nodes[2].send(3, ExchangeAck(token))
            network.nodes[2].send(1, ExchangeAck(3))
            # Nothing left the process yet: no yield, so no flush.
            assert network.outbox_frames() == 4
            assert network.frames_sent == sent
            assert not network.idle() and not network.quiescent()
            with pytest.raises(SettleTimeout) as info:
                await settle(network, timeout_s=0.0)
            message = str(info.value)
            assert "frames not yet sent: 4 (outbox=4 retrying=0)" in message
            assert "frames in flight" not in message

            assert await settle(network, timeout_s=5.0)
            assert network.outbox_frames() == 0
            assert network.frames_sent == sent + 4 == network.frames_received
            # One loop turn, two adjacencies: two datagrams.
            assert network.datagrams_sent == datagrams + 2
        finally:
            await network.close()

    _run(scenario())


def test_each_adjacencys_frames_arrive_in_send_order():
    async def scenario():
        _proto, network = await _converged_network(ring8())
        seen = {1: [], 3: []}
        for ad_id, tokens in seen.items():
            node = network.nodes[ad_id]
            real = node.receive

            def receive(src, msg, real=real, tokens=tokens):
                if isinstance(msg, ExchangeAck):
                    tokens.append(msg.token)
                real(src, msg)

            node.receive = receive
        try:
            for turn in range(3):
                for token in range(10 * turn, 10 * turn + 10):
                    network.nodes[2].send(3 if token % 3 else 1, ExchangeAck(token))
                await asyncio.sleep(0)
            assert await settle(network, timeout_s=5.0)
            assert seen[3] == [t for t in range(30) if t % 3]
            assert seen[1] == [t for t in range(30) if not t % 3]
        finally:
            await network.close()

    _run(scenario())


def test_convergence_storm_sends_several_frames_per_datagram():
    """One datagram per frame would read 1.0; coalescing reads ~0.06."""
    scenario = scaled_scenario(100, seed=0)

    async def converge_live():
        proto = make_protocol(
            "plain-ls",
            scenario.graph.copy(),
            scenario.policies.copy(),
            substrate="live",
        )
        substrate = LiveSubstrate(proto, time_scale=TIME_SCALE, timeout_s=20.0)
        try:
            await substrate.start()
            result = await substrate.settle()
            network = substrate.network
            return result, network.datagrams_sent, network.frames_sent
        finally:
            await substrate.close()

    result, datagrams, frames = _run(converge_live())
    assert result.quiesced and frames > 1000
    assert datagrams / frames <= 0.5
