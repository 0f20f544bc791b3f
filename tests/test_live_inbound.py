"""The live inbound path: one readiness callback reads a socket dry.

Each AD's runtime is its socket's datagram protocol.  asyncio reads one
datagram per readiness callback; the runtime then reads every other
datagram already waiting, so a burst costs one callback and one
serve-task wake, not one per frame.  These tests pin that as counts
(never timings), pin the drop accounting of a burst at a crashed AD,
and pin where a receive error raised mid-drain goes.
"""

import asyncio

import pytest

from repro.live import LiveSubstrate, settle
from repro.live import network as live_network
from repro.protocols.flooding import ExchangeAck
from repro.protocols.registry import make_protocol
from repro.workloads.scenarios import scaled_scenario

from .test_live_supervisor import (
    TIME_SCALE,
    _converged_network,
    _run,
    _wait_for,
    ring8,
)


@pytest.fixture
def readiness(monkeypatch):
    """Count readiness callbacks: asyncio calls ``datagram_received``
    once per ``_read_ready``, whatever the runtime then drains."""
    calls = []
    received = live_network._NodeRuntime.datagram_received

    def counting(self, data, addr):
        calls.append(self.ad_id)
        received(self, data, addr)

    monkeypatch.setattr(
        live_network._NodeRuntime, "datagram_received", counting
    )
    return calls


def test_convergence_storm_reads_many_frames_per_readiness_callback(readiness):
    """One callback per frame would read 1.0; draining reads ~0.03 here."""
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
            return result, substrate.network.frames_received
        finally:
            await substrate.close()

    result, frames = _run(converge_live())
    assert result.quiesced and frames > 1000
    assert len(readiness) / frames <= 0.5


def test_burst_to_a_crashed_ad_is_dropped_and_counted(readiness):
    K = 40

    async def scenario():
        _proto, network = await _converged_network(ring8())
        try:
            network.crash_node(3)
            callbacks = len(readiness)
            for token in range(K):
                network.nodes[2].send(3, ExchangeAck(token))
            await network.drained()
            assert network.metrics.dropped == K
            assert network.frames_sent == network.frames_received
            assert network.idle()
            assert len(readiness) - callbacks < K
        finally:
            await network.close()

    _run(scenario())


class _FailingSecondRecv:
    """A socket stand-in whose second ``recv`` raises ``exc``."""

    def __init__(self, sock, exc):
        self.sock, self.exc, self.calls = sock, exc, 0

    def recv(self, size):
        self.calls += 1
        if self.calls == 2:
            raise self.exc
        return self.sock.recv(size)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_receive_error_mid_drain_fails_the_run_after_the_frame_before_it():
    """Two datagrams wait -- their frames were sent in separate loop
    turns, so no flush coalesces them: asyncio reads the first, the
    drain's first recv the second, its next recv fails.  Both frames are
    dispatched; the error reaches ``network.fail`` and the next settle
    raises it."""
    boom = OSError("injected receive error")

    async def scenario():
        _proto, network = await _converged_network(ring8())
        try:
            rt = network._runtimes[1]
            rt.sock = _FailingSecondRecv(rt.sock, boom)
            dispatched = rt.dispatched
            network.nodes[0].send(1, ExchangeAck(0))
            await asyncio.sleep(0)  # its own flush, its own datagram
            network.nodes[0].send(1, ExchangeAck(1))
            await _wait_for(
                lambda: rt.dispatched - dispatched == 2, 5.0, "both frames"
            )
            assert rt.sock.calls == 2
            assert network.errors == [boom]
            with pytest.raises(RuntimeError, match="serve-task failure") as info:
                await settle(network, timeout_s=5.0)
            assert info.value.__cause__ is boom
        finally:
            await network.close()

    _run(scenario())
