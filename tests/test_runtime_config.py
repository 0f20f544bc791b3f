"""The unified node runtime config and the engine/transport boundary.

One container (:class:`NodeRuntimeConfig`) now carries every build-time
node knob -- hardening, validation, pacing, perf, ingress -- through one
distribution hook; these tests pin the container's semantics, the
registry's option handling, and the transport-level timer contract that
both substrates implement.
"""

import pytest

from repro.policy.generators import open_policies
from repro.protocols.hardening import HardeningConfig, hardening_from
from repro.protocols.pacing import PacingConfig
from repro.protocols.perf import PerfConfig
from repro.protocols.registry import make_protocol
from repro.protocols.runtime import NodeRuntimeConfig, runtime_from
from repro.protocols.validation import ValidationConfig
from repro.simul.engine import Simulator
from repro.simul.ingress import IngressConfig
from repro.simul.network import SimNetwork
from repro.simul.transport import Clock, TimerHandle, Transport

from .helpers import mk_graph


def small_setting():
    graph = mk_graph(
        [(i, "Rt") for i in range(4)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    return graph, open_policies(graph).policies


# ------------------------------------------------------------- the container


def test_default_runtime_is_inert():
    runtime = NodeRuntimeConfig()
    assert not runtime.hardening.any_enabled
    assert not runtime.validation.any_enabled
    assert not runtime.pacing.any_enabled
    assert runtime.ingress is None


def test_replace_returns_new_container():
    runtime = NodeRuntimeConfig()
    hardened = runtime.replace(hardening=hardening_from("all"))
    assert hardened is not runtime
    assert hardened.hardening.any_enabled
    assert not runtime.hardening.any_enabled  # original untouched
    assert hardened.pacing == runtime.pacing


def test_runtime_from_accepts_primitives():
    runtime = runtime_from(
        hardening="all",
        validation="all",
        pacing="pace",
        ingress=IngressConfig(capacity=8),
    )
    assert runtime.hardening.any_enabled
    assert runtime.validation.any_enabled
    assert runtime.pacing.any_enabled
    assert runtime.ingress.capacity == 8
    assert isinstance(runtime.hardening, HardeningConfig)
    assert isinstance(runtime.validation, ValidationConfig)
    assert isinstance(runtime.pacing, PacingConfig)
    assert isinstance(runtime.perf, PerfConfig)


# --------------------------------------------------- protocol-facing surface


def test_build_stamps_every_node_once():
    graph, policies = small_setting()
    proto = make_protocol("plain-ls", graph, policies,
                          hardening="all", pacing="pace")
    network = proto.build()
    for node in network.nodes.values():
        assert node.hardening is proto.runtime.hardening
        assert node.pacing is proto.runtime.pacing
        assert node.perf is proto.runtime.perf


def test_registry_runtime_option():
    graph, policies = small_setting()
    runtime = runtime_from(hardening="all")
    proto = make_protocol("plain-ls", graph, policies, runtime=runtime)
    assert proto.runtime is runtime


def test_registry_rejects_runtime_plus_components():
    graph, policies = small_setting()
    with pytest.raises(ValueError, match="not both"):
        make_protocol("plain-ls", graph, policies,
                      runtime=NodeRuntimeConfig(), hardening="all")


def test_registry_rejects_bad_runtime_type():
    graph, policies = small_setting()
    with pytest.raises(TypeError, match="NodeRuntimeConfig"):
        make_protocol("plain-ls", graph, policies, runtime="all")


def test_registry_substrate_option():
    graph, policies = small_setting()
    proto = make_protocol("plain-ls", graph, policies, substrate="live")
    assert proto.substrate == "live"
    assert make_protocol("plain-ls", graph.copy(), policies.copy()).substrate == "sim"
    with pytest.raises(ValueError, match="substrate"):
        make_protocol("plain-ls", graph.copy(), policies.copy(),
                      substrate="quantum")


def test_ingress_distributed_through_runtime():
    graph, policies = small_setting()
    proto = make_protocol("plain-ls", graph, policies,
                          ingress=IngressConfig(capacity=16))
    network = proto.build()
    assert network.ingress is not None
    assert network.ingress.config.capacity == 16


# ------------------------------------------------- transport timer contract


def test_sim_network_implements_transport():
    graph, policies = small_setting()
    proto = make_protocol("plain-ls", graph, policies)
    network = proto.build()
    assert isinstance(network, Transport)
    assert isinstance(network.clock, Clock)
    assert network.clock.now == network.sim.now


def test_schedule_returns_timer_handle_cancel_after_fire():
    """The documented contract: cancel() after the timer fired is a
    harmless no-op, on any substrate."""
    graph, policies = small_setting()
    proto = make_protocol("plain-ls", graph, policies)
    network = proto.build()
    node = network.nodes[0]
    fired = []
    handle = node.schedule(1.0, fired.append, "x")
    assert isinstance(handle, TimerHandle)
    network.sim.run(max_events=100)
    assert fired == ["x"]
    handle.cancel()  # after fire: no error, no effect
    handle.cancel()  # idempotent
    assert handle.cancelled


def test_retired_node_timers_never_fire():
    graph, policies = small_setting()
    proto = make_protocol("plain-ls", graph, policies)
    network = proto.build()
    node = network.nodes[0]
    fired = []
    node.schedule(1.0, fired.append, "x")
    node.retire()
    network.sim.run(max_events=100)
    assert fired == []


def test_sim_clock_call_later_matches_schedule():
    sim = Simulator()
    graph, _ = small_setting()
    network = SimNetwork(graph)
    order = []
    network.clock.call_later(2.0, order.append, "b")
    network.clock.call_later(1.0, order.append, "a")
    network.sim.run(max_events=10)
    assert order == ["a", "b"]
    assert sim.now == 0.0  # the scratch simulator was never involved
