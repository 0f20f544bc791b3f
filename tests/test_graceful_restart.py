"""Graceful restart: helpers hold, hold timers expire, resync refills.

The mechanism is driver-level (no new wire messages): a graceful crash
silences the node but leaves its links up in ground truth, survivors are
told to hold its routes as stale, and a hold timer bounds their
patience.  With every feature off the crash/restore machinery must be
byte-identical to the legacy disruptive path -- that invariant is what
keeps every committed experiment table unchanged.
"""

from repro.policy.generators import open_policies
from repro.protocols.graceful import (
    FEATURES,
    GR_FULL,
    GR_OFF,
    HOLD_TIME,
    GracefulRestartConfig,
)
from repro.protocols.registry import make_protocol
from repro.simul.runner import converge

from .helpers import mk_graph


def ring8():
    return mk_graph(
        [(i, "Rt") for i in range(8)],
        [(i, (i + 1) % 8) for i in range(8)],
    )


def _build(graceful=None, protocol="plain-ls"):
    graph = ring8()
    policies = open_policies(graph).policies
    kwargs = {} if graceful is None else {"graceful": graceful}
    proto = make_protocol(protocol, graph, policies, **kwargs)
    network = proto.build()
    converge(network)
    return proto, network


def _routes(proto):
    from repro.harness.chaos import routes_digest

    return routes_digest(proto)


# ------------------------------------------------------------------ config


def test_config_display_and_enabled_order():
    assert str(GR_OFF) == "none"
    assert str(GR_FULL) == "helper+resync"
    assert GR_FULL.enabled == FEATURES
    assert not GR_OFF.any_enabled
    assert GracefulRestartConfig(resync=True).enabled == ("resync",)


def test_graceful_option_flows_through_registry():
    proto, _ = _build(graceful="all")
    assert proto.runtime.graceful == GR_FULL
    plain, _ = _build()
    assert plain.runtime.graceful == GR_OFF


# ----------------------------------------------------------------- helpers


def test_helper_crash_keeps_links_up_and_counts_holds():
    proto, network = _build(graceful="all")
    before = _routes(proto)
    proto.crash_node(3, retain_state=True)
    # Ground truth never saw a topology change: the compiled FIB (and
    # find_route) keep forwarding through the silenced AD.
    assert all(link.up for link in proto.graph.links_of(3))
    assert _routes(proto) == before
    summary = proto.runtime_summary("graceful")
    assert summary["holds"] == 2  # both ring neighbours hold
    assert summary["expirations"] == 0


def test_hold_expiry_turns_the_restart_disruptive():
    proto, network = _build(graceful=GracefulRestartConfig(helper=True))
    proto.crash_node(3, retain_state=True)
    network.run(until=network.sim.now + HOLD_TIME + 150.0)
    summary = proto.runtime_summary("graceful")
    assert summary["expirations"] == 1
    # Helpers gave up: the withdrawal machinery ran after all.
    assert all(not link.up for link in proto.graph.links_of(3))


def test_hold_expires_at_hold_time_after_the_crash():
    proto, network = _build(graceful=GracefulRestartConfig(helper=True))
    t0 = network.sim.now
    proto.crash_node(3, retain_state=True)
    network.run(until=t0 + HOLD_TIME - 1.0)
    assert proto.runtime_summary("graceful")["expirations"] == 0
    assert all(link.up for link in proto.graph.links_of(3))
    network.run(until=t0 + HOLD_TIME + 1.0)
    assert proto.runtime_summary("graceful")["expirations"] == 1


def test_restore_within_hold_cancels_timer_and_resyncs():
    proto, network = _build(graceful="all")
    before = _routes(proto)
    proto.crash_node(3, retain_state=True)
    network.run(until=network.sim.now + HOLD_TIME / 6)  # well inside the hold
    proto.restore_node(3)
    network.run()
    summary = proto.runtime_summary("graceful")
    assert summary["expirations"] == 0  # the hold timer was cancelled
    assert summary["resyncs"] == 1
    assert _routes(proto) == before


def test_restore_after_the_hold_expired_takes_the_disruptive_path():
    # Resync is on, so a restore that still thought the AD was held would
    # count a resync round and leave the expired links down.
    proto, network = _build(graceful="all")
    before = _routes(proto)
    proto.crash_node(3, retain_state=True)
    network.run(until=network.sim.now + HOLD_TIME + 150.0)
    assert all(not link.up for link in proto.graph.links_of(3))
    proto.restore_node(3)
    network.run()
    assert all(link.up for link in proto.graph.links_of(3))
    summary = proto.runtime_summary("graceful")
    assert summary["expirations"] == 1
    assert summary["resyncs"] == 0
    assert _routes(proto) == before
    assert not proto.is_crashed(3)


def test_disabled_graceful_is_byte_identical_to_legacy_path():
    """GR off must not perturb the legacy crash/restore machinery at all."""

    def crash_cycle(graceful):
        proto, network = _build(graceful=graceful)
        proto.crash_node(3, retain_state=True)
        network.run(until=network.sim.now + 100.0)
        proto.restore_node(3)
        network.run()
        snap = network.metrics.snapshot(network.sim.now)
        return dict(snap.messages), snap.dropped, _routes(proto)

    assert crash_cycle(None) == crash_cycle("none") == crash_cycle(GR_OFF)


def test_gr_off_crash_is_disruptive():
    proto, network = _build()
    proto.crash_node(3, retain_state=True)
    assert all(not link.up for link in proto.graph.links_of(3))
    assert proto.runtime_summary("graceful") == {
        "holds": 0,
        "expirations": 0,
        "resyncs": 0,
    }


def test_graceful_works_on_the_dv_family_too():
    proto, network = _build(graceful="all", protocol="idrp")
    before = _routes(proto)
    proto.crash_node(5, retain_state=True)
    assert _routes(proto) == before  # stale routes held
    network.run(until=network.sim.now + 50.0)
    proto.restore_node(5)
    network.run()
    summary = proto.runtime_summary("graceful")
    assert summary["holds"] == 2
    assert summary["resyncs"] == 1
    assert _routes(proto) == before
