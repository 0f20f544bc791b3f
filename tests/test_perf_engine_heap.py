"""Engine heap hygiene and the perf-config plumbing.

Pins the cancelled-handle compaction contract: cancelling more than half
of a large queue compacts it in place (heap shrinks, ``compactions``
increments) without perturbing the (time, seq) pop order of the
survivors, while small queues rely on the cheaper lazy skip.  Also pins
how :class:`~repro.protocols.perf.PerfConfig` travels: the ``perf``
pseudo-option in :func:`~repro.protocols.registry.make_protocol`, the
build-time distribution to every node, and the restamping of
state-losing restarts.
"""

from __future__ import annotations

from repro.adgraph.ad import AD, ADKind, InterADLink, Level, LinkKind
from repro.adgraph.graph import InterADGraph
from repro.policy.database import PolicyDatabase
from repro.protocols.perf import FAST, LEGACY
from repro.protocols.registry import make_protocol
from repro.simul.engine import Simulator


# ------------------------------------------------------------ heap hygiene


def test_cancelling_most_of_a_large_queue_compacts_it():
    sim = Simulator()
    fired = []
    handles = [
        sim.schedule(float(i), fired.append, i) for i in range(100)
    ]
    for handle in handles[:60]:
        handle.cancel()
    # The 51st cancel tips past 50%: the queue compacts to the 49
    # then-surviving entries; the last 9 cancels stay lazy tombstones.
    assert sim.compactions == 1
    assert sim.pending == 49
    sim.run()
    assert fired == list(range(60, 100))  # survivor order intact


def test_small_queues_skip_lazily_without_compacting():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(float(i), fired.append, i) for i in range(10)]
    for handle in handles[:9]:
        handle.cancel()
    assert sim.compactions == 0
    assert sim.pending == 10  # tombstones still queued ...
    sim.run()
    assert fired == [9]  # ... but skipped at pop time
    assert sim.pending == 0


def test_interleaved_cancellations_preserve_determinism():
    """Same schedule, cancel pattern crossing the compaction threshold:
    the surviving firing order must equal the never-compacted order."""

    def drive(n):
        sim = Simulator()
        fired = []
        handles = []
        for i in range(n):
            # Deliberate time collisions so seq tie-breaks matter.
            handles.append(sim.schedule(float(i % 7), fired.append, i))
        for i, handle in enumerate(handles):
            if i % 4 != 0:  # cancel 3 of every 4
                handle.cancel()
        sim.run()
        return fired, sim.compactions

    small, small_compactions = drive(40)
    large, compactions = drive(400)
    assert small_compactions == 0 and compactions >= 1
    expected = sorted(
        (i for i in range(400) if i % 4 == 0), key=lambda i: (i % 7, i)
    )
    assert large == expected
    assert small == [i for i in expected if i < 40]


def test_cancel_is_idempotent_and_post_fire_cancel_is_harmless():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    victim = sim.schedule(2.0, fired.append, "y")
    victim.cancel()
    victim.cancel()  # double-cancel counts once
    assert sim._cancelled_pending == 1
    sim.run()
    assert fired == ["x"]
    assert sim._cancelled_pending == 0
    handle.cancel()  # already fired: marks the flag, no counter drift
    assert handle.cancelled
    assert sim._cancelled_pending == 0


def test_compaction_counter_survives_lazy_pops():
    sim = Simulator()
    early = [sim.schedule(float(i), lambda: None) for i in range(100)]
    extra = [sim.schedule(200.0 + i, lambda: None) for i in range(100)]
    for handle in early[:50]:
        handle.cancel()  # 50 of 200: below the compaction threshold
    assert sim.compactions == 0
    sim.run(until=150.0)  # lazily pops the early half, tombstones included
    assert sim._cancelled_pending == 0  # the lazy pops drained the counter
    for handle in extra[:60]:
        handle.cancel()
    # Were the counter stale (still 50), the very first cancel would
    # have compacted; the fresh count compacts exactly at the 51st.
    assert sim.compactions == 1
    assert sim.pending == 49


def test_posted_events_ride_through_compaction_untouched():
    """A heap that is mostly cancelled timers plus posted events: the
    posted ones have no handle to inspect, must never be dropped or
    reordered by compaction, and must not skew its bookkeeping."""

    def drive(extra):
        """300 timers, 4 of 5 cancelled; ``extra`` adds every third event
        again through ``sim.post``, ``sim.schedule`` (never cancelled) or
        not at all (``None``)."""
        sim = Simulator()
        fired = []
        handles = []
        for i in range(300):
            # Time collisions so the (time, seq) tie-break matters.
            handles.append(sim.schedule(float(i % 5), fired.append, ("timer", i)))
            if extra is not None and i % 3 == 0:
                getattr(sim, extra)(float(i % 5), fired.append, ("extra", i))
        trail = []
        for i, handle in enumerate(handles):
            if i % 5 != 0:
                handle.cancel()
                trail.append((sim.compactions, sim._cancelled_pending))
        sim.run()
        return fired, trail, sim.compactions, sim._cancelled_pending

    fired, trail, compactions, left = drive("post")
    assert compactions >= 1 and left == 0
    timers = [(i % 5, 2 * i) for i in range(300) if i % 5 == 0]
    extras = [(i % 5, 2 * i + 1) for i in range(300) if i % 3 == 0]
    expected = [
        ("extra" if key % 2 else "timer", key // 2)
        for _, key in sorted(timers + extras)
    ]
    assert fired == expected  # every posted event, in (time, insertion) order

    # Handle-only twin with the same queue entries (the posted events as
    # never-cancelled timers): same firing order, and compaction fires at
    # the same cancels and leaves the same tombstone count after each.
    assert drive("schedule") == (fired, trail, compactions, left)
    assert drive(None)[0] == [e for e in fired if e[0] == "timer"]


# -------------------------------------------------------- config plumbing


def test_perf_config_strings():
    assert str(FAST) == "incremental_spf+delta_view"
    assert str(LEGACY) == "none"
    assert not LEGACY.any_enabled
    assert FAST.enabled == ("incremental_spf", "delta_view")


def triangle():
    graph = InterADGraph()
    for ad_id in range(3):
        graph.add_ad(AD(ad_id, f"ad{ad_id}", Level.CAMPUS, ADKind.HYBRID))
    for a, b in [(0, 1), (1, 2), (0, 2)]:
        graph.add_link(InterADLink(a, b, LinkKind.HIERARCHICAL, {"delay": 1.0}))
    return graph


def test_registry_perf_option_reaches_every_node():
    protocol = make_protocol("plain-ls", triangle(), PolicyDatabase(), perf="none")
    assert protocol.runtime.perf == LEGACY
    network = protocol.build()
    assert all(node.perf == LEGACY for node in network.nodes.values())


def test_perf_defaults_on_and_survives_stateless_restart():
    protocol = make_protocol("plain-ls", triangle(), PolicyDatabase(), perf="none")
    protocol.converge()
    protocol.crash_node(1, retain_state=False)
    protocol.restore_node(1)
    assert protocol.network.nodes[1].perf == LEGACY
    # And the default, untouched, is the fast config everywhere.
    fast = make_protocol("plain-ls", triangle(), PolicyDatabase())
    assert fast.runtime.perf == FAST
    assert all(n.perf == FAST for n in fast.build().nodes.values())
