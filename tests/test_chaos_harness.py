"""The cell driver and the chaos plan/spec vocabulary.

E15's machinery decomposed: partition plans that deliberately disconnect
the internet, the FaultSpec chaos axis, the substrate sweep, the ring
scenario, the record's v7 ``chaos`` block, and the one cell driver --
whose simulator runs must stay byte-deterministic (the determinism gate
diffs their table rows), must show graceful restart riding out a crash
the legacy path cannot, and must run a plain, a chaos and an upgrade
cell through the same coroutine on both substrates.
"""

import asyncio
import json
import random

import pytest

from repro.faults.plan import (
    PARTITION_FRACTION,
    FaultPlan,
    LinkFault,
    NodeFault,
    grouped_events,
    partition_plan,
)
from repro.harness import chaos, run_experiment
from repro.harness.chaos import execute_chaos_cell
from repro.harness.record import SCHEMA_VERSION, RunRecord
from repro.harness.session import build_cell, execute_cell, open_substrate
from repro.harness.spec import (
    Cell,
    ExperimentSpec,
    FailureSpec,
    FaultSpec,
    MisbehaviorSpec,
    ProtocolSpec,
    ScenarioSpec,
    TrafficSpec,
)
from repro.simul.profiling import PhaseProfiler
from repro.workloads import ring_scenario

from .helpers import mk_graph


def ring8():
    return mk_graph(
        [(i, "Rt") for i in range(8)],
        [(i, (i + 1) % 8) for i in range(8)],
    )


def _chaos_cell(protocol=None, fault=None, traffic=None, *, substrate="sim",
                misbehavior=MisbehaviorSpec()):
    return Cell(
        experiment="chaos-test",
        index=0,
        scenario=ScenarioSpec(kind="ring", seed=0, num_flows=12),
        protocol=protocol or ProtocolSpec("plain-ls"),
        failure=FailureSpec(),
        fault=fault or FaultSpec(restarts=1, partitions=1, seed=3),
        misbehavior=misbehavior,
        traffic=traffic or TrafficSpec(flows=2000, pairs=64, seed=3),
        substrate=substrate,
    )


@pytest.fixture(scope="module")
def sim_record():
    return execute_chaos_cell(_chaos_cell())


@pytest.fixture(scope="module")
def graced_record():
    return execute_chaos_cell(
        _chaos_cell(
            ProtocolSpec(
                "plain-ls",
                label="plain-ls+gr",
                options=(("graceful", "all"),),
            )
        )
    )


# ------------------------------------------------------------ partition plan


def test_partition_plan_cuts_a_boundary_and_heals_it():
    graph = ring8()
    plan = partition_plan(graph, start_time=100.0, duration=200.0, seed=7)
    downs = [ev for ev in plan if not ev.up]
    ups = [ev for ev in plan if ev.up]
    # An island of ~30% of a ring has exactly two boundary links.
    assert len(downs) == 2 and len(ups) == 2
    assert all(ev.time == 100.0 for ev in downs)
    assert all(ev.time == 300.0 for ev in ups)
    assert sorted((ev.a, ev.b) for ev in downs) == sorted(
        (ev.a, ev.b) for ev in ups
    )
    # Seeded: the same seed replays the same cut.
    again = partition_plan(graph, start_time=100.0, duration=200.0, seed=7)
    assert list(plan) == list(again)


def test_partition_island_holds_the_partition_fraction():
    n = 20
    graph = mk_graph(
        [(i, "Rt") for i in range(n)],
        [(i, (i + 1) % n) for i in range(n)],
    )
    plan = partition_plan(graph, seed=4)
    cut = {(ev.a, ev.b) for ev in plan if not ev.up}
    # Walk the ring with the cut links removed: the island is the
    # smaller side, int(n * PARTITION_FRACTION) ADs.
    adjacency = {i: set() for i in range(n)}
    for link in graph.links(include_down=False):
        if link.key not in cut:
            a, b = link.key
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen, sides = set(), []
    for start in range(n):
        if start in seen:
            continue
        side, stack = set(), [start]
        while stack:
            node = stack.pop()
            if node not in side:
                side.add(node)
                stack.extend(adjacency[node] - side)
        seen |= side
        sides.append(len(side))
    assert sorted(sides) == [int(n * PARTITION_FRACTION),
                             n - int(n * PARTITION_FRACTION)]


def test_partition_plan_validation():
    graph = ring8()
    with pytest.raises(ValueError, match="duration must be > 0"):
        partition_plan(graph, duration=0.0)
    with pytest.raises(ValueError, match="single-AD"):
        partition_plan(mk_graph([(0, "Rt")], []))


# ------------------------------------------------------------- FaultSpec axis


def test_fault_spec_chaos_flags():
    assert not FaultSpec().chaotic
    assert FaultSpec(restarts=1).chaotic
    assert FaultSpec(partitions=1).chaotic
    # Chaos is its own regime, not part of the legacy active axis.
    assert not FaultSpec(restarts=1).active
    assert FaultSpec(restarts=1, partitions=2).display == (
        "restarts=1,partitions=2"
    )


def test_build_chaos_plan_restarts_then_partitions():
    spec = FaultSpec(restarts=2, partitions=1, seed=0,
                     start_time=100.0, spacing=400.0)
    plan = spec.build_chaos_plan(ring8())
    node_events = [ev for ev in plan if isinstance(ev, NodeFault)]
    link_events = [ev for ev in plan if isinstance(ev, LinkFault)]
    # Two crash/restore cycles, state retained, each down for spacing/2.
    assert [ev.time for ev in node_events] == [100.0, 300.0, 500.0, 700.0]
    assert all(ev.retain_state for ev in node_events)
    assert [ev.up for ev in node_events] == [False, True, False, True]
    # The partition window opens only after the last restart completes.
    assert min(ev.time for ev in link_events) == 100.0 + 2 * 400.0
    assert {ev.up for ev in link_events} == {False, True}


# ---------------------------------------------------------------- scenarios


def test_ring_scenario_shape():
    scenario = ring_scenario(num_ads=8, seed=0, num_flows=16)
    assert scenario.graph.num_ads == 8
    assert scenario.graph.num_links == 8
    assert all(
        len(scenario.graph.neighbors(ad)) == 2
        for ad in scenario.graph.ad_ids()
    )
    assert len(scenario.flows) == 16
    assert "ring" in scenario.name


def test_substrate_axis_expands_twins_adjacent():
    spec = ExperimentSpec(
        name="t",
        scenarios=(ScenarioSpec(kind="ring"),),
        protocols=(
            ProtocolSpec("plain-ls"),
            ProtocolSpec("plain-ls", label="plain-ls+gr",
                         options=(("graceful", "all"),)),
        ),
        substrates=("sim", "live"),
    )
    cells = spec.cells()
    assert len(cells) == 4
    # Innermost axis: each design point's sim/live twins sit adjacent.
    assert [c.substrate for c in cells] == ["sim", "live", "sim", "live"]
    assert cells[0].protocol.display == cells[1].protocol.display
    assert [c.index for c in cells] == [0, 1, 2, 3]


# ----------------------------------------------------------- rejection paths


def test_execute_chaos_cell_rejections():
    with pytest.raises(ValueError, match="no chaos program"):
        execute_chaos_cell(_chaos_cell(fault=FaultSpec()))
    with pytest.raises(ValueError, match="misbehavior"):
        execute_chaos_cell(
            _chaos_cell(misbehavior=MisbehaviorSpec(lie="blackhole"))
        )
    with pytest.raises(ValueError, match="legacy fault axis"):
        execute_chaos_cell(
            _chaos_cell(fault=FaultSpec(restarts=1, flaps=1))
        )
    with pytest.raises(ValueError, match="loss impairments only"):
        execute_chaos_cell(
            _chaos_cell(
                fault=FaultSpec(restarts=1, dup=0.1), substrate="live"
            )
        )
    with pytest.raises(ValueError, match="unknown substrate"):
        execute_chaos_cell(
            _chaos_cell(fault=FaultSpec(restarts=1), substrate="quantum")
        )


@pytest.mark.parametrize("impairment", ["dup", "jitter"])
def test_live_chaos_cell_refuses_sim_only_impairments(impairment):
    """Loopback UDP can only lose frames; the cell is refused up front."""
    fault = FaultSpec(restarts=1, **{impairment: 0.1})
    with pytest.raises(ValueError, match="loss impairments only"):
        execute_chaos_cell(_chaos_cell(fault=fault, substrate="live"))


def test_live_loss_is_in_force_from_t0():
    """Live, a cell's loss is seeded receive-path loss, set at open."""
    cell = _chaos_cell(
        fault=FaultSpec(restarts=1, loss=0.2, seed=5), substrate="live"
    )

    async def scenario():
        profiler = PhaseProfiler()
        _, protocol = build_cell(cell, profiler)
        substrate = open_substrate(cell, protocol, profiler)
        try:
            network = substrate.network
            assert network._recv_loss_rate == 0.2
            assert network._recv_loss_rng.random() == random.Random(5).random()
            assert substrate.supervisor is not None
        finally:
            await substrate.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))


def test_grouped_events_buckets_identical_fire_times():
    plan = FaultPlan((
        LinkFault(10.0, 0, 1, up=False),
        LinkFault(10.0, 1, 2, up=False),
        LinkFault(20.0, 0, 1, up=True),
    ))
    groups = grouped_events(plan)
    assert [(t, len(evs)) for t, evs in groups] == [(10.0, 2), (20.0, 1)]


def test_run_experiment_validates_chaos_overrides():
    with pytest.raises(ValueError, match="--restarts must be non-negative"):
        run_experiment("live_chaos", restarts=-1)
    with pytest.raises(ValueError, match="--partitions must be non-negative"):
        run_experiment("live_chaos", partitions=-1)
    with pytest.raises(ValueError, match="unknown graceful-restart"):
        run_experiment("live_chaos", gr="bogus")


# ------------------------------------------------------------- the sim driver


def test_sim_chaos_record_shape(sim_record):
    rec = sim_record
    assert rec.substrate == "sim"
    assert rec.schema_version == SCHEMA_VERSION
    assert rec.quiesced
    chaos = rec.chaos
    assert chaos["restarts"] == 1 and chaos["partitions"] == 1
    labels = [g["label"] for g in chaos["groups"]]
    # One crash/restore cycle, then one partition window and its heal.
    assert len(labels) == 4
    assert "crash" in labels[0] and "restart" in labels[1]
    assert labels[2].startswith("partition") and labels[3].startswith("heal")
    assert all(g["quiesced"] for g in chaos["groups"])
    # While the partition window is open the settled control plane has
    # genuinely fewer routable flows; the heal restores the baseline.
    assert chaos["groups"][2]["routable_after"] < chaos["baseline_routable"]
    assert chaos["groups"][3]["routable_after"] == chaos["baseline_routable"]
    assert 0.0 <= chaos["availability"] <= 1.0
    assert chaos["baseline_routable"] > 0
    assert len(chaos["routes_digest"]) == 16
    # No graceful restart, no supervisor: the sim legacy regime.
    assert chaos["graceful"] == "none"
    assert chaos["graceful_summary"] == {
        "holds": 0, "expirations": 0, "resyncs": 0,
    }
    assert chaos["serve_restarts"] == 0
    assert chaos["supervisor"] is None
    # The data-plane axis rode along: stale-FIB epochs were replayed.
    assert rec.dataplane is not None
    assert len(rec.dataplane["series"]["epochs"]) >= 2 + len(labels)


def test_sim_chaos_is_deterministic(sim_record):
    again = execute_chaos_cell(_chaos_cell())
    assert again.comparable() == sim_record.comparable()


def test_graceful_restart_rides_out_the_crash(sim_record, graced_record):
    plain = sim_record.chaos
    graced = graced_record.chaos
    assert graced["graceful"] == "helper+resync"
    assert graced["graceful_summary"]["holds"] == 2
    assert graced["graceful_summary"]["resyncs"] == 1
    assert graced["graceful_summary"]["expirations"] == 0
    plain_crash = next(
        g for g in plain["groups"] if "crash" in g["label"]
    )
    graced_crash = next(
        g for g in graced["groups"] if "crash" in g["label"]
    )
    # The headline: helpers hold the restarting AD's routes, so the
    # control plane stays whole through the crash the legacy path loses
    # flows to.
    assert graced_crash["routable_during"] == graced["baseline_routable"]
    assert plain_crash["routable_during"] < plain["baseline_routable"]
    assert graced["availability"] > plain["availability"]


# ------------------------------------------------------------- record schema


def test_runrecord_v7_roundtrip(sim_record):
    line = sim_record.to_json()
    loaded = RunRecord.from_json(line)
    assert loaded.comparable() == sim_record.comparable()
    assert loaded.chaos["routes_digest"] == sim_record.chaos["routes_digest"]


def test_runrecord_rejects_unknown_schema(sim_record):
    data = json.loads(sim_record.to_json())
    data["schema_version"] = 99
    with pytest.raises(ValueError, match="unsupported"):
        RunRecord.from_json(json.dumps(data))


# ------------------------------------------- one driver, both substrates


@pytest.fixture
def driven(monkeypatch):
    """The substrate of every cell the one driver coroutine ran, in order."""
    substrates = []
    run = chaos._run_cell

    def spy(cell, *args):
        substrates.append(cell.substrate)
        return run(cell, *args)

    monkeypatch.setattr(chaos, "_run_cell", spy)
    return substrates


def _keys(block):
    """A record block's shape: its keys, and its entries' keys."""
    return {
        key: sorted(value[0]) if key in ("groups", "waves") else None
        for key, value in block.items()
    }


@pytest.mark.parametrize(
    "field, entries, fault, options",
    [
        ("chaos", "groups", FaultSpec(restarts=1, partitions=1, seed=3,
                                      start_time=50.0, spacing=100.0), ()),
        ("versioning", "waves", FaultSpec(upgrade_waves=2, rollback=True, seed=3),
         (("wire", "v1+negotiate"),)),
    ],
    ids=["chaos", "versioning"],
)
def test_sim_and_live_rows_come_out_of_the_same_function(
    field, entries, fault, options, driven
):
    """The sim and the live record of a cell differ in numbers, not shape."""
    records = {
        substrate: execute_cell(
            _chaos_cell(
                ProtocolSpec("plain-ls", options=options),
                fault,
                substrate=substrate,
            )
        )
        for substrate in ("sim", "live")
    }
    assert driven == ["sim", "live"]
    sim, live = records["sim"], records["live"]
    assert (sim.substrate, live.substrate) == ("sim", "live")
    assert [ep.kind for ep in sim.episodes] == [ep.kind for ep in live.episodes]
    assert live.quiesced
    sim_block, live_block = getattr(sim, field), getattr(live, field)
    assert _keys(sim_block) == _keys(live_block)
    assert [e["label"] for e in sim_block[entries]] == [
        e["label"] for e in live_block[entries]
    ]
    assert set(sim.dataplane) == set(live.dataplane)
    assert set(sim.dataplane["series"]) == set(live.dataplane["series"])
    # plain-ls is link-state: its tables are a pure function of the LSDB,
    # so the two substrates must end on identical forwarding state.
    assert sim_block["routes_digest"] == live_block["routes_digest"]
    # The supervisor and its sweep are the live adapter's business.
    assert sim_block["supervisor"] is None
    assert live_block["supervisor"]["gave_up"] == []


def test_plain_sim_and_live_rows_come_out_of_the_same_function(driven):
    """A plain cell -- 2 flaps on the 8-AD ring -- takes the same driver
    on both substrates: the same episodes, each costing the same
    messages, ending on the same routes."""
    runs = {
        substrate: chaos.run_cell(
            Cell(
                experiment="plain-test",
                index=0,
                scenario=ScenarioSpec(kind="ring", seed=0, num_flows=12),
                protocol=ProtocolSpec("plain-ls"),
                failure=FailureSpec(kind="random", count=2, seed=3),
                substrate=substrate,
            )
        )
        for substrate in ("sim", "live")
    }
    assert driven == ["sim", "live"]
    (sim, sim_protocol), (live, live_protocol) = runs["sim"], runs["live"]
    assert live.quiesced
    assert [ep.kind for ep in sim.episodes] == [ep.kind for ep in live.episodes]
    assert [ep.kind for ep in sim.episodes] == ["initial"] + ["failure", "repair"] * 2
    assert [ep.messages for ep in sim.episodes] == [
        ep.messages for ep in live.episodes
    ]
    assert chaos.routes_digest(sim_protocol) == chaos.routes_digest(live_protocol)


def test_sim_graceful_restart_stops_at_the_next_groups_instant(graced_record):
    """A graceful crash arms a hold timer hold_time ahead; the restart,
    scheduled sooner, must cancel it.  That only works if the sim side of
    an episode runs *to the next group's instant* and no further -- a run
    to quiescence would fast-forward through the hold and expire it."""
    fault = FaultSpec(restarts=1, partitions=1, seed=3)
    crash, restart = graced_record.chaos["groups"][:2]
    assert "crash" in crash["label"] and "restart" in restart["label"]
    assert restart["time"] - crash["time"] == fault.spacing / 2.0
    summary = graced_record.chaos["graceful_summary"]
    assert summary["holds"] > 0 and summary["expirations"] == 0
    # The healed epoch of the crash is stamped at the restart's instant,
    # not at whenever the engine would have run dry.
    epochs = graced_record.dataplane["series"]["epochs"]
    crash_settled = next(
        e for e in epochs if e["label"] == f"{crash['label']} settled"
    )
    restart_epoch = next(e for e in epochs if e["label"] == restart["label"])
    assert crash_settled["time"] == restart_epoch["time"]


def test_sim_episodic_cells_create_no_event_loop(monkeypatch, sim_record):
    """The sim side drives the shared coroutine to completion by hand."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a sim cell touched the asyncio event loop")

    monkeypatch.setattr(asyncio, "run", forbidden)
    monkeypatch.setattr(asyncio, "new_event_loop", forbidden)
    assert execute_chaos_cell(_chaos_cell()).comparable() == sim_record.comparable()
