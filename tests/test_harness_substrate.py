"""The harness substrate axis: live cells through the shared execute_cell."""

from dataclasses import replace

import pytest

from repro.harness.record import SCHEMA_VERSION, RunRecord
from repro.harness.session import TRACE_LINE_LIMIT, execute_cell
from repro.harness.spec import (
    Cell,
    ExperimentSpec,
    FailureSpec,
    FaultSpec,
    MisbehaviorSpec,
    ProtocolSpec,
    ScenarioSpec,
)


def _cell(**overrides):
    defaults = dict(
        experiment="t",
        index=0,
        scenario=ScenarioSpec(kind="small", num_flows=5),
        protocol=ProtocolSpec(name="plain-ls"),
        failure=FailureSpec(),
    )
    defaults.update(overrides)
    return Cell(**defaults)


def test_spec_expands_substrate_to_every_cell():
    spec = ExperimentSpec(
        name="t",
        scenarios=(ScenarioSpec(kind="small"),),
        protocols=(ProtocolSpec(name="plain-ls"),),
        substrate="live",
    )
    cells = spec.cells()
    assert cells and all(cell.substrate == "live" for cell in cells)
    assert all(cell.key()["substrate"] == "live" for cell in cells)


def test_live_cell_executes_and_records_substrate():
    """The sim and live twins of one plain cell run the same episode
    loop: same episodes, same per-episode message counts."""
    failure = FailureSpec(kind="random", count=1)
    sim = execute_cell(_cell(failure=failure))
    record = execute_cell(_cell(failure=failure, substrate="live"))
    assert record.substrate == "live"
    assert record.cell["substrate"] == "live"
    assert record.schema_version == SCHEMA_VERSION
    assert record.quiesced
    # initial + failure + repair episodes, all of which cost messages.
    assert [ep.kind for ep in record.episodes] == ["initial", "failure", "repair"]
    assert all(ep.messages > 0 for ep in record.episodes)
    assert [ep.kind for ep in sim.episodes] == [ep.kind for ep in record.episodes]
    assert [ep.messages for ep in sim.episodes] == [
        ep.messages for ep in record.episodes
    ]
    assert "live.wall" in record.timings
    assert "live.wall" not in sim.timings
    # The record survives its own JSON round trip.
    again = RunRecord.from_json(record.to_json())
    assert again.substrate == "live"
    assert again.episodes == record.episodes


def test_live_cell_rejects_sim_only_axes():
    with pytest.raises(ValueError, match="fault"):
        execute_cell(_cell(fault=FaultSpec(flaps=1), substrate="live"))
    with pytest.raises(ValueError, match="misbehavior"):
        execute_cell(
            _cell(misbehavior=MisbehaviorSpec(lie="route-leak"), substrate="live")
        )


def test_live_cell_records_the_trace_it_asks_for():
    """A live plain cell honours ``trace`` as its sim twin does: one
    ``msg`` line per delivered frame, and the same link-change lines."""
    cell = _cell(
        scenario=ScenarioSpec(kind="ring", seed=0, num_flows=12),
        failure=FailureSpec(kind="random", count=1, seed=3),
        trace="all",
    )
    links = {}
    for substrate in ("sim", "live"):
        record = execute_cell(replace(cell, substrate=substrate))
        # Each line is "[time] <event>"; only the time is substrate-made.
        events = [line.split("] ", 1)[1] for line in record.trace]
        delivered = sum(ep.messages for ep in record.episodes)
        assert 0 < delivered < TRACE_LINE_LIMIT
        assert len([e for e in events if " -> " in e]) == delivered
        links[substrate] = [e for e in events if e.startswith("link ")]
    assert links["live"] == links["sim"] == ["link 2-3 DOWN", "link 2-3 up"]


def test_unknown_substrate_rejected():
    with pytest.raises(ValueError, match="substrate"):
        execute_cell(_cell(substrate="quantum"))


def test_sim_records_default_substrate():
    record = execute_cell(_cell())
    assert record.substrate == "sim"
    assert record.cell["substrate"] == "sim"


def test_failure_episodes_go_through_the_protocols_fault_applier():
    """EGP routes on a pruned spanning tree.  Failing a link the tree
    does not contain used to KeyError in the sim cell (it poked the
    network directly); through the one applier it is a quiet episode on
    the tree and a status change on the real graph, as on live."""
    cell = _cell(
        scenario=ScenarioSpec(kind="small", num_flows=5, seed=0),
        protocol=ProtocolSpec(name="egp"),
        failure=FailureSpec(kind="random", count=3, seed=0),
    )
    record = execute_cell(cell)
    assert [ep.kind for ep in record.episodes] == ["initial"] + [
        "failure", "repair"
    ] * 3
    assert record.quiesced
