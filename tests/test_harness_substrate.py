"""The harness substrate axis: live cells through the shared execute_cell."""

import pytest

from repro.harness.record import SCHEMA_VERSION, RunRecord
from repro.harness.session import execute_cell
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
    record = execute_cell(
        _cell(failure=FailureSpec(kind="random", count=1), substrate="live")
    )
    assert record.substrate == "live"
    assert record.cell["substrate"] == "live"
    assert record.schema_version == SCHEMA_VERSION
    assert record.quiesced
    # initial + failure + repair episodes, all of which cost messages.
    assert [ep.kind for ep in record.episodes] == ["initial", "failure", "repair"]
    assert all(ep.messages > 0 for ep in record.episodes)
    assert "live.wall" in record.timings
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
    with pytest.raises(ValueError, match="trace"):
        execute_cell(_cell(trace="all", substrate="live"))


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
