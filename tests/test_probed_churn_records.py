"""The probed-churn cells reproduce the legacy recompute path's records.

The LS family once ran two ways: cold-building each node's believed view
and re-running Dijkstra per LSDB version, or deriving the view per LSA
delta and repairing the SPF tree.  Only the second remains.  These cells
-- a 50-AD scaled E7 topology, initial convergence, then six link flaps
sampled by the prober every 25 time units -- are where every LSDB version
bump makes the probed nodes re-derive views and routes, so they are where
a delta path that drifted from the cold build would show.  Each must
record exactly what the cold-build path recorded: episodes, message
counts and bytes, computations, RIB state and the prober's robustness
summary.

The fixture was written at the last commit that still had the cold-build
path, by running each cell with the option ``perf="none"`` and keeping
``{"protocol": ..., **{field: record.comparable()[field] for field in
FIELDS}}`` per protocol, serialised as
``json.dumps(records, sort_keys=True, separators=(",", ":"))``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.session import execute_cell
from repro.harness.spec import Cell, FailureSpec, FaultSpec, ProtocolSpec, ScenarioSpec

PARENT_RECORDS = Path(__file__).parent / "data" / "probed_churn_parent_records.json"
PROTOCOLS = ("plain-ls", "ls-hbh", "ls-src-topo")
FIELDS = (
    "episodes", "messages", "message_bytes", "computations", "state", "robustness",
)
SEED = 47


def probed_churn_cell(protocol: str) -> Cell:
    return Cell(
        experiment="probed-churn",
        index=0,
        scenario=ScenarioSpec(kind="scaled", target_ads=50, seed=SEED, num_flows=24),
        protocol=ProtocolSpec(name=protocol),
        failure=FailureSpec(),
        fault=FaultSpec(
            flaps=6, spacing=300.0, probe_interval=25.0, probe_flows=24, seed=SEED
        ),
    )


COMPUTATIONS = {
    "plain-ls": {"spf": 542},
    "ls-hbh": {"policy_route": 1533},
    "ls-src-topo": {"valley_free_spf": 430},
}


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def parent_records():
    text = PARENT_RECORDS.read_text()
    records = json.loads(text)
    assert canonical(records) == text
    assert [r["protocol"] for r in records] == list(PROTOCOLS)
    return {r["protocol"]: r for r in records}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_probed_churn_cells_record_what_the_cold_build_path_recorded(protocol):
    record = execute_cell(probed_churn_cell(protocol)).comparable()
    mine = {"protocol": protocol, **{f: record[f] for f in FIELDS}}
    assert mine["computations"] == COMPUTATIONS[protocol]
    assert canonical(mine) == canonical(parent_records()[protocol])
