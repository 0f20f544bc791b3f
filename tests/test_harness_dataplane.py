"""Harness integration of the traffic axis: E14 cells, schema v6."""

import pytest

from repro.harness import EXPERIMENTS, RunRecord, run_experiment
from repro.harness.record import SCHEMA_VERSION
from repro.harness.session import execute_cell
from repro.harness.spec import (
    Cell,
    ExperimentSpec,
    FailureSpec,
    FaultSpec,
    ProtocolSpec,
    ScenarioSpec,
    TrafficSpec,
)


def dataplane_cell(flows=5000, protocol="ls-hbh", **cell_kw):
    return Cell(
        experiment="test_dataplane",
        index=0,
        scenario=ScenarioSpec(kind="reference", seed=5, num_flows=8),
        protocol=ProtocolSpec(name=protocol),
        failure=FailureSpec(),
        fault=FaultSpec(
            flaps=1, crashes=1, seed=3, probe_interval=100.0, probe_flows=4
        ),
        traffic=TrafficSpec(flows=flows, pairs=128, seed=14),
        **cell_kw,
    )


class TestTrafficSpec:
    def test_inert_default(self):
        spec = TrafficSpec()
        assert not spec.active
        assert spec.display == "none"

    def test_cell_key_carries_the_axis(self):
        cell = dataplane_cell()
        key = cell.key()
        assert key["traffic"] == "5000f/s=1.1"
        assert Cell(
            experiment="x",
            index=0,
            scenario=ScenarioSpec(),
            protocol=ProtocolSpec(name="ls-hbh"),
            failure=FailureSpec(),
        ).key()["traffic"] == "none"

    def test_spec_grid_expansion(self):
        spec = ExperimentSpec(
            name="grid",
            scenarios=(ScenarioSpec(),),
            protocols=(ProtocolSpec(name="ls-hbh"),),
            traffics=(TrafficSpec(), TrafficSpec(flows=100)),
        )
        cells = list(spec.cells())
        assert len(cells) == 2
        assert [c.traffic.display for c in cells] == ["none", "100f/s=1.1"]


class TestExecution:
    @pytest.fixture(scope="class")
    def record(self):
        return execute_cell(dataplane_cell())

    def test_dataplane_block(self, record):
        assert record.schema_version == SCHEMA_VERSION
        dp = record.dataplane
        assert dp is not None
        assert dp["workload"]["flows"] == 5000
        assert dp["workload"]["classes"] > 0
        assert 0 < dp["fib"]["bytes"] < 200_000
        series = dp["series"]
        labels = [e["label"] for e in series["epochs"]]
        assert labels[0] == "initial"
        assert labels[-1] == "final"
        # The storm rides RoutePulse: every probe round snapshotted.
        assert labels.count("epoch") >= 2
        for e in series["epochs"]:
            assert sum(e["verdicts"].values()) == 5000
        assert 0.0 <= series["outage_p99"] <= 1.0

    def test_inactive_axis_records_no_block(self):
        cell = Cell(
            experiment="test_dataplane",
            index=0,
            scenario=ScenarioSpec(kind="small", seed=1, num_flows=6),
            protocol=ProtocolSpec(name="ls-hbh"),
            failure=FailureSpec(),
        )
        record = execute_cell(cell)
        assert record.dataplane is None
        assert record.cell["traffic"] == "none"

    def test_roundtrip(self, record):
        again = RunRecord.from_json(record.to_json())
        assert again.dataplane == record.dataplane
        assert again.comparable() == record.comparable()

    def test_live_cell_rejects_traffic(self):
        cell = Cell(
            experiment="test_dataplane",
            index=0,
            scenario=ScenarioSpec(kind="small", seed=1, num_flows=6),
            protocol=ProtocolSpec(name="plain-ls"),
            failure=FailureSpec(),
            traffic=TrafficSpec(flows=100),
            substrate="live",
        )
        with pytest.raises(ValueError, match="traffic"):
            execute_cell(cell)


class TestE14:
    def test_registered(self):
        exp = EXPERIMENTS["dataplane_tail"]
        assert exp.eid == "E14"

    def test_smoke_run(self, tmp_path):
        spec, records, text = run_experiment(
            "dataplane_tail", smoke=True, runs_dir=str(tmp_path)
        )
        assert len(records) == len(spec.protocols) == 2
        for rec in records:
            assert rec.dataplane is not None
            assert rec.dataplane["workload"]["flows"] == 20_000
        assert "out-p99" in text
        assert "fib-KB" in text

    def test_flow_overrides(self, tmp_path):
        spec, records, _ = run_experiment(
            "dataplane_tail",
            smoke=True,
            runs_dir=str(tmp_path),
            flows=1000,
            zipf_s=1.5,
        )
        for rec in records:
            assert rec.dataplane["workload"]["flows"] == 1000
            assert rec.dataplane["workload"]["zipf_s"] == 1.5
        with pytest.raises(ValueError):
            run_experiment(
                "dataplane_tail", smoke=True, runs_dir=str(tmp_path), flows=-5
            )
