"""Tests for the experiment harness: specs, records, session, experiments."""

import json
import os

import pytest

from repro.harness import (
    SCHEMA_VERSION,
    EpisodeRecord,
    ExperimentSession,
    ExperimentSpec,
    FailureSpec,
    FaultSpec,
    MisbehaviorSpec,
    ProtocolSpec,
    RunRecord,
    ScenarioSpec,
    execute_cell,
    read_jsonl,
    run_experiment,
    run_spec,
    write_jsonl,
)
from repro.harness.experiments import _parse_liar
from repro.harness.session import _parse_trace


def small_spec(**overrides):
    base = dict(
        name="t",
        scenarios=(ScenarioSpec(kind="small", seed=3, num_flows=8),),
        protocols=(ProtocolSpec("idrp"), ProtocolSpec("orwg")),
        failures=(FailureSpec(kind="random", count=1, repair=True, seed=3),),
        evaluate=True,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpec:
    def test_cell_grid_expansion_order(self):
        spec = small_spec(
            scenarios=(
                ScenarioSpec(kind="small", seed=1),
                ScenarioSpec(kind="small", seed=2),
            ),
            failures=(FailureSpec(), FailureSpec(kind="random", count=1)),
        )
        cells = spec.cells()
        # scenarios x protocols x failures, nested in that order.
        assert len(cells) == 2 * 2 * 2
        assert [c.index for c in cells] == list(range(8))
        assert cells[0].scenario.seed == 1 and cells[0].protocol.name == "idrp"
        assert cells[-1].scenario.seed == 2 and cells[-1].protocol.name == "orwg"

    def test_seed_axis_reseeds_every_scenario(self):
        spec = small_spec(seeds=(11, 12, 13))
        cells = spec.cells()
        assert len(cells) == 3 * 2
        assert sorted({c.scenario.seed for c in cells}) == [11, 12, 13]

    def test_cells_are_picklable(self):
        import pickle

        for cell in small_spec().cells():
            clone = pickle.loads(pickle.dumps(cell))
            assert clone.key() == cell.key()

    def test_unknown_scenario_kind_raises(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            ScenarioSpec(kind="nope").build()

    def test_unknown_failure_kind_raises(self):
        g = ScenarioSpec(kind="small", seed=0).build().graph
        with pytest.raises(ValueError, match="unknown failure kind"):
            FailureSpec(kind="nope", count=1).build(g)

    def test_custom_scenario_needs_topology(self):
        with pytest.raises(ValueError, match="topology"):
            ScenarioSpec(kind="custom").build()


class TestFaultSpec:
    def test_default_is_inert(self):
        fault = FaultSpec()
        assert not fault.impaired
        assert not fault.churns
        assert not fault.active
        assert fault.display == "none"

    def test_display_summarizes_parameters(self):
        fault = FaultSpec(loss=0.05, flaps=2, crashes=1)
        assert fault.display == "loss=0.05,flaps=2,crashes=1"
        assert FaultSpec(loss=0.05, label="5% loss").display == "5% loss"

    def test_impairment_mirrors_channel_fields(self):
        fault = FaultSpec(loss=0.1, dup=0.01, jitter=2.0)
        spec = fault.impairment()
        assert spec.drop_prob == 0.1
        assert spec.dup_prob == 0.01
        assert spec.jitter == 2.0

    def test_horizon_covers_the_timeline(self):
        fault = FaultSpec(flaps=2, crashes=1, start_time=100, spacing=400)
        assert fault.horizon == 100 + 3 * 400

    def test_build_plan_orders_flaps_before_crashes(self):
        from repro.faults.plan import LinkFault, NodeFault

        graph = ScenarioSpec(kind="small", seed=3).build().graph
        plan = FaultSpec(flaps=1, crashes=1).build_plan(graph)
        kinds = [type(ev) for ev in plan]
        assert kinds == [LinkFault, LinkFault, NodeFault, NodeFault]

    def test_fault_axis_is_innermost(self):
        spec = small_spec(
            faults=(FaultSpec(), FaultSpec(loss=0.05)),
        )
        cells = spec.cells()
        assert len(cells) == 2 * 1 * 2
        assert cells[0].fault.display == "none"
        assert cells[1].fault.display == "loss=0.05"
        assert cells[0].protocol.name == cells[1].protocol.name

    def test_cell_key_carries_fault(self):
        spec = small_spec(faults=(FaultSpec(loss=0.2, label="lossy"),))
        assert all(c.key()["fault"] == "lossy" for c in spec.cells())


class TestRobustnessCell:
    def test_timeline_episode_and_robustness_summary(self):
        [cell] = small_spec(
            protocols=(ProtocolSpec("ls-hbh"),),
            failures=(FailureSpec(),),
            faults=(FaultSpec(loss=0.02, flaps=1, seed=4, probe_flows=4),),
        ).cells()
        record = execute_cell(cell)
        assert record.episodes[-1].kind == "timeline"
        assert record.channel is not None
        assert record.channel["transmissions"] > 0
        rob = record.robustness
        assert rob is not None
        assert rob["samples"] > 0
        assert 0.0 <= rob["availability"] <= 1.0
        assert set(rob["counts"]) == {"ok", "stale", "loop", "blackhole", "hijacked"}

    def test_inert_fault_leaves_record_byte_identical(self):
        base = small_spec(
            protocols=(ProtocolSpec("ls-hbh"),),
            failures=(FailureSpec(),),
        )
        explicit = small_spec(
            protocols=(ProtocolSpec("ls-hbh"),),
            failures=(FailureSpec(),),
            faults=(FaultSpec(),),
        )
        [a] = (execute_cell(c) for c in base.cells())
        [b] = (execute_cell(c) for c in explicit.cells())
        assert a.comparable() == b.comparable()
        assert a.channel is None and a.robustness is None


class TestMisbehaviorSpec:
    def test_default_is_inert(self):
        spec = MisbehaviorSpec()
        assert not spec.active
        assert spec.display == "none"
        assert len(spec.build_plan(None)) == 0

    def test_display_names_lie_and_liar(self):
        assert MisbehaviorSpec(lie="route-leak").display == "route-leak@backbone"
        assert (
            MisbehaviorSpec(lie="metric-lie", liar_ad=5).display
            == "metric-lie@ad=5"
        )
        assert MisbehaviorSpec(label="baseline").display == "baseline"

    def test_horizon_covers_the_probe_window(self):
        spec = MisbehaviorSpec(lie="route-leak", start_time=150.0)
        assert spec.horizon == 150.0 + MisbehaviorSpec.PROBE_WINDOW
        assert (
            MisbehaviorSpec(lie="route-leak", start_time=150.0, duration=40.0).horizon
            == 190.0 + MisbehaviorSpec.PROBE_WINDOW
        )

    def test_misbehavior_axis_is_innermost(self):
        spec = small_spec(
            failures=(FailureSpec(),),
            misbehaviors=(MisbehaviorSpec(), MisbehaviorSpec(lie="metric-lie")),
        )
        cells = spec.cells()
        assert len(cells) == 1 * 2 * 1 * 2
        assert cells[0].misbehavior.display == "none"
        assert cells[1].misbehavior.display == "metric-lie@backbone"
        assert cells[0].protocol.name == cells[1].protocol.name

    def test_cell_key_carries_misbehavior(self):
        spec = small_spec(
            misbehaviors=(MisbehaviorSpec(lie="route-leak", label="leak"),)
        )
        assert all(c.key()["misbehavior"] == "leak" for c in spec.cells())


class TestMisbehaviorCell:
    def test_misbehavior_block_recorded(self):
        [cell] = small_spec(
            protocols=(ProtocolSpec("ls-hbh"),),
            failures=(FailureSpec(),),
            misbehaviors=(MisbehaviorSpec(lie="route-leak", liar_role="regional"),),
        ).cells()
        record = execute_cell(cell)
        block = record.misbehavior
        assert block is not None
        assert block["lie"] == "route-leak"
        assert block["applied"]
        assert block["liar"] in block["suspects"]
        assert isinstance(block["blast_series"], list)
        assert block["peak_blast"] >= block["steady_blast"] >= 0
        assert block["validation"] == "none"
        # The pulse ran with the hijack verdict available.
        assert record.robustness is not None
        assert "hijacked" in record.robustness["counts"]

    def test_inert_misbehavior_leaves_record_byte_identical(self):
        base = small_spec(
            protocols=(ProtocolSpec("ls-hbh"),),
            failures=(FailureSpec(),),
        )
        explicit = small_spec(
            protocols=(ProtocolSpec("ls-hbh"),),
            failures=(FailureSpec(),),
            misbehaviors=(MisbehaviorSpec(),),
        )
        [a] = (execute_cell(c) for c in base.cells())
        [b] = (execute_cell(c) for c in explicit.cells())
        assert a.comparable() == b.comparable()
        assert a.misbehavior is None

    def test_lie_free_validating_cell_records_counters(self):
        # The zero-false-quarantine baseline claim needs the counters
        # even when nobody lies.
        [cell] = small_spec(
            protocols=(
                ProtocolSpec("ls-hbh", options=(("validation", "all"),)),
            ),
            failures=(FailureSpec(),),
        ).cells()
        record = execute_cell(cell)
        block = record.misbehavior
        assert block is not None
        assert not block["applied"]
        assert block["liar"] is None
        assert block["counters"]["violations"] == 0
        assert block["counters"]["false_quarantines"] == 0


class TestExecuteCell:
    def test_record_shape(self):
        [cell] = small_spec(
            protocols=(ProtocolSpec("orwg"),),
            failures=(FailureSpec(kind="random", count=1, repair=True, seed=3),),
        ).cells()
        record = execute_cell(cell)
        assert record.schema_version == SCHEMA_VERSION
        assert record.initial.kind == "initial"
        # One failure + one repair after the initial episode.
        assert [ep.kind for ep in record.failure_episodes] == ["failure", "repair"]
        assert all(ep.link is not None for ep in record.failure_episodes)
        assert record.quiesced
        assert record.initial.messages > 0
        assert record.route_quality is not None
        assert 0.0 <= record.route_quality["availability"] <= 1.0
        assert sum(record.computations.values()) == sum(
            record.computations_by_ad.values()
        )
        assert record.state["max_rib"] > 0
        # Profiling hooks fired for every phase that ran.
        for phase in ("scenario", "build", "converge", "failures", "engine.run"):
            assert phase in record.timings

    def test_quiesced_false_when_budget_exhausted(self):
        [cell] = small_spec(
            protocols=(ProtocolSpec("naive-dv"),),
            failures=(FailureSpec(),),
            max_events=10,
        ).cells()
        record = execute_cell(cell)
        assert not record.initial.quiesced
        assert not record.quiesced

    def test_trace_lines_collected(self):
        [cell] = small_spec(
            protocols=(ProtocolSpec("naive-dv"),),
            failures=(FailureSpec(),),
            trace="ad=0",
        ).cells()
        record = execute_cell(cell)
        assert record.trace
        assert all(("-> 0" in line or "0 ->" in line) for line in record.trace)

    def test_parse_trace(self):
        assert _parse_trace(None) is None
        assert _parse_trace("all") == {"ad": None}
        assert _parse_trace("ad=7") == {"ad": 7}
        with pytest.raises(ValueError, match="bad trace filter"):
            _parse_trace("ad=x")


class TestSession:
    def test_parallel_equals_serial(self):
        spec = small_spec()
        serial = ExperimentSession(spec).run(jobs=1)
        parallel = ExperimentSession(spec).run(jobs=2)
        assert [r.comparable() for r in serial] == [
            r.comparable() for r in parallel
        ]

    def test_records_sorted_by_cell_index(self):
        records = run_spec(small_spec())
        assert [r.cell["index"] for r in records] == list(range(len(records)))

    def test_persists_jsonl(self, tmp_path):
        session = ExperimentSession(small_spec(), out_dir=str(tmp_path))
        records = session.run()
        assert session.jsonl_path == str(tmp_path / "t.jsonl")
        back = read_jsonl(session.jsonl_path)
        assert [r.comparable() for r in back] == [r.comparable() for r in records]


class TestRecordSerde:
    def test_round_trip(self, tmp_path):
        records = run_spec(small_spec(protocols=(ProtocolSpec("idrp"),)))
        path = str(tmp_path / "x.jsonl")
        write_jsonl(path, records)
        back = read_jsonl(path)
        assert len(back) == len(records)
        assert back[0].comparable() == records[0].comparable()
        # Timings survive serialization too (they are just not comparable).
        assert back[0].timings == records[0].timings

    def test_rejects_wrong_schema_version(self):
        line = json.dumps({"schema_version": SCHEMA_VERSION + 1})
        with pytest.raises(ValueError, match="schema"):
            RunRecord.from_json(line)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 99])
    def test_other_schema_versions_are_refused_loudly(self, version):
        # No read shims: run telemetry is regenerated, never kept, so an
        # old (or future) line is refused with the way out in the message.
        record = run_spec(small_spec(failures=(FailureSpec(),)))[0]
        line = json.loads(record.to_json())
        line["schema_version"] = version
        with pytest.raises(ValueError) as excinfo:
            RunRecord.from_json(json.dumps(line))
        message = str(excinfo.value)
        assert f"schema {version} unsupported" in message
        assert f"reads schema {SCHEMA_VERSION}" in message
        assert "re-run the experiment" in message

    def test_episode_link_round_trips_as_tuple(self):
        ep = EpisodeRecord(
            kind="failure", messages=1, bytes=2, time=3.0, events=4,
            quiesced=True, link=(5, 6),
        )
        record = RunRecord(
            schema_version=SCHEMA_VERSION,
            experiment="t",
            cell={"index": 0},
            scenario={},
            episodes=(ep,),
            messages={},
            message_bytes={},
            dropped=0,
            computations={},
            computations_by_ad={},
            state={},
        )
        back = RunRecord.from_json(record.to_json())
        assert back.episodes[0].link == (5, 6)


class TestNamedExperiments:
    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("nope")

    def test_smoke_renames_artifacts(self, tmp_path):
        spec, records, text = run_experiment(
            "table1_design_space", smoke=True, runs_dir=str(tmp_path)
        )
        assert spec.name == "table1_design_space_smoke"
        assert os.path.exists(tmp_path / "table1_design_space_smoke.jsonl")
        assert len(records) == 8
        assert "Table 1 (measured)" in text

    def test_parse_liar(self):
        assert _parse_liar("ad=7") == {"liar_ad": 7, "liar_role": "backbone"}
        assert _parse_liar("stub") == {"liar_ad": -1, "liar_role": "stub"}
        with pytest.raises(ValueError, match="bad liar"):
            _parse_liar("ad=three")
        with pytest.raises(ValueError, match="bad liar"):
            _parse_liar("tier-1")

    def test_bad_lie_override_rejected(self):
        with pytest.raises(ValueError, match="bad lie"):
            run_experiment("robustness_misbehavior", smoke=True, lie="perjury")

    def test_e12_smoke_grid(self, tmp_path):
        spec, records, text = run_experiment(
            "robustness_misbehavior", smoke=True, runs_dir=str(tmp_path)
        )
        # 2 protocols x {plain, +v} x {baseline, backbone leak}.
        assert len(records) == 8
        assert {p.display for p in spec.protocols} == {
            "ls-hbh", "ls-hbh+v", "orwg", "orwg+v",
        }
        assert [m.display for m in spec.misbehaviors] == [
            "baseline", "route-leak@backbone",
        ]
        for record in records:
            if record.cell["misbehavior"] == "route-leak@backbone":
                assert record.misbehavior is not None
                assert record.misbehavior["applied"]
        assert "steady" in text and "route-leak@backbone" in text

    def test_liar_and_lie_overrides_rewrite_the_axis(self, tmp_path):
        spec, records, _ = run_experiment(
            "robustness_misbehavior",
            smoke=True,
            runs_dir=str(tmp_path),
            liar="ad=4",
            lie="metric-lie",
        )
        # Baseline and leak points collapse onto one overridden liar.
        assert [m.display for m in spec.misbehaviors] == ["metric-lie@ad=4"]
        assert all(r.misbehavior["liar"] == 4 for r in records)


class TestOverloadFaultSpec:
    def test_churn_and_queue_activate_the_axis(self):
        churn = FaultSpec(churn_hz=0.1)
        assert churn.churns and churn.active and not churn.queued
        queue = FaultSpec(queue_capacity=8)
        assert queue.queued and queue.active and not queue.churns

    def test_display_summarizes_storm_and_queue(self):
        assert FaultSpec(churn_hz=0.25, queue_capacity=4).display == (
            "churn=0.25Hz,queue=4"
        )

    def test_horizon_covers_the_storm(self):
        fault = FaultSpec(
            churn_hz=0.1, churn_duration=50.0, start_time=100.0, spacing=100.0
        )
        assert fault.horizon == 100.0 + 50.0 + 100.0

    def test_build_plan_appends_the_storm(self):
        from repro.faults.plan import LinkFault

        graph = ScenarioSpec(kind="small", seed=3).build().graph
        plan = FaultSpec(
            churn_hz=0.1, churn_links=1, churn_duration=20.0
        ).build_plan(graph)
        assert len(plan) == 4  # two down/up cycles
        assert all(isinstance(e, LinkFault) for e in plan)


class TestOverloadCell:
    def test_overload_block_recorded(self):
        [cell] = small_spec(
            protocols=(ProtocolSpec("ls-hbh", options=(("pacing", "all"),)),),
            failures=(FailureSpec(),),
            faults=(FaultSpec(queue_capacity=8, flaps=1, seed=4, probe_flows=4),),
        ).cells()
        record = execute_cell(cell)
        block = record.overload
        assert block is not None
        assert block["capacity"] == 8
        assert block["policy"] == "tail-drop"
        assert block["served"] > 0
        assert block["pacing"] == "pace+holddown+damp"
        for key in (
            "peak_depth", "dropped", "duty_cycle",
            "suppressed_announcements", "paced_deferrals",
            "flaps", "suppressions",
        ):
            assert key in block

    def test_pacing_alone_records_the_block(self):
        [cell] = small_spec(
            protocols=(ProtocolSpec("ls-hbh", options=(("pacing", "pace"),)),),
            failures=(FailureSpec(),),
        ).cells()
        record = execute_cell(cell)
        assert record.overload is not None
        assert record.overload["pacing"] == "pace"
        assert "capacity" not in record.overload

    def test_queue_free_unpaced_record_has_no_block(self):
        [cell] = small_spec(
            protocols=(ProtocolSpec("ls-hbh"),), failures=(FailureSpec(),)
        ).cells()
        assert execute_cell(cell).overload is None


class TestChurnExperiment:
    def test_e13_smoke_grid(self, tmp_path):
        spec, records, text = run_experiment(
            "robustness_churn", smoke=True, runs_dir=str(tmp_path)
        )
        # 2 protocols x {raw, +h, +pd} x one storm point.
        assert len(records) == 6
        assert {p.display for p in spec.protocols} == {
            "ls-hbh", "ls-hbh+h", "ls-hbh+pd",
            "orwg", "orwg+h", "orwg+pd",
        }
        assert [f.display for f in spec.faults] == ["0.25Hz/q4"]
        for record in records:
            assert record.overload is not None
            assert record.overload["capacity"] == 4
            assert record.robustness["samples"] > 0
        assert "E13" in text and "duty" in text

    def test_e13_overrides_rewrite_the_axes(self, tmp_path):
        spec, records, _ = run_experiment(
            "robustness_churn",
            smoke=True,
            runs_dir=str(tmp_path),
            queue_capacity=2,
            churn_hz=0.5,
            pacing="off",
        )
        assert [(f.churn_hz, f.queue_capacity) for f in spec.faults] == [
            (0.5, 2)
        ]
        assert all(
            dict(p.options).get("pacing") is None for p in spec.protocols
        )
        assert all(r.overload["capacity"] == 2 for r in records)
