"""Tests for the command-line interface."""

import re
from types import SimpleNamespace

import pytest

from repro.cli import main


class TestTopology:
    def test_shape_flags(self, capsys):
        assert main(["topology", "--seed", "3", "--backbones", "2"]) == 0
        out = capsys.readouterr().out
        assert "ADs" in out and "connected" in out and "yes" in out

    def test_target_size(self, capsys):
        assert main(["topology", "--target", "80"]) == 0
        out = capsys.readouterr().out
        assert "ADs" in out


class TestRoute:
    def test_known_flow(self, capsys):
        code = main(
            ["route", "--seed", "0", "--src", "15", "--dst", "62", "-k", "2"]
        )
        out = capsys.readouterr().out
        if code == 0:
            assert "Policy routes" in out
            assert "->" in out
        else:
            assert "no legal route" in out

    def test_unknown_ad_rejected(self, capsys):
        assert main(["route", "--src", "0", "--dst", "9999"]) == 2
        assert "not in topology" in capsys.readouterr().err

    def test_qos_flag(self, capsys):
        code = main(
            ["route", "--src", "15", "--dst", "62", "--qos", "low_cost"]
        )
        assert code in (0, 1)


class TestAudit:
    def test_summary(self, capsys):
        assert main(["audit", "--restrictiveness", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "Connectivity audit" in out

    def test_verbose_lists_findings(self, capsys):
        assert main(["audit", "--restrictiveness", "0.6", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "blocked" in out


class TestImpact:
    def test_withdrawal(self, capsys):
        assert main(["impact", "--owner", "0"]) == 0
        out = capsys.readouterr().out
        assert "Impact of policy change at AD 0" in out

    def test_rank(self, capsys):
        assert main(["impact", "--rank", "3"]) == 0
        out = capsys.readouterr().out
        assert "critical transit" in out

    def test_unknown_owner(self, capsys):
        assert main(["impact", "--owner", "9999"]) == 2


class TestExperiments:
    def test_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for exp in ("E1", "E5", "E10", "E13", "A1", "A6"):
            assert exp in out
        assert "pytest benchmarks/" not in out
        assert "python -m repro experiments run" in out

    def test_listing_is_the_registry(self, capsys):
        from repro.harness import EXPERIMENTS

        assert main(["experiments", "list"]) == 0
        rows = [
            [col.strip() for col in re.split(r"\s{2,}", line.strip())]
            for line in capsys.readouterr().out.splitlines()
            if re.match(r"[EA]\d+ ", line)
        ]
        assert len(rows) == len(EXPERIMENTS) == 22
        assert [row[0] for row in rows] == [
            *(f"E{n}" for n in range(1, 17)), *(f"A{n}" for n in range(1, 7)),
        ]
        assert rows == [
            [exp.eid, exp.name, exp.description] for exp in EXPERIMENTS.values()
        ]
        assert not any(".py" in col for row in rows for col in row)


def test_scorecard_runs(capsys):
    assert main(["scorecard", "--flows", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1 (measured)" in out
    assert "LS/Src/PT" in out


class TestConverge:
    def test_initial_only(self, capsys):
        assert main(["converge", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Convergence" in out and "orwg" in out

    def test_with_failures(self, capsys):
        assert main(["converge", "--seed", "2", "--failures", "1"]) == 0
        out = capsys.readouterr().out
        assert "mean msgs/event" in out


class TestLiveRun:
    def test_flap_episodes_are_labelled(self, capsys):
        argv = ["live", "run", "small", "--flaps", "2", "--time-scale", "0.002"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("---")) + 1
        labels = [re.split(r"\s{2,}", line)[0] for line in lines[start:-1]]
        assert labels[0] == "initial"
        flaps = labels[1:]
        assert len(flaps) == 2 * 2
        for down, up in zip(flaps[::2], flaps[1::2]):
            link = re.fullmatch(r"link (\d+-\d+) down", down)
            assert link is not None, down
            assert up == f"link {link[1]} up"
        assert re.fullmatch(r"wall time: \d+\.\d\ds", lines[-1])


class TestLiveExitCodes:
    """What each ``live`` command exits with when its run goes wrong."""

    def test_fidelity_names_a_differing_pair_and_exits_1(self, monkeypatch, capsys):
        from repro.protocols.base import RoutingProtocol

        find_route = RoutingProtocol.find_route

        def one_live_route_differs(self, flow):
            route = find_route(self, flow)
            if self.substrate == "live" and (flow.src, flow.dst) == (0, 25):
                return None if route is not None else (0, 25)
            return route

        monkeypatch.setattr(RoutingProtocol, "find_route", one_live_route_differs)
        argv = ["live", "fidelity", "small", "--flaps", "1", "--time-scale", "0.002"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert re.search(r"(?<!\d)0->25(?!\d)", out), out

    def test_run_exits_1_when_an_episode_does_not_quiesce(self, monkeypatch, capsys):
        from dataclasses import replace

        from repro.live.runner import LiveSubstrate

        settle = LiveSubstrate.settle
        settles = []

        async def last_settle_times_out(self, until=None):
            result = await settle(self, until)
            settles.append(result)
            return replace(result, quiesced=len(settles) < 3)

        monkeypatch.setattr(LiveSubstrate, "settle", last_settle_times_out)
        argv = ["live", "run", "small", "--flaps", "1", "--time-scale", "0.002"]
        assert main(argv) == 1
        assert len(settles) == 3  # initial, failure, repair
        assert "NO" in capsys.readouterr().out


_SCALE = "--time-scale must be a finite number > 0"

#: One bad ``live`` command line each, and the start of its refusal.
LIVE_REFUSALS = [
    ("run small --time-scale nan", _SCALE),
    ("fidelity small --time-scale nan", _SCALE),
    ("chaos ring --time-scale nan", _SCALE),
    ("fidelity small --time-scale inf", _SCALE),
    ("run small --time-scale 0", _SCALE),
    ("run small --timeout nan", "--timeout must be a finite number > 0"),
    ("run small --flaps -1", "--flaps must be >= 0"),
    ("chaos ring --restarts -1", "--restarts must be >= 0"),
    ("chaos ring --flows -5", "--flows must be >= 0"),
]


class TestLiveRefusesBadNumbers:
    @pytest.mark.parametrize(
        "command, message", LIVE_REFUSALS, ids=[c for c, _ in LIVE_REFUSALS]
    )
    def test_refused_before_any_socket_is_bound(self, command, message, monkeypatch, capsys):
        def no_network(self):
            raise AssertionError("a live network started")

        monkeypatch.setattr("repro.live.network.LiveNetwork.start", no_network)
        assert main(["live", *command.split()]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err and not out


class TestReport:
    def test_collates_existing_artifacts(self, tmp_path, capsys):
        out = tmp_path / "REPORT.txt"
        code = main(["report", "--skip-run", "--output", str(out)])
        assert code == 0
        text = out.read_text()
        assert "REPRODUCTION REPORT" in text
        assert "experiment tables" in capsys.readouterr().out


class TestExperimentsRun:
    def test_unknown_experiment_rejected(self, capsys):
        assert main(["experiments", "run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["fig1_topology", "--seed", "3"], "'fig1_topology' is cell-less"),
        (["robustness", "--flows", "0"], "--flows must be positive"),
        (["robustness", "--loss", "2.0"], "--loss must be a probability in [0, 1]"),
        (["robustness", "--trace", "bogus"], "bad trace filter 'bogus'"),
    ])
    def test_bad_arguments_are_usage_errors(self, argv, message, capsys, tmp_path):
        assert main(["experiments", "run", *argv, "--runs-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err and not out
        assert not list(tmp_path.iterdir())  # no cell ran

    @pytest.mark.parametrize("argv, message", [
        # Zeroing the program leaves a live traffic cell on the plain
        # driver, which refuses it.
        (["live_chaos", "--smoke", "--restarts", "0", "--partitions", "0"],
         "live cells do not support the traffic"),
        (["mixed_version", "--smoke", "--upgrade-waves", "0"],
         "live cells do not support the traffic"),
        # A queue on a chaotic cell is refused by the chaos program.
        (["live_chaos", "--smoke", "--queue-capacity", "4"],
         "chaotic cells replace the churn/queue timeline"),
    ])
    def test_override_its_driver_refuses_is_refused_up_front(
        self, argv, message, monkeypatch, capsys, tmp_path
    ):
        # A usage error: no cell, not even the sim ones ahead of the
        # refused one, may run first.
        def no_cell_runs(cell):
            raise AssertionError(f"cell {cell.index} ran")

        monkeypatch.setattr("repro.harness.session.execute_cell", no_cell_runs)
        assert main(["experiments", "run", *argv, "--runs-dir", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err and not out
        assert not list(tmp_path.iterdir())

    def test_all_checks_every_entry_before_the_first_runs(
        self, monkeypatch, capsys, tmp_path
    ):
        # live_chaos refuses a queue; the eight cell entries ahead of it
        # in the registry must not run first.
        ran = []

        def recording_run(name, **kwargs):
            ran.append(name)
            return None, [], ""

        monkeypatch.setattr("repro.harness.run_experiment", recording_run)
        argv = ["all", "--smoke", "--queue-capacity", "4", "--runs-dir", str(tmp_path)]
        assert main(["experiments", "run", *argv]) == 2
        assert ran == []
        err = capsys.readouterr().err
        assert err.startswith("error: chaotic cells replace the churn/queue timeline")

    def test_profile_prints_the_per_phase_table(self, capsys, tmp_path):
        argv = ["table1_design_space", "--smoke", "--profile", "--runs-dir", str(tmp_path)]
        assert main(["experiments", "run", *argv]) == 0
        out = capsys.readouterr().out
        title = "table1_design_space_smoke: per-phase wall-clock (s)"
        assert title in out
        header = out.split(title, 1)[1].splitlines()[1].split()
        assert header[:2] == ["cell", "label"]
        assert {"engine.run", "proto.spf"} <= set(header)
        # No phase is timed per delivered message.
        assert "proto.flood" not in out

    def test_value_error_inside_a_cell_surfaces(self, monkeypatch, tmp_path):
        class FailingSession:
            def __init__(self, spec, out_dir=None):
                pass

            def run(self, jobs=1):
                raise ValueError("raised inside a cell")

        monkeypatch.setattr("repro.harness.experiments.ExperimentSession", FailingSession)
        with pytest.raises(ValueError, match="inside a cell"):
            main(["experiments", "run", "robustness", "--runs-dir", str(tmp_path)])

    def test_seed_and_loss_flags_reach_harness(self, monkeypatch, capsys, tmp_path):
        calls = {}

        def fake_run(name, **kwargs):
            calls["name"] = name
            calls.update(kwargs)
            return SimpleNamespace(name=name), [], "table"

        monkeypatch.setattr("repro.harness.run_experiment", fake_run)
        code = main([
            "experiments", "run", "robustness",
            "--loss", "0.1", "--seed", "7", "--runs-dir", str(tmp_path),
        ])
        assert code == 0
        assert calls["name"] == "robustness"
        assert calls["seed"] == 7
        assert calls["loss"] == 0.1
        assert "table" in capsys.readouterr().out

    def test_liar_and_lie_flags_reach_harness(self, monkeypatch, tmp_path):
        calls = {}

        def fake_run(name, **kwargs):
            calls["name"] = name
            calls.update(kwargs)
            return SimpleNamespace(name=name), [], ""

        monkeypatch.setattr("repro.harness.run_experiment", fake_run)
        code = main([
            "experiments", "run", "robustness-misbehavior",
            "--liar", "ad=4", "--lie", "route-leak",
            "--runs-dir", str(tmp_path),
        ])
        assert code == 0
        # Dashed names normalize to the registered underscore name.
        assert calls["name"] == "robustness_misbehavior"
        assert calls["liar"] == "ad=4"
        assert calls["lie"] == "route-leak"

    def test_overrides_default_to_none(self, monkeypatch, tmp_path):
        calls = {}

        def fake_run(name, **kwargs):
            calls.update(kwargs)
            return SimpleNamespace(name=name), [], ""

        monkeypatch.setattr("repro.harness.run_experiment", fake_run)
        assert main([
            "experiments", "run", "robustness", "--runs-dir", str(tmp_path),
        ]) == 0
        assert calls["seed"] is None
        assert calls["loss"] is None


class TestOverloadFlags:
    def _capture(self, monkeypatch):
        calls = {}

        def fake_run(name, **kwargs):
            calls["name"] = name
            calls.update(kwargs)
            return SimpleNamespace(name=name), [], ""

        monkeypatch.setattr("repro.harness.run_experiment", fake_run)
        return calls

    def test_overload_flags_reach_harness(self, monkeypatch, tmp_path):
        calls = self._capture(monkeypatch)
        code = main([
            "experiments", "run", "robustness-churn",
            "--queue-capacity", "16", "--churn-hz", "0.25",
            "--pacing", "full", "--runs-dir", str(tmp_path),
        ])
        assert code == 0
        assert calls["name"] == "robustness_churn"
        assert calls["queue_capacity"] == 16
        assert calls["churn_hz"] == 0.25
        assert calls["pacing"] == "full"

    def test_negative_capacity_passes_through(self, monkeypatch, tmp_path):
        # Negative means "remove the queue"; the harness maps it to None.
        calls = self._capture(monkeypatch)
        assert main([
            "experiments", "run", "robustness-churn",
            "--queue-capacity", "-1", "--runs-dir", str(tmp_path),
        ]) == 0
        assert calls["queue_capacity"] == -1

    def test_overload_flags_default_to_none(self, monkeypatch, tmp_path):
        calls = self._capture(monkeypatch)
        assert main([
            "experiments", "run", "robustness", "--runs-dir", str(tmp_path),
        ]) == 0
        assert calls["queue_capacity"] is None
        assert calls["churn_hz"] is None
        assert calls["pacing"] is None

    def test_pacing_choices_are_validated(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "experiments", "run", "robustness-churn",
                "--pacing", "jitter", "--runs-dir", str(tmp_path),
            ])
        assert "--pacing" in capsys.readouterr().err
