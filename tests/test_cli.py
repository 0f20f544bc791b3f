"""Tests for the command-line interface."""

import os
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
        for exp in ("E1", "E5", "E10", "E13", "A1-A6"):
            assert exp in out
        assert "pytest benchmarks/" in out

    def test_listing_is_derived_from_the_registry(self, capsys):
        from repro.harness import EXPERIMENTS

        assert main(["experiments", "list"]) == 0
        rows = [
            [col.strip() for col in re.split(r"\s{2,}", line.strip())]
            for line in capsys.readouterr().out.splitlines()
            if ".py" in line
        ]
        assert [row[0] for row in rows] == [
            *(f"E{n}" for n in range(1, 17)), "A1-A6",
        ]
        for exp in EXPERIMENTS.values():
            assert [exp.eid, exp.description] in [row[:2] for row in rows]
        bench_dir = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
        for _, _, bench in rows:
            assert os.path.exists(os.path.join(bench_dir, bench)), bench


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
