"""The experiment registry is the list of committed tables.

Every ``benchmarks/out/*.txt`` is written by exactly one registry entry
and every entry writes exactly one of them; a cell-less entry refuses the
grid options it has no grid for.  Nothing here runs an experiment.
"""

import os

import pytest

import repro.harness
from repro.cli import main
from repro.harness import EXPERIMENTS, run_experiment

OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks", "out")


def test_registry_and_committed_tables_match_one_to_one():
    committed = sorted(f for f in os.listdir(OUT_DIR) if f.endswith(".txt"))
    tables = [exp.table_file for exp in EXPERIMENTS.values()]
    assert len(set(tables)) == len(tables) == 22
    assert sorted(tables) == committed


def test_every_entry_is_either_a_grid_or_a_table_function():
    for exp in EXPERIMENTS.values():
        assert (exp.build_spec is None) == (exp.render is None), exp.name
        assert exp.has_cells == (exp.tabulate is None), exp.name


@pytest.mark.parametrize(
    "option",
    [{"smoke": True}, {"seed": 3}, {"trace": "all"}, {"loss": 0.1}, {"rollback": False}],
    ids=lambda option: next(iter(option)),
)
def test_a_cell_less_entry_refuses_grid_options_by_name(option):
    with pytest.raises(ValueError, match="'fig1_topology' is cell-less.*" + next(iter(option))):
        run_experiment("fig1_topology", **option)


@pytest.mark.parametrize(
    "argv, cell_only",
    [([], False), (["--smoke"], True), (["--seed", "3"], True), (["--loss", "0.1"], True)],
)
def test_all_means_the_cell_entries_under_a_grid_option(monkeypatch, capsys, argv, cell_only):
    ran = []

    def record_name(name, **kwargs):
        ran.append(name)
        return None, None, ""

    monkeypatch.setattr(repro.harness, "run_experiment", record_name)
    assert main(["experiments", "run", "all", *argv]) == 0
    assert ran == [
        name for name, exp in EXPERIMENTS.items() if exp.has_cells or not cell_only
    ]
    assert len(ran) == (11 if cell_only else 22)


def test_report_writes_every_registry_table_in_process(monkeypatch, tmp_path):
    written = []
    monkeypatch.setattr(
        repro.harness, "write_table", lambda name, out_dir, jobs: written.append(name)
    )
    out = tmp_path / "REPORT.txt"
    assert main(["report", "--output", str(out)]) == 0
    assert written == list(EXPERIMENTS)
    assert out.read_text().count("\n\n") >= len(EXPERIMENTS)
