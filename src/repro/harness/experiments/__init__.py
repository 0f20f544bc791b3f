"""The experiment registry: every committed table, by name.

Each entry of :data:`EXPERIMENTS` produces exactly one table,
``benchmarks/out/<table>.txt``, and :func:`run_experiment` is the one way
to produce it -- for the CLI (``python -m repro experiments run``), for
``repro report`` and for the table gate (``benchmarks/test_tables.py``,
which writes the files and checks each table's shape).

A *cell* entry is a declarative :class:`~repro.harness.spec.ExperimentSpec`
plus a renderer that reduces the merged
:class:`~repro.harness.record.RunRecord` list to the table; it runs in
parallel (``jobs``), persists its telemetry, and ``--smoke`` swaps in a
reduced grid for CI.  A *cell-less* entry computes its table directly,
because its columns are not in any record.  The entries live in one
module per table family: :mod:`.design_space` (E1, E3, E4, E7),
:mod:`.robustness` (E11-E13), :mod:`.dataplane` (E14-E16),
:mod:`.analysis` (E2, E8-E10), :mod:`.mechanisms` (E5, E6) and
:mod:`.ablations` (A1-A6).
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

from repro.harness.experiments import (
    ablations,
    analysis,
    dataplane,
    design_space,
    mechanisms,
    robustness,
)
from repro.harness.experiments.common import Experiment
from repro.harness.experiments.overrides import (
    OVERRIDES,
    ExperimentArgumentError,
    Override,
    _parse_liar,
    apply_override,
)
from repro.harness.session import ExperimentSession, _parse_trace, check_cell
from repro.harness.spec import ExperimentSpec

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentArgumentError",
    "OVERRIDES",
    "Override",
    "_parse_liar",
    "experiment_spec",
    "run_experiment",
    "write_table",
]


def _paper_order(experiment: Experiment) -> Tuple[bool, int]:
    """E1..E16 in numeric order, then the ablations A1..A6."""
    return experiment.eid[0] != "E", int(experiment.eid[1:])


EXPERIMENTS: Dict[str, Experiment] = {
    exp.name: exp
    for exp in sorted(
        (
            *design_space.ENTRIES,
            *analysis.ENTRIES,
            *mechanisms.ENTRIES,
            *robustness.ENTRIES,
            *dataplane.ENTRIES,
            *ablations.ENTRIES,
        ),
        key=_paper_order,
    )
}


def experiment_spec(
    name: str,
    smoke: bool = False,
    trace: Optional[str] = None,
    seed: Optional[int] = None,
    **overrides: Any,
) -> Optional[ExperimentSpec]:
    """The spec :func:`run_experiment` would run, every cell checked.

    ``None`` for a cell-less entry.  A bad name or argument, or a cell
    that :func:`check_cell` refuses, raises
    :class:`ExperimentArgumentError` (a ``ValueError``); nothing runs, so
    a caller may check several entries before it runs the first.
    """
    try:
        experiment = EXPERIMENTS[name]
    except KeyError:
        raise ExperimentArgumentError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}"
        ) from None
    unknown = set(overrides) - {row.name for row in OVERRIDES}
    if unknown:
        raise TypeError(
            f"run_experiment() got unknown override(s) "
            f"{', '.join(sorted(unknown))}; valid overrides: "
            f"{', '.join(row.name for row in OVERRIDES)}"
        )
    if not experiment.has_cells:
        given = ["smoke"] * smoke + [
            key
            for key, value in (("trace", trace), ("seed", seed), *overrides.items())
            if value is not None
        ]
        if given:
            raise ExperimentArgumentError(
                f"experiment {name!r} is cell-less (no grid); "
                f"{', '.join(given)} cannot apply to it"
            )
        return None
    if trace is not None:
        try:
            _parse_trace(trace)
        except ValueError as exc:
            raise ExperimentArgumentError(str(exc)) from None
    spec = experiment.build_spec(smoke)
    if smoke:
        spec = replace(spec, name=f"{spec.name}_smoke")
    if trace is not None:
        spec = replace(spec, trace=trace)
    if seed is not None:
        spec = replace(spec, seeds=(seed,))
    for row in OVERRIDES:
        if overrides.get(row.name) is not None:
            spec = apply_override(spec, row, overrides[row.name])
    for cell in spec.cells():
        # An override can leave a cell that its driver refuses.
        try:
            check_cell(cell)
        except ValueError as exc:
            raise ExperimentArgumentError(str(exc)) from None
    return spec


def run_experiment(
    name: str,
    jobs: int = 1,
    smoke: bool = False,
    runs_dir: Optional[str] = None,
    trace: Optional[str] = None,
    seed: Optional[int] = None,
    **overrides: Any,
) -> Tuple[Optional[ExperimentSpec], Any, str]:
    """Run a named experiment; returns (spec, records, rendered table).

    ``smoke`` switches to the reduced grid *and* renames the experiment
    to ``<name>_smoke`` so smoke artifacts never overwrite the full
    (determinism-checked) ones.  ``seed`` replaces the spec's seed axis
    with a single seed (re-seeding every scenario).  ``overrides`` are
    keyed by the rows of :data:`OVERRIDES` (each row's ``help`` says
    what it rewrites; ``None`` means "not given"): every point of the
    row's axis is rewritten and points that become equal collapse,
    preserving order.

    A cell-less entry has no grid: it returns ``(None, measured, text)``
    where ``measured`` holds the values its table was built from, and
    refuses ``smoke``, ``trace``, ``seed`` and every override, naming
    the entry.  ``jobs`` and ``runs_dir`` do not apply to it.

    A bad name or argument raises :class:`ExperimentArgumentError` (a
    ``ValueError``) before any cell runs (:func:`experiment_spec`).
    """
    spec = experiment_spec(name, smoke, trace, seed, **overrides)
    experiment = EXPERIMENTS[name]
    if spec is None:
        text, measured = experiment.tabulate()
        return None, measured, text
    records = ExperimentSession(spec, out_dir=runs_dir).run(jobs=jobs)
    return spec, records, experiment.render(spec, records)


def write_table(
    name: str, out_dir: str, jobs: int = 1
) -> Tuple[Optional[ExperimentSpec], Any, str]:
    """Run ``name`` at full size and write its table to
    ``<out_dir>/<table>.txt`` (cell telemetry to ``<out_dir>/runs``);
    returns what :func:`run_experiment` returns."""
    spec, measured, text = run_experiment(
        name, jobs=jobs, runs_dir=os.path.join(out_dir, "runs")
    )
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, EXPERIMENTS[name].table_file), "w") as fh:
        fh.write(text + "\n")
    return spec, measured, text
