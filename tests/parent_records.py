"""The parent-record corpus: what a fixed set of sim cells recorded.

A change that should not move a byte of output -- a refactor, a fast
path replacing a slow one -- is checked against this corpus: each cell's
``RunRecord.comparable()``, recorded at a commit whose ``src/`` is
trusted, must come out identical.  ``tests/test_parent_records.py`` runs
every cell and compares.

The cells (``CELLS``, name -> :class:`~repro.harness.spec.Cell`):

* ``<protocol>/<feature>``: every registry protocol on the ``small``
  internet with no runtime feature, each of hardening / validation /
  pacing / graceful at ``all``, wire ``v1+negotiate``, and all five
  together, under a 10%-loss channel, one link flap and one state-losing
  crash;
* ``<protocol>/ingress``: a churn storm through a bounded ingress queue;
* ``<protocol>/lie=<lie>``: each lie of the vocabulary, told by the
  busiest regional AD of a validating internet for 200 time units, then
  stopped (so every family's ``misbehave`` and ``behave`` run);
* ``probed-churn/<protocol>``, ``idrp-pinned-*/<index>`` and
  ``lsdb-generations-pinned/<index>``: the cells of the perf programs
  that pinned their own parent records before this corpus existed
  (``test_probed_churn_records.py``, ``test_idrp_control_path.py``,
  ``test_lsdb_generations.py`` keep what each cell is for);
* ``vector-damp/<index>``: naive-dv, ecma and topo-vector-src under
  ``idrp-pinned-damp``'s churn with damping on, the only cells that
  reach each vector engine's damped-flush path.

The corpus file holds one line per cell,
``{"name": <cell name>, "record": <comparable()>}`` with sorted keys and
no spaces, in ``CELLS`` order.  Regenerate it, only on a commit whose
``src/`` is clean and trusted, with::

    PYTHONPATH=src python -m tests.parent_records
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict

from repro.faults.misbehavior import LIES
from repro.harness.session import execute_cell
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
from repro.protocols.registry import available_protocols

CORPUS = Path(__file__).parent / "data" / "parent_records.jsonl"
REPO = Path(__file__).resolve().parent.parent

SMALL = ScenarioSpec(kind="small", seed=3, num_flows=16)

#: The runtime-feature settings each protocol is recorded under.
FEATURE_SETTINGS = (
    ("hardening", "all"),
    ("validation", "all"),
    ("pacing", "all"),
    ("graceful", "all"),
    ("wire", "v1+negotiate"),
)
FEATURES = (
    ("none", ()),
    *((name, ((name, value),)) for name, value in FEATURE_SETTINGS),
    ("all-features", FEATURE_SETTINGS),
)

STORM = FaultSpec(
    loss=0.1, flaps=1, crashes=1, retain_state=False, seed=3,
    start_time=50.0, spacing=150.0, probe_interval=25.0, probe_flows=8,
    label="storm",
)
INGRESS = FaultSpec(
    churn_hz=0.1, churn_links=2, churn_duration=120.0, queue_capacity=4,
    seed=7, start_time=50.0, spacing=100.0, probe_interval=20.0,
    probe_flows=8, label="ingress",
)
#: The churn the damped vector cells run under.
DAMP_CHURN = FaultSpec(
    churn_hz=0.1, churn_links=4, churn_duration=160.0, seed=7,
    start_time=50.0, spacing=100.0, probe_interval=50.0, probe_flows=8,
)


def _cell(protocol: ProtocolSpec, **axes) -> Cell:
    return Cell(
        experiment="parent-records",
        index=0,
        scenario=SMALL,
        protocol=protocol,
        failure=FailureSpec(),
        **axes,
    )


def _probed_churn_cell(protocol: str) -> Cell:
    seed = 47
    return Cell(
        experiment="probed-churn",
        index=0,
        scenario=ScenarioSpec(kind="scaled", target_ads=50, seed=seed, num_flows=24),
        protocol=ProtocolSpec(name=protocol),
        failure=FailureSpec(),
        fault=FaultSpec(
            flaps=6, spacing=300.0, probe_interval=25.0, probe_flows=24, seed=seed
        ),
    )


def _idrp_pinned_specs():
    """Small cells for the ``IDRPNode`` paths ``sim-pv-churn`` never runs."""
    scenario = ScenarioSpec(kind="reference", seed=5, num_flows=12)
    flaps = FaultSpec(flaps=2, seed=3, probe_interval=50.0, probe_flows=8)
    return (
        ExperimentSpec(
            name="idrp-pinned-flavours",
            scenarios=(scenario,),
            protocols=(
                ProtocolSpec("idrp"),
                ProtocolSpec("bgp2"),
                ProtocolSpec("pv-src"),
                ProtocolSpec("topo-vector-src"),
                ProtocolSpec("idrp", label="idrp/2", options=(("route_classes", 2),)),
            ),
            faults=(flaps,),
            evaluate=True,
        ),
        ExperimentSpec(
            name="idrp-pinned-liars",
            scenarios=(scenario,),
            protocols=(ProtocolSpec("idrp"),),
            misbehaviors=(
                MisbehaviorSpec(lie="route-leak", liar_role="regional", duration=200.0),
                MisbehaviorSpec(lie="metric-lie", liar_role="regional", duration=200.0),
            ),
            evaluate=True,
        ),
        ExperimentSpec(
            name="idrp-pinned-damp",
            scenarios=(scenario,),
            protocols=(
                ProtocolSpec("idrp", label="idrp+damp", options=(("pacing", "damp"),)),
            ),
            faults=(DAMP_CHURN,),
            evaluate=True,
        ),
    )


def _lsdb_generations_spec():
    """A small E14-shaped cell per LS+PT protocol: flap + state-losing
    crash, probed, with a FIB recompile per epoch."""
    return ExperimentSpec(
        name="lsdb-generations-pinned",
        scenarios=(ScenarioSpec(kind="reference", seed=5, num_flows=12),),
        protocols=tuple(
            ProtocolSpec(name) for name in ("ls-hbh", "ls-hbh-topo", "ls-src-topo")
        ),
        faults=(
            FaultSpec(
                flaps=1, crashes=1, retain_state=False, seed=3,
                probe_interval=50.0, probe_flows=8, label="storm",
            ),
        ),
        traffics=(TrafficSpec(flows=5000, zipf_s=1.1, pairs=32, seed=14),),
    )


def _vector_damp_spec():
    """``idrp-pinned-damp``'s churn under damping for the other vector
    engines, so DV's and ECMA's withdraw-once-then-silent suppression
    and the topology path vector's damped export are pinned too."""
    return ExperimentSpec(
        name="vector-damp",
        scenarios=(ScenarioSpec(kind="reference", seed=5, num_flows=12),),
        protocols=tuple(
            ProtocolSpec(name, label=f"{name}+damp", options=(("pacing", "damp"),))
            for name in ("naive-dv", "ecma", "topo-vector-src")
        ),
        faults=(DAMP_CHURN,),
        evaluate=True,
    )


def _cells() -> Dict[str, Cell]:
    cells: Dict[str, Cell] = {}
    for protocol in available_protocols():
        for label, options in FEATURES:
            cells[f"{protocol}/{label}"] = _cell(
                ProtocolSpec(protocol, options=options), fault=STORM
            )
        cells[f"{protocol}/ingress"] = _cell(ProtocolSpec(protocol), fault=INGRESS)
        validating = ProtocolSpec(protocol, options=(("validation", "all"),))
        for lie in LIES:
            cells[f"{protocol}/lie={lie}"] = _cell(
                validating,
                misbehavior=MisbehaviorSpec(
                    lie=lie, liar_role="regional", duration=200.0
                ),
            )
    for protocol in ("plain-ls", "ls-hbh", "ls-src-topo"):
        cells[f"probed-churn/{protocol}"] = _probed_churn_cell(protocol)
    for spec in (
        *_idrp_pinned_specs(), _lsdb_generations_spec(), _vector_damp_spec()
    ):
        for cell in spec.cells():
            cells[f"{spec.name}/{cell.index}"] = cell
    return cells


#: Every corpus cell, by name, in corpus order.
CELLS: Dict[str, Cell] = _cells()


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def record(name: str) -> dict:
    """Run cell ``name`` now and return its ``comparable()`` record."""
    return execute_cell(CELLS[name]).comparable()


@lru_cache(maxsize=1)
def corpus() -> Dict[str, dict]:
    """The committed records, by cell name."""
    lines = CORPUS.read_text().splitlines()
    entries = [json.loads(line) for line in lines]
    return {entry["name"]: entry["record"] for entry in entries}


def main() -> int:
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "src"],
        cwd=REPO, capture_output=True, text=True, check=True,
    ).stdout
    if dirty:
        print(
            "refusing to record: src/ has uncommitted changes; the corpus "
            "must come from a committed, trusted src/\n" + dirty,
            file=sys.stderr,
        )
        return 1
    CORPUS.write_text(
        "".join(
            canonical({"name": name, "record": record(name)}) + "\n"
            for name in CELLS
        )
    )
    print(f"wrote {len(CELLS)} records to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
