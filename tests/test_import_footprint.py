"""No run imports networkx.

Bridges, articulation ADs, connectivity and EGP's forest test are answered
in-tree (``InterADGraph.cut_points`` / ``component_count``); only E9's
router expansion and A5's region corridors import networkx, inside the
functions that use it.  Each case below starts a fresh interpreter in
which importing networkx raises, imports every ``repro`` module the way
the end-to-end ledger's child process does, runs the smallest cell that
reaches one former networkx caller, and requires it to finish with
networkx never loaded.  A fact, not a timing: no memory figure is asserted.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because the fault planners' candidate lists
(bridges, articulation ADs from the in-tree DFS) must come out in
``graph.links()`` / ``graph.ad_ids()`` order, never set order, since
every seeded plan draws from them; and no cell that reaches them, or
EGP's forest test, may import networkx.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

pytestmark = pytest.mark.hashseed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PRELUDE = """
import importlib, pkgutil, sys
sys.modules["networkx"] = None  # any ``import networkx`` now raises
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith("__main__"):
        importlib.import_module(module.name)
from repro.harness.session import run_spec
from repro.harness.spec import (
    ExperimentSpec, FailureSpec, FaultSpec, ProtocolSpec, ScenarioSpec,
)
"""

EPILOGUE = """
assert sys.modules.pop("networkx") is None
assert not [m for m in sys.modules if m.split(".")[0] == "networkx"]
print("ok")
"""

CELLS = {
    # random_failure_plan -> safe_failure_candidates (bridges)
    "sim-plain-ls-churn": """
        (record,) = run_spec(ExperimentSpec(
            name="footprint-churn",
            scenarios=(ScenarioSpec(kind="scaled", target_ads=50, seed=47, num_flows=8),),
            protocols=(ProtocolSpec("plain-ls"),),
            faults=(FaultSpec(flaps=2, spacing=300.0, probe_interval=50.0,
                              probe_flows=4, seed=47),),
        ))
        assert record.robustness
    """,
    # ad_crash_plan -> crash_candidates (articulation points)
    "sim-ls-hbh-storm": """
        (record,) = run_spec(ExperimentSpec(
            name="footprint-storm",
            scenarios=(ScenarioSpec(kind="reference", seed=5, num_flows=8),),
            protocols=(ProtocolSpec("ls-hbh"),),
            faults=(FaultSpec(flaps=1, crashes=1, seed=3, probe_interval=100.0,
                              probe_flows=4),),
        ))
        assert record.robustness
    """,
    # random_failure_plan -> safe_failure_candidates, over loopback UDP
    "live-plain-ls-failures": """
        (record,) = run_spec(ExperimentSpec(
            name="footprint-live",
            scenarios=(ScenarioSpec(kind="scaled", target_ads=20, seed=47, num_flows=8),),
            protocols=(ProtocolSpec("plain-ls"),),
            failures=(FailureSpec(kind="random", count=2, repair=True, seed=47),),
            evaluate=True,
            substrate="live",
        ))
        assert len(record.episodes) == 5
    """,
    # ad_crash_plan + partition_plan under the live supervisor
    "live-ring-chaos": """
        (record,) = run_spec(ExperimentSpec(
            name="footprint-chaos",
            scenarios=(ScenarioSpec(kind="ring", target_ads=8, seed=5, num_flows=8),),
            protocols=(ProtocolSpec("ls-hbh-topo", options=(("graceful", "all"),)),),
            faults=(FaultSpec(restarts=1, partitions=1, seed=15, start_time=50.0,
                              spacing=100.0),),
            substrate="live",
        ))
        assert record.chaos
    """,
    # EGP's build, and its strict forest test on the tree it pruned to
    "egp-build": """
        from repro.protocols.registry import make_protocol
        from repro.workloads.scenarios import reference_scenario
        scenario = reference_scenario(seed=5, num_flows=4)
        egp = make_protocol("egp", scenario.graph, scenario.policies)
        egp.converge()
        strict = make_protocol("egp", egp.tree_graph, scenario.policies, strict=True)
        strict.build()
    """,
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_runs_without_networkx(cell):
    script = PRELUDE + textwrap.dedent(CELLS[cell]) + EPILOGUE
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0 and proc.stdout.strip().endswith("ok"), proc.stderr[-3000:]
