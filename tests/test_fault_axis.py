"""Every :class:`FaultSpec` field is set by production.

The fault axis should hold only what the experiments run: a field that
only tests set is a model nothing measures, and it widens the space a
fault-axis fuzzer would draw from.  Production sets a field when it is a
keyword of a ``FaultSpec(...)`` call in the experiment registry, the CLI
or the end-to-end ledger's workloads, or when an ``OVERRIDES`` row on
the ``faults`` axis rewrites it.  The sources are read with ``ast``;
nothing runs.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.harness import OVERRIDES
from repro.harness.spec import FaultSpec

ROOT = Path(__file__).resolve().parent.parent
PRODUCTION = (
    *sorted((ROOT / "src/repro/harness/experiments").rglob("*.py")),
    ROOT / "src/repro/cli.py",
    ROOT / "benchmarks/e2e/workloads.py",
)


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def production_fault_keywords():
    """Keywords passed to ``FaultSpec(...)`` in the production sources."""
    keywords = set()
    for path in PRODUCTION:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _callee(node) == "FaultSpec":
                keywords.update(kw.arg for kw in node.keywords if kw.arg)
    return keywords


SET_BY_PRODUCTION = production_fault_keywords() | {
    row.name for row in OVERRIDES if row.axis == "faults"
}


def test_the_scan_reads_the_registry():
    # A scan that silently found nothing would pass every field vacuously.
    assert all(path.is_file() for path in PRODUCTION)
    assert {"loss", "queue_capacity", "restarts"} <= production_fault_keywords()


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(FaultSpec)])
def test_fault_field_is_set_by_production(field):
    assert field in SET_BY_PRODUCTION, (
        f"FaultSpec.{field} is set by no experiment, CLI command, ledger "
        "workload or faults-axis override; delete it or give it a producer"
    )
