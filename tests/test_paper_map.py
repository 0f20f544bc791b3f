"""Every test reference in ``docs/paper_map.md`` resolves.

The map's "Verified by" column names what checks each passage of the
paper.  A backticked reference there must name an existing path (a
test module, a benchmark or an example), a module file under ``tests/``
or ``benchmarks/``, or a test function or class defined in one of
those files -- found with ``ast``, nothing runs.  A deleted or renamed
test that the map still names fails here.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PAPER_MAP = ROOT / "docs" / "paper_map.md"
SEARCHED = ("tests", "benchmarks")


def verified_by_references():
    """Backticked names in the last cell of every table row."""
    refs = []
    for line in PAPER_MAP.read_text().splitlines():
        if not line.startswith("|") or line.startswith("|---"):
            continue
        cell = line.strip().strip("|").split("|")[-1]
        if cell.strip() == "Verified by":
            continue
        refs.extend(re.findall(r"`([^`]+)`", cell))
    return refs


def _modules():
    return [path for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))]


def _defined_names():
    names = set()
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
    return names


MODULE_FILES = {path.name for path in _modules()}
DEFINED = _defined_names()
REFERENCES = verified_by_references()


def resolves(ref: str) -> bool:
    if "/" in ref:
        return (ROOT / ref).is_file()
    if ref.endswith(".py"):
        return ref in MODULE_FILES
    return ref in DEFINED


def test_the_map_has_references():
    assert len(REFERENCES) >= 30


@pytest.mark.parametrize("ref", REFERENCES)
def test_verified_by_reference_resolves(ref):
    assert resolves(ref), (
        f"docs/paper_map.md names {ref!r}, which is no path, no module "
        f"under {' or '.join(SEARCHED)}, and no test defined there"
    )
