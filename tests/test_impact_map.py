"""The test-impact map (``benchmarks/test_impact.py``) covers the program.

The map sends each ``src/repro`` module to the test modules whose import
chains reach it; a mutation run or a reviewer picks the tests to run
from it.  A module missing from the map, or mapped to no test, would
silently get none, so every module must be a key and every module but
the ``python -m repro`` entry point (which exits on import, so no test
imports it) must be reached by some test.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def impact():
    spec = importlib.util.spec_from_file_location(
        "test_impact_script", os.path.join(ROOT, "benchmarks", "test_impact.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def mapping(impact):
    return impact.impact_map()


def test_every_source_module_is_mapped_and_reached(impact, mapping):
    files = [
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(os.path.join(ROOT, "src", "repro"))
        for name in names
        if name.endswith(".py")
    ]
    assert len(mapping) == len(files) > 80
    assert set(mapping) == set(impact.source_modules())
    assert [module for module, tests in mapping.items() if not tests] == [
        "repro.__main__"
    ]


def test_the_map_follows_imports_and_answers_by_path(impact, mapping, capsys):
    assert "tests/test_event_calendar.py" in mapping["repro.simul.engine"]
    assert "tests/test_ls_install_rule.py" in mapping["repro.protocols.flooding"]
    # An enclosing package runs with any module inside it.
    assert set(mapping["repro.protocols.orwg.messages"]) <= set(mapping["repro.protocols"])
    assert all(test.startswith("tests/test_") for tests in mapping.values() for test in tests)

    idrp = os.path.join(ROOT, "src", "repro", "protocols", "idrp.py")
    assert impact.main([idrp, "repro.protocols.vector"]) == 0
    assert capsys.readouterr().out.split() == sorted(
        set(mapping["repro.protocols.idrp"]) | set(mapping["repro.protocols.vector"])
    )
    assert impact.main(["repro.protocols.idrp", "repro.nowhere"]) == 2
