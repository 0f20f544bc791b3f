"""Every corpus cell records exactly what the parent commit recorded.

The corpus (``tests/data/parent_records.jsonl``, built by
:mod:`tests.parent_records`) holds ``RunRecord.comparable()`` for each
registry protocol under every runtime feature, an ingress storm and
every lie, plus the perf programs' pinned cells.  A change that is meant
to move no byte of output passes this file unmodified; a failure names
the cell.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because every cell of the parent-record
corpus (each protocol under each runtime feature, an ingress storm and
every lie, plus the probed-churn, IDRP and LSDB-generation cells) must
reproduce its committed record under either seed.  The vector engine
(``VectorNode``: DV, ECMA, IDRP and its variants, EGP) flushes its
pending keys, and runs its damp pass, in sorted-key order, never set
order: the pending keys are ``(dest, qos[, cls])`` tuples whose QOS
members hash by identity, and the damped vector-damp cells pin each
engine's withdraw-once / silent / per-neighbour suppression.
"""

from __future__ import annotations

import pytest

from tests.parent_records import CELLS, CORPUS, canonical, corpus, record

pytestmark = pytest.mark.hashseed


def test_the_corpus_holds_one_canonical_line_per_cell_in_order():
    lines = CORPUS.read_text().splitlines()
    assert [canonical(corpus()[name]) for name in CELLS] == [
        canonical(entry) for entry in corpus().values()
    ]
    assert lines == [
        canonical({"name": name, "record": corpus()[name]}) for name in CELLS
    ]


@pytest.mark.parametrize("name", list(CELLS))
def test_cell_records_what_the_parent_commit_recorded(name):
    assert canonical(record(name)) == canonical(corpus()[name])


@pytest.mark.parametrize("name", [n for n in CELLS if n.startswith("vector-damp/")])
def test_each_damped_vector_cell_really_suppresses(name):
    # A damped cell that never crosses the suppress threshold would pin
    # nothing of the withdraw-once / silent flush paths it is there for.
    assert corpus()[name]["overload"]["suppressions"] > 0
