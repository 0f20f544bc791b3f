"""The probed-churn cells reproduce the legacy recompute path's records.

The LS family once ran two ways: cold-building each node's believed view
and re-running Dijkstra per LSDB version, or deriving the view per LSA
delta and repairing the SPF tree.  Only the second remains.  These cells
-- a 50-AD scaled E7 topology, initial convergence, then six link flaps
sampled by the prober every 25 time units -- are where every LSDB version
bump makes the probed nodes re-derive views and routes, so they are where
a delta path that drifted from the cold build would show.  Each must
record exactly what the cold-build path recorded: episodes, message
counts and bytes, computations, RIB state and the prober's robustness
summary.

The cells are ``probed-churn/<protocol>`` of the parent-record corpus
(:mod:`tests.parent_records`), whose records equal, field for field, what
the last commit with the cold-build path recorded under ``perf="none"``;
``tests/test_parent_records.py`` runs them.  This file keeps what each
cell is for: the protocol's one route computation, at its count.
"""

from __future__ import annotations

import pytest

from tests.parent_records import corpus

COMPUTATIONS = {
    "plain-ls": {"spf": 542},
    "ls-hbh": {"policy_route": 1533},
    "ls-src-topo": {"valley_free_spf": 430},
}


@pytest.mark.parametrize("protocol", tuple(COMPUTATIONS))
def test_probed_churn_cells_record_what_the_cold_build_path_recorded(protocol):
    record = corpus()[f"probed-churn/{protocol}"]
    assert record["computations"] == COMPUTATIONS[protocol]
