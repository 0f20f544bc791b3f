"""E14 -- Data-plane tail latency under convergence.

Regenerates E14 through the harness -- every design point replays the
same seeded 10^6-flow zipf workload against FIBs recompiled at every
convergence epoch of a fault storm -- and emits
``benchmarks/out/dataplane_tail.txt``.  The table is pure simulation (no
wall-clock columns), so the determinism gate diffs it byte-for-byte.
Compiled-FIB replay speed is a row of the end-to-end ledger
(``dataplane-storm``: ``traffic.fib.compile_self_s``,
``traffic.replay.flows_per_s``).
"""

import pytest

from _common import OUT_DIR, emit
from repro.harness import run_experiment


@pytest.fixture(scope="module")
def run():
    return run_experiment("dataplane_tail", runs_dir=f"{OUT_DIR}/runs")


def test_dataplane_tail(benchmark, run):
    spec, records, text = run
    emit("dataplane_tail", text)

    assert len(records) == len(spec.protocols)
    for rec in records:
        dp = rec.dataplane
        assert dp is not None
        # Production scale: the full grid replays 10^6 flows per cell.
        assert dp["workload"]["flows"] >= 1_000_000
        # The storm was actually observed: initial + episode + probe
        # epochs + final all snapshotted a FIB and replayed the workload.
        epochs = dp["series"]["epochs"]
        assert len(epochs) >= 4
        assert epochs[0]["label"] == "initial"
        assert epochs[-1]["label"] == "final"
        # Tails are well-formed fractions/latencies.
        for key in ("outage_p50", "outage_p99", "outage_p999"):
            assert 0.0 <= dp["series"][key] <= 1.0
        assert dp["series"]["worst_gap"] >= epochs[0]["reach_gap"]
        # Compiled state is small: KB, not the 10^6-flow workload.
        assert 0 < dp["fib"]["bytes"] < 1_000_000

    # The storm hurts: at least one design point's worst epoch loses
    # more flows than its converged start.
    assert any(
        r.dataplane["series"]["worst_gap"]
        > r.dataplane["series"]["epochs"][0]["reach_gap"]
        for r in records
    )

    benchmark.pedantic(
        run_experiment,
        args=("dataplane_tail",),
        kwargs=dict(smoke=True),
        iterations=1,
        rounds=1,
    )
