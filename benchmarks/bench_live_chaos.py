"""E15 -- Rolling-restart + partition chaos, measured on both substrates.

Regenerates the E15 table through the harness: every design point runs
the same seeded chaos program -- rolling AD restarts (state retained,
the regime graceful restart exists for) followed by partition windows --
twice, once on the deterministic simulator and once over real asyncio/
UDP sockets under supervision, replaying the zipf workload through the
stale compiled FIB at every disruption.  Emits
``benchmarks/out/live_chaos.txt``.

The table mixes regimes on purpose: simulator rows are seeded
measurements and byte-deterministic (the determinism gate diffs them),
while live-substrate rows ride wall-clock scheduling and legitimately
jitter in their settle/message columns (the gate drops them before
comparing).  The fidelity footer is the anchor between the two: the
post-chaos routes digest of the sim and live twins must agree on every
row.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest

from _common import OUT_DIR, emit
from repro.harness import run_experiment


@pytest.fixture(scope="module")
def run():
    return run_experiment("live_chaos", jobs=2, runs_dir=f"{OUT_DIR}/runs")


def test_live_chaos(benchmark, run):
    spec, records, text = run
    emit("live_chaos", text)

    assert len(records) == len(spec.protocols) * 2  # sim + live twins
    digests = {}
    for rec in records:
        chaos = rec.chaos
        assert chaos is not None
        # The program actually ran: every restart and partition produced
        # a measured chaos event group, and every group settled.
        assert chaos["restarts"] == spec.faults[0].restarts
        assert chaos["partitions"] == spec.faults[0].partitions
        assert len(chaos["groups"]) >= (
            2 * chaos["restarts"] + 2 * chaos["partitions"]
        )
        assert all(g["quiesced"] for g in chaos["groups"])
        assert 0.0 <= chaos["availability"] <= 1.0
        if rec.substrate == "live":
            # The closing maintenance sweep restarted every serve task
            # and the supervisor never exhausted a node's budget.
            assert chaos["serve_restarts"] == rec.scenario["num_ads"]
            assert chaos["supervisor"]["gave_up"] == []
        digests.setdefault(rec.cell["label"], {})[rec.substrate] = chaos[
            "routes_digest"
        ]

    # Fidelity anchor: deterministic tie-breaks make every row's
    # post-chaos routes identical across substrates -- the link-state
    # family's, and IDRP's and pv-src's too, whose candidate rank ends in
    # the full AD path, so their selection is a total order.
    for label, subs in digests.items():
        assert subs["sim"] == subs["live"], label

    # The headline claim: graceful restart measurably lowers the
    # zipf-weighted data-plane outage tail on the link-state family.
    by_label = {r.cell["label"]: r for r in records if r.substrate == "sim"}
    helped = 0
    for name in ("ls-hbh", "ls-hbh-topo"):
        plain = by_label.get(name)
        graced = by_label.get(f"{name}+gr")
        if plain is None or graced is None:
            continue
        assert (
            graced.dataplane["series"]["outage_p99"]
            <= plain.dataplane["series"]["outage_p99"]
        ), name
        if (
            graced.dataplane["series"]["outage_p99"]
            < plain.dataplane["series"]["outage_p99"]
        ):
            helped += 1
    assert helped >= 1

    benchmark.pedantic(
        run_experiment,
        args=("live_chaos",),
        kwargs=dict(smoke=True, jobs=2),
        iterations=1,
        rounds=1,
    )
