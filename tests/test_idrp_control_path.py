"""The IDRP control path: same records, far fewer allocations.

``policy/sets.ADSet`` allocates only when a set operation's answer is
new, and ``IDRPNode._reselect`` / ``_flush`` are built on that.  The
ledger's ``sim-pv-churn`` oracle pins the plain idrp configuration; this
file pins what it does not reach, and counts what was saved:

* behaviour: small seeded cells of every ``IDRPNode`` flavour -- idrp,
  bgp2, pv-src, topo-vector-src, idrp with two route classes (the only
  configuration where ``∩ class_set`` is not an identity), liars that
  reassign ``own_terms`` mid-run, a damped cell with suppressed keys in
  ``_flush`` -- record byte-for-byte what the parent commit recorded;
* allocation: an exact count of ``ADSet`` constructions per received
  route advertisement on a churn cell, no timing.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness import (
    ExperimentSpec,
    FaultSpec,
    MisbehaviorSpec,
    ProtocolSpec,
    ScenarioSpec,
    run_spec,
)
from repro.policy.sets import ADSet
from repro.protocols.idrp import IDRPNode
from repro.protocols.registry import make_protocol
from repro.workloads.scenarios import scaled_scenario

PARENT_RECORDS = Path(__file__).parent / "data" / "idrp_parent_records.json"

#: Parent commit 9.65, sizing prototype 0.41.
CONSTRUCTIONS_PER_ROUTE_AD_BUDGET = 1.0


def pinned_specs():
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
            faults=(
                FaultSpec(
                    churn_hz=0.1, churn_links=4, churn_duration=160.0, seed=7,
                    start_time=50.0, spacing=100.0, probe_interval=50.0,
                    probe_flows=8,
                ),
            ),
            evaluate=True,
        ),
    )


def pinned_records_text():
    records = [
        record.comparable() for spec in pinned_specs() for record in run_spec(spec)
    ]
    return records, json.dumps(records, sort_keys=True, separators=(",", ":"))


def test_pinned_cells_record_what_the_parent_commit_recorded():
    # The fixture is pinned_records_text() at the commit before the set
    # algebra and the two loops were rebuilt (regenerate, at that commit
    # only, with ``python -m tests.test_idrp_control_path``).
    records, text = pinned_records_text()
    assert [r["cell"]["label"] for r in records] == [
        "idrp", "bgp2", "pv-src", "topo-vector-src", "idrp/2",
        "idrp", "idrp", "idrp+damp",
    ]
    # The cells reach what they are there for: a liar really lied, and
    # damping really suppressed announcements inside ``_flush``.
    assert all(r["misbehavior"]["applied"] for r in records[5:7])
    assert records[7]["overload"]["suppressed_announcements"] > 100
    assert text == PARENT_RECORDS.read_text()


def test_adset_constructions_per_received_route_ad_stay_under_budget(monkeypatch):
    # An exact count in the style of test_message_path.py's call budget:
    # what a received route ad costs in set objects, network-wide, through
    # initial convergence and six link flaps on a 50-AD internet.
    scenario = scaled_scenario(50, seed=47)
    protocol = make_protocol("idrp", scenario.graph, scenario.policies)
    network = protocol.build()
    constructed = received = 0
    init, on_message = ADSet.__init__, IDRPNode.on_message

    def counting_init(self, *args, **kwargs):
        nonlocal constructed
        constructed += 1
        init(self, *args, **kwargs)

    def counting_on_message(self, sender, msg):
        nonlocal received
        received += len(msg.routes)
        on_message(self, sender, msg)

    monkeypatch.setattr(ADSet, "__init__", counting_init)
    monkeypatch.setattr(IDRPNode, "on_message", counting_on_message)
    network.start()
    network.run()
    links = sorted(link.key for link in scenario.graph.links())
    for a, b in links[:: len(links) // 6][:6]:
        for up in (False, True):
            protocol.apply_link_status(a, b, up)
            network.run()
    assert received > 5_000  # the flaps really churned the path vector
    assert constructed / received <= CONSTRUCTIONS_PER_ROUTE_AD_BUDGET, (
        f"{constructed} ADSet constructions for {received} received route ads = "
        f"{constructed / received:.2f} per ad "
        f"(budget {CONSTRUCTIONS_PER_ROUTE_AD_BUDGET})"
    )


if __name__ == "__main__":
    PARENT_RECORDS.write_text(pinned_records_text()[1])
