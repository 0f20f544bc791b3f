"""The IDRP control path: same records, far fewer allocations.

``policy/sets.ADSet`` allocates only when a set operation's answer is
new, and ``IDRPNode._reselect`` / ``_flush_batch`` are built on that.  The
ledger's ``sim-pv-churn`` oracle pins the plain idrp configuration; this
file pins what it does not reach, and counts what was saved:

* behaviour: small seeded cells of every ``IDRPNode`` flavour -- idrp,
  bgp2, pv-src, topo-vector-src, idrp with two route classes (the only
  configuration where ``∩ class_set`` is not an identity), liars that
  reassign ``own_terms`` mid-run, a damped cell with suppressed keys in
  ``_flush_batch`` -- record byte-for-byte what the parent commit recorded
  (cells ``idrp-pinned-*`` of the parent-record corpus);
* allocation: an exact count of ``ADSet`` constructions per received
  route advertisement on a churn cell, no timing;
* path length: an exact count of Python-level calls per received route
  advertisement through the same cell's initial convergence, no timing.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because QOS members hash by identity, not by
name, so the hash of a ``(dest, qos, cls)`` routing key differs in every
process whatever the seed: IDRP's pinned records, its allocation budget
and the set algebra, together with the bench-determinism job, show that
no output depends on it.
"""

from __future__ import annotations

import sys

import pytest

from repro.policy.sets import ADSet
from repro.protocols.idrp import IDRPNode
from repro.protocols.registry import make_protocol
from repro.workloads.scenarios import scaled_scenario
from tests.parent_records import corpus

pytestmark = pytest.mark.hashseed

#: Parent commit 9.65, sizing prototype 0.41.
CONSTRUCTIONS_PER_ROUTE_AD_BUDGET = 1.0

#: Python-level calls per received route ad, network-wide, through the
#: 50-AD idrp cell's initial convergence.  63.12 while ``on_message``
#: asked ``_rejects`` with every check off, tested ``is_withdrawal`` twice
#: per ad and, like ``_reselect``, reached the graph through the
#: ``topology`` -> ``transport`` property pair; 56.98 without; 54.41 with
#: the node's ``transport`` a plain attribute and the simulator its own
#: clock (``now`` and ``schedule`` each skip a wrapper call); 32.29 with
#: each node's own terms compiled once into export rows (no
#: ``matches_except_source`` / ``ADSet.matches`` per term and neighbour),
#: candidates ranked inline (no ``_candidate_rank``, QOS ``metric`` or
#: ``link.metric`` call), the identity ``∩ everyone`` skipped, pending
#: keys sorted natively (no ``_key_order`` / ``QOS.value`` per key),
#: ``_SetMode`` hashed by identity and a ``RouteAd`` sized once.  The
#: count repeats exactly under any hash seed; the slack is for first-use
#: work elsewhere in a test session.
CALLS_PER_ROUTE_AD_BUDGET = 32.5


def test_pinned_cells_record_what_the_parent_commit_recorded():
    # The cells are ``idrp-pinned-*`` of the parent-record corpus
    # (tests/parent_records.py), recorded before the set algebra and the
    # two loops were rebuilt; tests/test_parent_records.py runs them.
    records = [
        record for name, record in corpus().items() if name.startswith("idrp-pinned-")
    ]
    assert [r["cell"]["label"] for r in records] == [
        "idrp", "bgp2", "pv-src", "topo-vector-src", "idrp/2",
        "idrp", "idrp", "idrp+damp",
    ]
    # The cells reach what they are there for: a liar really lied, and
    # damping really suppressed announcements inside ``_flush_batch``.
    assert all(r["misbehavior"]["applied"] for r in records[5:7])
    assert records[7]["overload"]["suppressed_announcements"] > 100


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


def test_python_calls_per_received_route_ad_stay_within_budget():
    # Counted by the profile hook itself, so no wrapper adds a call: the
    # route ads received are read off each ``IDRPNode.on_message`` frame.
    scenario = scaled_scenario(50, seed=47)
    network = make_protocol("idrp", scenario.graph, scenario.policies).build()
    network.start()
    on_message = IDRPNode.on_message.__code__
    calls = received = 0

    def count(frame, event, arg):
        nonlocal calls, received
        if event == "call":
            calls += 1
            if frame.f_code is on_message:
                received += len(frame.f_locals["msg"].routes)

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        network.run()
    finally:
        sys.setprofile(previous)
    assert received > 2_000  # the cell really converged through updates
    assert calls / received <= CALLS_PER_ROUTE_AD_BUDGET, (
        f"{calls} calls for {received} received route ads = "
        f"{calls / received:.2f} per ad (budget {CALLS_PER_ROUTE_AD_BUDGET})"
    )
