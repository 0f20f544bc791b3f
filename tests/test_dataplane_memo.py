"""Data-plane enforcement rides the policy engine's decision memo.

Each transit AD's check is :meth:`~repro.policy.database.PolicyDatabase.
transit_permits`, whose indexed, version-keyed memo is the only path:
re-forwarding a sample asks the same questions again and gets them from
the memo, and the verdicts are the ones the linear reference scan
(``scan_permitting_term`` in ``tests/oracles.py``) gives.  Plain LS
ignores policy when routing, so its traffic is full of transit ADs that
refuse it -- the case where enforcement decides.
"""

import pytest

from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.forwarding.dataplane import run_traffic
from repro.policy.database import PolicyDatabase
from repro.policy.generators import restricted_policies
from repro.protocols.registry import make_protocol
from repro.traffic.workload import WorkloadSpec, zipf_workload

from tests.oracles import scan_permitting_term


@pytest.fixture
def setting():
    graph = generate_internet(TopologyConfig(seed=42))
    policies = restricted_policies(graph, 0.4, seed=42).policies
    protocol = make_protocol("plain-ls", graph, policies)
    protocol.converge()
    flows = zipf_workload(
        graph, WorkloadSpec(flows=1, pairs=128, seed=4)
    ).classes
    return protocol, flows


def test_outcomes_identical(setting, monkeypatch):
    protocol, flows = setting
    memo = run_traffic(protocol, flows)
    assert memo.policy_drops > 0 and memo.delivered > 0
    monkeypatch.setattr(PolicyDatabase, "permitting_term", scan_permitting_term)
    assert run_traffic(protocol, flows).outcomes == memo.outcomes


def test_cache_collapses_repeats(setting):
    protocol, flows = setting
    db = protocol.policies
    run_traffic(protocol, flows)
    cold_lookups, cold_hits = db.lookups, db.cache_hits
    assert cold_lookups > cold_hits
    # Re-forwarding the same sample is pure hits: the memo key is the
    # full (transit, prev, next, flow) question, so the second pass asks
    # exactly the first pass's questions again and misses none.
    run_traffic(protocol, flows)
    assert db.lookups - cold_lookups == cold_lookups
    assert db.cache_hits - cold_hits == cold_lookups


def test_memo_off_without_policy(setting):
    protocol, flows = setting
    db = protocol.policies
    enforced = run_traffic(protocol, flows)
    lookups = db.lookups
    report = run_traffic(protocol, flows, enforce_policy=False)
    assert db.lookups == lookups  # no enforcement, no questions asked
    assert report.policy_drops == 0
    # Lifting enforcement loses no flow and delivers every dropped one
    # that had a live path.
    for plain, checked in zip(report.outcomes, enforced.outcomes):
        assert plain.delivered or not checked.delivered
    assert report.delivered == enforced.delivered + enforced.policy_drops
