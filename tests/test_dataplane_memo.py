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
from repro.policy.database import PolicyDatabase
from repro.policy.generators import restricted_policies
from repro.protocols.registry import make_protocol
from repro.traffic import DELIVERED, POLICY_DROP
from repro.traffic.workload import WorkloadSpec, zipf_workload

from tests.oracles import forward_verdict, scan_permitting_term


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


def forward_all(protocol, flows, enforce_policy=True):
    return [forward_verdict(protocol, f, enforce_policy) for f in flows]


def count(outcomes, verdict):
    return sum(1 for v, _ in outcomes if v == verdict)


def test_outcomes_identical(setting, monkeypatch):
    protocol, flows = setting
    memo = forward_all(protocol, flows)
    assert count(memo, POLICY_DROP) > 0 and count(memo, DELIVERED) > 0
    monkeypatch.setattr(PolicyDatabase, "permitting_term", scan_permitting_term)
    assert forward_all(protocol, flows) == memo


def test_cache_collapses_repeats(setting):
    protocol, flows = setting
    db = protocol.policies
    forward_all(protocol, flows)
    cold_lookups, cold_hits = db.lookups, db.cache_hits
    assert cold_lookups > cold_hits
    # Re-forwarding the same sample is pure hits: the memo key is the
    # full (transit, prev, next, flow) question, so the second pass asks
    # exactly the first pass's questions again and misses none.
    forward_all(protocol, flows)
    assert db.lookups - cold_lookups == cold_lookups
    assert db.cache_hits - cold_hits == cold_lookups


def test_memo_off_without_policy(setting):
    protocol, flows = setting
    db = protocol.policies
    enforced = forward_all(protocol, flows)
    lookups = db.lookups
    plain = forward_all(protocol, flows, enforce_policy=False)
    assert db.lookups == lookups  # no enforcement, no questions asked
    assert count(plain, POLICY_DROP) == 0
    # Lifting enforcement loses no flow and delivers every dropped one
    # that had a live path.
    for (free, _), (checked, _) in zip(plain, enforced):
        assert free == DELIVERED or checked != DELIVERED
    assert count(plain, DELIVERED) == count(enforced, DELIVERED) + count(
        enforced, POLICY_DROP
    )
