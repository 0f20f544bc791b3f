"""Tests for the policy database."""

import pytest

from repro.adgraph.generator import generate_internet, scaled_config
from repro.core.evaluation import sample_flows
from repro.core.synthesis import RouteSynthesizer
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.generators import source_class_policies
from repro.policy.sets import ADSet
from repro.policy.terms import PolicyTerm
from repro.policy.uci import UCI

from tests.oracles import scan_permitting_term


class TestTermManagement:
    def test_term_ids_assigned_per_owner(self):
        db = PolicyDatabase()
        t0 = db.add_term(PolicyTerm(owner=1))
        t1 = db.add_term(PolicyTerm(owner=1))
        t2 = db.add_term(PolicyTerm(owner=2))
        assert (t0.term_id, t1.term_id, t2.term_id) == (0, 1, 0)

    def test_lookup_by_citation(self):
        db = PolicyDatabase()
        stored = db.add_term(PolicyTerm(owner=3, sources=ADSet.of([1])))
        assert db.term(3, 0) == stored
        with pytest.raises(KeyError):
            db.term(3, 1)
        with pytest.raises(KeyError):
            db.term(4, 0)

    def test_version_bumps_on_mutation(self):
        db = PolicyDatabase()
        v0 = db.version
        db.add_term(PolicyTerm(owner=1))
        assert db.version == v0 + 1
        db.remove_terms(1)
        assert db.version == v0 + 2
        # Removing nothing does not bump.
        v = db.version
        db.remove_terms(99)
        assert db.version == v

    def test_owners_and_all_terms_ordering(self):
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=5))
        db.add_term(PolicyTerm(owner=2))
        db.add_term(PolicyTerm(owner=5))
        assert db.owners() == [2, 5]
        assert [(t.owner, t.term_id) for t in db.all_terms()] == [
            (2, 0),
            (5, 0),
            (5, 1),
        ]
        assert db.num_terms == 3

    def test_init_from_iterable(self):
        db = PolicyDatabase([PolicyTerm(owner=1), PolicyTerm(owner=1)])
        assert db.num_terms == 2

    def test_copy_is_independent(self):
        db = PolicyDatabase([PolicyTerm(owner=1)])
        clone = db.copy()
        clone.add_term(PolicyTerm(owner=2))
        assert db.num_terms == 1
        assert clone.num_terms == 2


class TestTransitPermits:
    def test_no_terms_means_no_transit(self):
        db = PolicyDatabase()
        assert not db.transit_permits(7, FlowSpec(1, 2), 1, 2)

    def test_first_matching_term_cited(self):
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=7, sources=ADSet.of([99])))
        db.add_term(PolicyTerm(owner=7))
        term = db.permitting_term(7, FlowSpec(1, 2), 1, 2)
        assert term is not None and term.term_id == 1
        # A flow matching the first term cites it.
        term99 = db.permitting_term(7, FlowSpec(99, 2), 1, 2)
        assert term99 is not None and term99.term_id == 0

    def test_size_bytes_totals(self):
        db = PolicyDatabase([PolicyTerm(owner=1), PolicyTerm(owner=2)])
        assert db.size_bytes() == sum(t.size_bytes() for t in db.all_terms())

    def test_running_totals_track_mutations(self):
        # num_terms and size_bytes are maintained incrementally (O(1)
        # reads for per-round metrics); they must agree with recomputation
        # through an arbitrary add/remove history.
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=1, sources=ADSet.of([2, 3])))
        db.add_term(PolicyTerm(owner=1))
        db.add_term(PolicyTerm(owner=2, dests=ADSet.excluding([9])))
        assert db.num_terms == 3
        assert db.size_bytes() == sum(t.size_bytes() for t in db.all_terms())
        db.remove_terms(1)
        assert db.num_terms == 1
        assert db.size_bytes() == sum(t.size_bytes() for t in db.all_terms())
        db.remove_terms(1)  # idempotent, totals untouched
        assert db.num_terms == 1
        db.remove_terms(2)
        assert db.num_terms == 0
        assert db.size_bytes() == 0


class TestIndexedEngine:
    def test_indexed_and_scan_agree_on_citation(self):
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=7, sources=ADSet.of([99])))
        db.add_term(PolicyTerm(owner=7))
        flow = FlowSpec(99, 2)
        indexed = db.permitting_term(7, flow, 1, 2)
        reference = scan_permitting_term(db, 7, flow, 1, 2)
        assert indexed is not None and indexed.term_id == reference.term_id == 0

    def test_decision_cache_hits_and_version_invalidation(self):
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=7, sources=ADSet.of([1])))
        flow = FlowSpec(1, 2)
        assert db.transit_permits(7, flow, 1, 2)
        hits_before = db.cache_hits
        assert db.transit_permits(7, flow, 1, 2)
        assert db.cache_hits == hits_before + 1
        # A mutation bumps the version; the stale verdict must not survive.
        db.add_term(PolicyTerm(owner=7, sources=ADSet.of([5])))
        assert db.transit_permits(7, FlowSpec(5, 2), 1, 2)
        assert db.transit_permits(7, flow, 1, 2)

    def test_removal_invalidates_cached_permit(self):
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=7))
        flow = FlowSpec(1, 2)
        assert db.transit_permits(7, flow, 1, 2)
        db.remove_terms(7)
        assert not db.transit_permits(7, flow, 1, 2)

    def test_indexed_lookup_cites_what_the_scan_cites(self):
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=3, ucis=frozenset({UCI.RESEARCH})))
        db.add_term(PolicyTerm(owner=3, prev_ads=ADSet.of([1])))
        flow = FlowSpec(1, 2, uci=UCI.RESEARCH)
        indexed = db.permitting_term(3, flow, 1, 2)
        scanned = scan_permitting_term(db, 3, flow, 1, 2)
        assert indexed.term_id == scanned.term_id

    def test_transit_charge_matches_cited_term(self):
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=3, charge=2.5))
        assert db.transit_charge(3, FlowSpec(1, 2), 1, 2) == 2.5
        assert db.transit_charge(4, FlowSpec(1, 2), 1, 2) is None

    def test_synthesis_routes_identical_under_the_scan(self, monkeypatch):
        # Route-level equivalence: every synthesised route on a small
        # scaled internet with source-class policies (finite source sets,
        # the indexed engine's case) is the route the linear scan yields.
        graph = generate_internet(scaled_config(50, seed=41))
        policies = source_class_policies(
            graph, num_classes=12, refusal_prob=0.25, seed=41
        ).policies
        flows = sample_flows(graph, 40, seed=42)

        def paths():
            synthesizer = RouteSynthesizer(graph, policies.copy())
            routes = [synthesizer.route(flow) for flow in flows]
            return [None if r is None else r.path for r in routes]

        indexed = paths()
        monkeypatch.setattr(PolicyDatabase, "permitting_term", scan_permitting_term)
        assert paths() == indexed
        assert sum(path is not None for path in indexed) > len(flows) // 2
