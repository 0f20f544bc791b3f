"""Index/scan equivalence for the policy-term engine.

The indexed ``permitting_term`` is a pure optimisation: for every
database, flow, and traversal it must cite the *identical* term (same
``term_id``, not merely the same verdict) as the reference linear scan,
and it must keep doing so across mutations that bump ``version``.  These
properties are what lets every consumer -- synthesis, ground truth,
legality, the protocols, the data plane -- adopt the engine without any
routing answer changing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.policy.sets import ADSet, TimeWindow
from repro.policy.terms import PolicyTerm
from repro.policy.uci import UCI

from tests.oracles import scan_permitting_term

#: A deliberately small AD universe so random terms and flows collide
#: often -- equivalence on misses is as load-bearing as on hits.
ADS = list(range(8))

_ad_sets = st.one_of(
    st.just(ADSet.everyone()),
    st.builds(ADSet.of, st.frozensets(st.sampled_from(ADS), max_size=4)),
    st.builds(ADSet.excluding, st.frozensets(st.sampled_from(ADS), max_size=4)),
)

_class_sets = lambda enum: st.one_of(
    st.none(), st.frozensets(st.sampled_from(list(enum)), max_size=len(list(enum)))
)

_windows = st.one_of(
    st.just(TimeWindow.always()),
    st.builds(TimeWindow, st.integers(0, 23), st.integers(0, 23)),
)

_terms = st.builds(
    PolicyTerm,
    owner=st.sampled_from(ADS),
    sources=_ad_sets,
    dests=_ad_sets,
    prev_ads=_ad_sets,
    next_ads=_ad_sets,
    qos_classes=_class_sets(QOS),
    ucis=_class_sets(UCI),
    window=_windows,
    charge=st.floats(0.0, 5.0),
)

_flows = st.builds(
    FlowSpec,
    src=st.sampled_from(ADS),
    dst=st.sampled_from(ADS),
    qos=st.sampled_from(list(QOS)),
    uci=st.sampled_from(list(UCI)),
    hour=st.integers(0, 23),
)

_queries = st.tuples(
    st.sampled_from(ADS),  # owner being traversed
    _flows,
    st.sampled_from(ADS),  # prev
    st.sampled_from(ADS),  # next
)


def _assert_identical_citation(db, owner, flow, prev, nxt):
    indexed = db.permitting_term(owner, flow, prev, nxt)
    reference = scan_permitting_term(db, owner, flow, prev, nxt)
    if reference is None:
        assert indexed is None
    else:
        assert indexed is not None
        assert (indexed.owner, indexed.term_id) == (
            reference.owner,
            reference.term_id,
        )


@settings(max_examples=200, deadline=None)
@given(
    terms=st.lists(_terms, max_size=12),
    queries=st.lists(_queries, min_size=1, max_size=8),
    extra_term=_terms,
    removed_owner=st.sampled_from(ADS),
)
def test_indexed_engine_equals_linear_scan(terms, queries, extra_term, removed_owner):
    db = PolicyDatabase(terms)
    for owner, flow, prev, nxt in queries:
        _assert_identical_citation(db, owner, flow, prev, nxt)
    # Repeat the same queries: now served from the decision cache, still
    # citing the identical term.
    for owner, flow, prev, nxt in queries:
        _assert_identical_citation(db, owner, flow, prev, nxt)
    # Mutations bump the version; cached verdicts must not leak across.
    db.add_term(extra_term)
    for owner, flow, prev, nxt in queries:
        _assert_identical_citation(db, owner, flow, prev, nxt)
    db.remove_terms(removed_owner)
    for owner, flow, prev, nxt in queries:
        _assert_identical_citation(db, owner, flow, prev, nxt)


@settings(max_examples=100, deadline=None)
@given(terms=st.lists(_terms, max_size=10), query=_queries)
def test_copy_keeps_engines_independent(terms, query):
    """Mutating a copy never perturbs the original's cached decisions."""
    db = PolicyDatabase(terms)
    owner, flow, prev, nxt = query
    before = db.permitting_term(owner, flow, prev, nxt)
    clone = db.copy()
    clone.add_term(PolicyTerm(owner=owner))
    clone.remove_terms(owner)
    after = db.permitting_term(owner, flow, prev, nxt)
    assert (before is None) == (after is None)
    if before is not None:
        assert before.term_id == after.term_id
    _assert_identical_citation(clone, owner, flow, prev, nxt)
