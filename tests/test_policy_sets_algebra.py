"""``ADSet.intersect`` / ``union`` against the algebra they replaced.

The operations hand back an operand when the answer is that operand and
share three module-level instances; the implementation they replaced
normalised ``ALL`` to ``EXCLUDE{}`` and built every answer from scratch.
It survives here as the oracle: every answer must be ``==`` the old one,
*including* which of the two unequal spellings of the universal set
(``ALL`` / ``EXCLUDE{}``) comes out -- IDRP's decision process and the
wire codec both observe the spelling.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy.qos import QOS
from repro.policy.sets import ADSet
from repro.protocols.idrp import IDRPUpdate, RouteAd
from repro.simul import wire

ALL, NOTHING, NONE = ADSet.everyone(), ADSet.excluding(()), ADSet.none()


def old_algebra(op, x, y):
    """The replaced implementation, its ``ALL`` -> ``EXCLUDE{}`` step folded in."""
    meet = op == "intersect"
    a, b = x.members, y.members  # ALL lists no members: it is EXCLUDE{} here
    if x.is_finite and y.is_finite:
        return ADSet.of(a & b if meet else a | b)
    if x.is_finite or y.is_finite:
        fin, cof = (a, b) if x.is_finite else (b, a)
        return ADSet.of(fin - cof) if meet else ADSet.excluding(cof - fin)
    return ADSet.excluding(a | b if meet else a & b)


_members = st.frozensets(st.integers(0, 7), max_size=5)
_adsets = st.one_of(
    st.just(ADSet.everyone()), _members.map(ADSet.of), _members.map(ADSet.excluding)
)
PROBES = range(-1, 10)


def observed(s):
    """Everything a caller can see of a set, the wire form included."""
    msg = IDRPUpdate((RouteAd(3, QOS.DEFAULT, (1, 3), 2.0, s),))
    frame = wire.dumps(msg)
    assert wire.loads(frame) == msg
    return (
        s, s.size_bytes(), str(s), s.is_empty, s.is_universal, s.is_finite,
        s.plausible_size(), [s.matches(p) for p in PROBES], frame,
    )


@settings(max_examples=600, deadline=None)
@given(a=_adsets, b=_adsets, op=st.sampled_from(["intersect", "union"]))
def test_every_answer_equals_the_old_algebras(a, b, op):
    before = (copy.deepcopy(a), copy.deepcopy(b))
    got, want = getattr(a, op)(b), old_algebra(op, a, b)
    assert observed(got) == observed(want)
    assert hash(got) == hash(want)
    assert (a, b) == before  # operands are values: never mutated
    meet = op == "intersect"
    for p in PROBES:
        assert got.matches(p) == (
            a.matches(p) and b.matches(p) if meet else a.matches(p) or b.matches(p)
        )


@settings(max_examples=300, deadline=None)
@given(a=_adsets, b=_adsets)
def test_subset_test_is_the_old_one(a, b):
    # is_subset_of lost its _as_exclude too; the old answer, spelled out.
    (fa, ma), (fb, mb) = ((s.is_finite, s.members) for s in (a, b))
    if fa:
        want = ma <= mb if fb else not (ma & mb)
    else:
        want = False if fb else mb <= ma
    assert a.is_subset_of(b) == want


@pytest.mark.parametrize("x", [ALL, NOTHING, NONE, ADSet.of([1, 2]), ADSet.excluding([3])])
def test_which_spelling_of_the_universal_set_each_operation_returns(x):
    # The soft spot, pinned: ALL and EXCLUDE{} are both universal and not
    # equal.  A tidy-up that normalises them changes which updates IDRP's
    # ``old.allowed != best.allowed`` calls a change -- fail here instead.
    assert ALL.is_universal and NOTHING.is_universal and ALL != NOTHING
    assert (str(ALL), str(NOTHING)) == ("*", "!{}")
    assert ADSet.everyone() == ALL and ADSet.everyone().mode.value == "all"
    # No operation produces ALL.  Intersecting with ALL keeps the other
    # operand as spelled, except that ALL ∩ ALL is EXCLUDE{} ...
    assert ALL.intersect(ALL) == NOTHING
    if x != ALL:
        assert ALL.intersect(x) == x and x.intersect(ALL) == x
    # ... and a union with ALL is EXCLUDE{} whatever the other operand.
    assert ALL.union(x) == NOTHING and x.union(ALL) == NOTHING
    # Every other universal answer is EXCLUDE{} as well.
    assert NOTHING.intersect(NOTHING) == NOTHING
    assert ADSet.of([1]).union(ADSet.excluding([1])) == NOTHING
    assert ADSet.excluding([1]).union(ADSet.excluding([2])) == NOTHING


def test_an_answer_that_is_an_operand_is_that_operand():
    # Not a contract callers may lean on (instances are values) -- the
    # allocation rule itself: identity and absorbing cases build nothing.
    some, most = ADSet.of([1, 2]), ADSet.excluding([3])
    for x in (some, most, NONE, NOTHING):
        assert x.intersect(ALL) is x and ALL.intersect(x) is x
        assert x.intersect(NOTHING) is x and x.union(NONE) is x
        assert NONE.union(x) is x
        assert NONE.intersect(x) is NONE
    assert some.intersect(NONE) is NONE and most.intersect(NONE) is NONE
    assert some.union(NOTHING) is NOTHING and most.union(NOTHING) is NOTHING
    assert ADSet.everyone() is ADSet.everyone() and ADSet.none() is ADSet.none()


@pytest.mark.parametrize("canonical", [ALL, NONE, ALL.intersect(ALL)])
def test_canonical_instances_survive_copying_as_equal_values(canonical):
    some = ADSet.of([1])
    for clone in (copy.deepcopy(canonical), pickle.loads(pickle.dumps(canonical))):
        assert clone == canonical and hash(clone) == hash(canonical)
        assert observed(clone) == observed(canonical)
        for op in ("intersect", "union"):
            assert getattr(clone, op)(some) == old_algebra(op, canonical, some)
    with pytest.raises(AttributeError):
        canonical.members = frozenset({1})  # shared, so it had better be frozen
