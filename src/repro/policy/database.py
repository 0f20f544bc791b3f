"""The policy database: every AD's advertised Policy Terms.

The database is the ground-truth policy state of the internet.  Protocols
access it in ways that respect their information model: link-state
protocols flood each AD's terms to everyone; distance-vector protocols
only ever see terms reflected in their neighbours' advertisements; the
legality checker (and the ground-truth evaluator) reads it directly.

The database is versioned: any mutation bumps ``version``, which ORWG
policy gateways use to invalidate cached route setups (Section 5.4.1:
"It is essential ... that policy and topology change much more slowly
than the time required for route setup").

Because :meth:`PolicyDatabase.permitting_term` is the legality predicate
behind every edge relaxation of the constrained search -- the computation
the paper calls "probably the most difficult aspect" of the recommended
architecture (Section 6) -- the database carries an indexed term engine:

* a per-owner :class:`_TermIndex` buckets terms by one of their finite
  exact-match axes (enumerated sources/dests/prev/next ADs, QOS or UCI
  class sets), so a lookup consults only candidate terms plus the ordered
  scan list of wildcard/cofinite terms;
* a version-keyed decision cache memoizes whole ``(owner, flow-key,
  prev, next) -> cited term`` verdicts, so the replicated recomputation that
  synthesis, ground-truth evaluation, LS-hop-by-hop SPF, and data-plane
  enforcement all perform resolves to a dictionary hit.

Both structures are derived state, rebuilt lazily and discarded wholesale
whenever ``version`` moves -- the same invalidation contract the ORWG
gateway caches rely on.  Citation semantics are preserved exactly: the
indexed lookup returns the *first permitting term in term-id order*, the
same term a linear scan would cite (the tests keep that scan as their
oracle, ``scan_permitting_term`` in ``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import replace
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.adgraph.ad import ADId
from repro.policy.flows import FlowSpec
from repro.policy.terms import PolicyTerm

#: Wholesale-clear threshold for the decision cache.  The cache is keyed
#: by (owner, flow key, prev, next); a long-running evaluation over many
#: sampled flows grows it without bound, so past this size it is dropped
#: and rebuilt -- deterministic, and far cheaper than per-entry eviction.
DECISION_CACHE_LIMIT = 1 << 20

#: Sentinel distinguishing "no cached decision" from a cached ``None``
#: ("no term permits this traversal" is itself a memoizable verdict).
_MISS = object()

_TERM_ID = attrgetter("term_id")


class _TermIndex:
    """Candidate index over one owner's terms, valid for one version.

    Each term is filed under exactly one of its finite axes (the one with
    the fewest keys, to keep posting lists short); terms with no finite
    axis go on the ordered ``scan`` list.  A lookup unions the posting
    lists selected by the query's key on every axis with the scan list --
    a superset of the terms that could possibly permit the traversal --
    and the caller evaluates them in term-id order, so the first match is
    identical to the linear scan's.
    """

    __slots__ = ("active", "scan")

    #: Query-argument position for each axis name (the order of
    #: :meth:`candidates`'s parameters).
    _AXES = {"src": 0, "dst": 1, "prev": 2, "next": 3, "qos": 4, "uci": 5}

    #: Owners with at most this many terms are scanned directly: probing
    #: posting lists costs more than just evaluating every term.
    SMALL_OWNER = 4

    def __init__(self, owned: List[PolicyTerm]) -> None:
        self.scan: List[PolicyTerm] = []
        #: ``(arg position, bucket)`` for each axis that indexes at least
        #: one term -- sparse policies populate one or two of the six.
        self.active: List[Tuple[int, Dict[object, List[PolicyTerm]]]] = []
        if len(owned) <= self.SMALL_OWNER:
            self.scan = list(owned)
            return
        buckets: Dict[str, Dict[object, List[PolicyTerm]]] = {}
        for term in owned:
            axes = term.finite_axes()
            if not axes:
                self.scan.append(term)
                continue
            axis, keys = min(axes, key=lambda ak: len(ak[1]))
            if not keys:
                # An empty finite axis matches nothing: the term is dead
                # and no query needs to see it.
                continue
            bucket = buckets.setdefault(axis, {})
            for key in keys:
                bucket.setdefault(key, []).append(term)
        self.active = [
            (self._AXES[axis], bucket) for axis, bucket in buckets.items()
        ]

    def candidates(
        self, src: ADId, dst: ADId, prev: ADId, nxt: ADId, qos, uci
    ) -> List[PolicyTerm]:
        """Terms possibly permitting the traversal, in term-id order.

        May return the internal scan list itself -- callers iterate, never
        mutate.
        """
        scan = self.scan
        if not self.active:
            return scan
        args = (src, dst, prev, nxt, qos, uci)
        terms: Optional[List[PolicyTerm]] = None
        for pos, bucket in self.active:
            hit = bucket.get(args[pos])
            if hit:
                if terms is None:
                    terms = list(scan)
                terms.extend(hit)
        if terms is None:
            return scan
        terms.sort(key=_TERM_ID)
        return terms


class PolicyDatabase:
    """Mapping from AD id to its advertised Policy Terms."""

    def __init__(self, terms: Iterable[PolicyTerm] = ()) -> None:
        self._terms: Dict[ADId, List[PolicyTerm]] = {}
        self.version = 0
        # Running totals, maintained by add_term/remove_terms so the
        # per-round metrics collectors pay O(1) instead of re-summing.
        self._num_terms = 0
        self._size_bytes = 0
        # Derived lookup state, valid only while _engine_version matches
        # version; rebuilt lazily, discarded wholesale on any mutation.
        self._engine_version = -1
        self._indexes: Dict[ADId, _TermIndex] = {}
        self._decisions: Dict[tuple, Optional[PolicyTerm]] = {}
        #: Lookup counters (the ledger's ``policy.database`` row).
        self.lookups = 0
        self.cache_hits = 0
        for term in terms:
            self.add_term(term)

    def add_term(self, term: PolicyTerm) -> PolicyTerm:
        """Register a term, assigning its per-owner ``term_id``.

        Returns the stored (id-stamped) term.
        """
        owned = self._terms.setdefault(term.owner, [])
        stamped = replace(term, term_id=len(owned))
        owned.append(stamped)
        self._num_terms += 1
        self._size_bytes += stamped.size_bytes()
        self.version += 1
        return stamped

    def remove_terms(self, owner: ADId) -> int:
        """Withdraw all terms of an AD; returns how many were removed."""
        removed = self._terms.pop(owner, [])
        if removed:
            self._num_terms -= len(removed)
            self._size_bytes -= sum(t.size_bytes() for t in removed)
            self.version += 1
        return len(removed)

    def terms_of(self, owner: ADId) -> Tuple[PolicyTerm, ...]:
        """All terms advertised by an AD (possibly empty)."""
        return tuple(self._terms.get(owner, ()))

    def term(self, owner: ADId, term_id: int) -> PolicyTerm:
        """Look up a term by citation; raises ``KeyError`` if absent."""
        owned = self._terms.get(owner, [])
        if not 0 <= term_id < len(owned):
            raise KeyError(f"AD {owner} has no term {term_id}")
        return owned[term_id]

    def owners(self) -> List[ADId]:
        """ADs that advertise at least one term, sorted."""
        return sorted(self._terms)

    def all_terms(self) -> List[PolicyTerm]:
        """Every term in the database, in (owner, term_id) order."""
        return [t for owner in self.owners() for t in self._terms[owner]]

    @property
    def num_terms(self) -> int:
        return self._num_terms

    def transit_permits(
        self, ad_id: ADId, flow: FlowSpec, prev: ADId, nxt: ADId
    ) -> bool:
        """Whether ``ad_id`` permits carrying ``flow`` from ``prev`` to ``nxt``.

        An AD with no terms refuses all transit (the stub default).
        """
        return self.permitting_term(ad_id, flow, prev, nxt) is not None

    def transit_charge(
        self, ad_id: ADId, flow: FlowSpec, prev: ADId, nxt: ADId
    ) -> Optional[float]:
        """Advertised charge for the traversal, or ``None`` if refused.

        The per-relaxation query of the constrained search: one memoized
        decision answers both legality and cost.
        """
        term = self.permitting_term(ad_id, flow, prev, nxt)
        return None if term is None else term.charge

    def permitting_term(
        self, ad_id: ADId, flow: FlowSpec, prev: ADId, nxt: ADId
    ) -> Optional[PolicyTerm]:
        """The first term of ``ad_id`` permitting the traversal, if any.

        "First" is in term-id order, which makes citation deterministic;
        the indexed engine preserves that order exactly (property-tested
        against the linear scan the tests keep as their oracle).
        """
        owned = self._terms.get(ad_id)
        if not owned:
            return None
        if self._engine_version != self.version:
            self._reset_engine()
        self.lookups += 1
        # FlowSpec is frozen with a precomputed hash, so the flow itself is
        # the flow-key; terms are immutable and the cache is dropped on any
        # version bump, so the term object can be memoized directly.
        key = (ad_id, prev, nxt, flow)
        decisions = self._decisions
        found = decisions.get(key, _MISS)
        if found is not _MISS:
            self.cache_hits += 1
            return found
        index = self._indexes.get(ad_id)
        if index is None:
            index = self._indexes[ad_id] = _TermIndex(owned)
        if index.active:
            cands = index.candidates(
                flow.src, flow.dst, prev, nxt, flow.qos, flow.uci
            )
        else:
            cands = index.scan
        found = None
        for term in cands:
            if term.permits(flow, prev, nxt):
                found = term
                break
        if len(decisions) >= DECISION_CACHE_LIMIT:
            decisions.clear()
        decisions[key] = found
        return found

    def _reset_engine(self) -> None:
        """Drop all derived lookup state; next queries rebuild lazily."""
        self._indexes.clear()
        self._decisions.clear()
        self._engine_version = self.version

    def size_bytes(self) -> int:
        """Total advertised policy volume (for state-size experiments)."""
        return self._size_bytes

    def copy(self) -> "PolicyDatabase":
        """Independent copy (same version counter value)."""
        out = PolicyDatabase()
        out._terms = {owner: list(terms) for owner, terms in self._terms.items()}
        out.version = self.version
        out._num_terms = self._num_terms
        out._size_bytes = self._size_bytes
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PolicyDatabase(owners={len(self._terms)}, "
            f"terms={self.num_terms}, v{self.version})"
        )
