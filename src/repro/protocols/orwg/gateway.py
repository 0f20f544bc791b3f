"""The Policy Gateway function: validation and the handle cache.

Section 5.4.1: "The AD's border gateways, referred to as policy gateways
(PGs), execute the validation for the AD.  In effect, one can view the
PGs as containing routing tables that are filled on demand."  And for
data packets: "PGs use the handle ID as a key into the cache to allow
for some per-packet validation (e.g., is it coming from the AD specified
in the cached PT setup information)."

The cache entry records the policy-database version current at setup;
when the AD's policies change, the next data packet triggers
*revalidation* against the AD's own (fresh) terms rather than blind
forwarding -- the mechanism by which "policy and topology change much
more slowly than the time required for route setup" is kept safe.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.adgraph.ad import ADId
from repro.policy.flows import FlowSpec
from repro.policy.terms import PolicyTerm, TermRef
from repro.protocols.orwg.messages import Handle


@dataclass
class PGCacheEntry:
    """One established policy route, as seen by one transit AD's PG.

    ``expires_at`` implements the policy route's finite lifetime ("PRs
    may have a long lifetime", Section 5.4.1 -- long, not infinite): an
    expired entry fails validation exactly like an evicted one, forcing
    the source to refresh with a new setup.  ``inf`` means no expiry.
    """

    flow: FlowSpec
    prev: Optional[ADId]
    next: Optional[ADId]
    term_ref: Optional[TermRef]
    policy_version: int
    packets_forwarded: int = 0
    expires_at: float = float("inf")


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a PG check."""

    ok: bool
    reason: str = ""


class PolicyGatewayCache:
    """Handle-keyed forwarding/validation state of one AD's PG.

    ``limit`` bounds the number of cached policy routes ("policy gateway
    state management and limitations", Section 6): when full, the least
    recently *used* handle is evicted.  Data packets riding an evicted
    handle fail validation ("unknown handle") and force a re-setup --
    ablation A3 measures the delivery cost of undersized PG caches.
    """

    def __init__(self, ad_id: ADId, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 1:
            raise ValueError("cache limit must be positive (or None)")
        self.ad_id = ad_id
        self.limit = limit
        self._entries: "OrderedDict[Handle, PGCacheEntry]" = OrderedDict()
        self.validations = 0
        self.revalidations = 0
        self.rejections = 0
        self.evictions = 0

    # ----------------------------------------------------------------- setup

    def validate_setup(
        self,
        flow: FlowSpec,
        prev: Optional[ADId],
        nxt: Optional[ADId],
        cited: Optional[PolicyTerm],
    ) -> ValidationResult:
        """Check a setup traversal against the AD's own policy.

        ``cited`` is the term the source cited, already resolved against
        the AD's current terms (``None`` if the citation is dangling).
        Endpoint ADs (prev or next missing) always accept: their own
        traffic needs no transit permission.
        """
        self.validations += 1
        if prev is None or nxt is None:
            return ValidationResult(True)
        if cited is None:
            self.rejections += 1
            return ValidationResult(False, "cited term does not exist")
        if not cited.permits(flow, prev, nxt):
            self.rejections += 1
            return ValidationResult(False, "cited term does not permit flow")
        return ValidationResult(True)

    def install(self, handle: Handle, entry: PGCacheEntry) -> None:
        """Cache an accepted setup under its handle (evicting if full)."""
        self._entries[handle] = entry
        self._entries.move_to_end(handle)
        if self.limit is not None:
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
                self.evictions += 1

    def remove(self, handle: Handle) -> bool:
        """Tear down a handle (idempotent)."""
        return self._entries.pop(handle, None) is not None

    # ------------------------------------------------------------------ data

    def lookup(self, handle: Handle) -> Optional[PGCacheEntry]:
        entry = self._entries.get(handle)
        if entry is not None:
            self._entries.move_to_end(handle)
        return entry

    def validate_data(
        self,
        handle: Handle,
        sender: Optional[ADId],
        current_version: int,
        resolve_term: Callable[[Optional[TermRef]], Optional[PolicyTerm]],
        now: float = 0.0,
    ) -> Tuple[ValidationResult, Optional[PGCacheEntry]]:
        """Per-packet validation of a data packet riding ``handle``.

        Checks the packet arrives from the cached previous AD, that the
        route's lifetime has not expired, and -- if the AD's policy
        database has changed since setup -- revalidates the cached term
        against the fresh database.  ``resolve_term`` maps the cached
        citation to the AD's *current* term; it is called only on the
        version-changed path, so the per-packet fast path (the common case
        Section 5.4.1 designs for) costs one cache lookup and one version
        compare, with no term resolution at all.

        Returns the result together with the cache entry it acted on
        (``None`` for an unknown handle), so callers can forward or NAK
        without a second lookup.
        """
        entry = self._entries.get(handle)
        if entry is None:
            self.rejections += 1
            return ValidationResult(False, "unknown handle"), None
        if now > entry.expires_at:
            self.rejections += 1
            self._entries.pop(handle, None)
            return ValidationResult(False, "policy route lifetime expired"), entry
        if entry.prev is not None and sender != entry.prev:
            self.rejections += 1
            return ValidationResult(False, "packet arrived from unexpected AD"), entry
        if entry.policy_version != current_version and entry.prev is not None:
            self.revalidations += 1
            current_term = resolve_term(entry.term_ref)
            if current_term is None or not current_term.permits(
                entry.flow, entry.prev, entry.next
            ):
                self.rejections += 1
                self._entries.pop(handle, None)
                return (
                    ValidationResult(False, "policy changed; route no longer legal"),
                    entry,
                )
            entry.policy_version = current_version
        entry.packets_forwarded += 1
        self._entries.move_to_end(handle)
        return ValidationResult(True), entry

    # --------------------------------------------------------------- metrics

    @property
    def size(self) -> int:
        """Number of cached policy routes (PG state, Section 6 issue 3)."""
        return len(self._entries)
