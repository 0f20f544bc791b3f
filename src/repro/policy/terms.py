"""Policy Terms.

A Policy Term (PT) is the unit of transit policy advertisement in the
paper's recommended architecture (Sections 4.2 and 5.4.1, after Clark's
RFC 1102): it "can associate path constraints, QOS, User Class,
authentication requirements, and other global conditions with a path
across an AD", where path constraints "restrict access to the path based
on source AD, destination AD, previous AD, or next AD in the path".

A PT *permits* a given traversal of its owner when every one of its
conditions matches the flow and the local hops.  An AD with no PTs offers
no transit at all (the stub default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.adgraph.ad import ADId
from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.policy.sets import ADSet, TimeWindow
from repro.policy.uci import UCI


@dataclass(frozen=True)
class PolicyTerm:
    """One transit policy advertisement of an AD.

    Attributes:
        owner: The AD whose resources this term governs.
        sources: ADs whose traffic may use the term.
        dests: Destinations the term carries traffic toward.
        prev_ads: Permitted previous hops (entry constraint).
        next_ads: Permitted next hops (exit constraint).
        qos_classes: QOS classes served (``None`` = all).
        ucis: User classes served (``None`` = all).
        window: Time-of-day window during which the term is active.
        charge: Advertised charge for using the term (a charging/accounting
            policy attribute; source selection criteria may minimise it).
        term_id: Index of this term within its owner's advertisement;
            assigned by :class:`~repro.policy.database.PolicyDatabase` and
            cited by ORWG setup packets.
    """

    owner: ADId
    sources: ADSet = field(default_factory=ADSet.everyone)
    dests: ADSet = field(default_factory=ADSet.everyone)
    prev_ads: ADSet = field(default_factory=ADSet.everyone)
    next_ads: ADSet = field(default_factory=ADSet.everyone)
    qos_classes: Optional[FrozenSet[QOS]] = None
    ucis: Optional[FrozenSet[UCI]] = None
    window: TimeWindow = field(default_factory=TimeWindow.always)
    charge: float = 0.0
    term_id: int = -1

    def __post_init__(self) -> None:
        if not 0 <= self.charge < math.inf:  # NaN fails both comparisons
            raise ValueError(f"charge {self.charge!r} is not finite and >= 0")

    def permits(self, flow: FlowSpec, prev: ADId, nxt: ADId) -> bool:
        """Whether this term allows ``flow`` to cross the owner.

        Args:
            flow: The flow attempting the traversal.
            prev: The AD the packet arrives from.
            nxt: The AD the packet will be handed to.
        """
        if not self.sources.matches(flow.src):
            return False
        if not self.dests.matches(flow.dst):
            return False
        if not self.prev_ads.matches(prev):
            return False
        if not self.next_ads.matches(nxt):
            return False
        if self.qos_classes is not None and flow.qos not in self.qos_classes:
            return False
        if self.ucis is not None and flow.uci not in self.ucis:
            return False
        return self.window.matches(flow.hour)

    def matches_except_source(
        self,
        dst: ADId,
        prev: ADId,
        nxt: ADId,
        qos: QOS,
        uci: UCI,
        hour: int,
    ) -> bool:
        """Whether the term matches everything but the source dimension.

        Used by path-vector protocols to compute the *set* of sources a
        term would admit for a given (destination, prev, next, class)
        traversal: if this returns ``True``, exactly ``self.sources`` is
        admitted; otherwise no source is.
        """
        if not self.dests.matches(dst):
            return False
        if not self.prev_ads.matches(prev):
            return False
        if not self.next_ads.matches(nxt):
            return False
        if self.qos_classes is not None and qos not in self.qos_classes:
            return False
        if self.ucis is not None and uci not in self.ucis:
            return False
        return self.window.matches(hour)

    def finite_axes(self) -> Tuple[Tuple[str, FrozenSet], ...]:
        """The term's exact-match axes, as ``(axis, admissible keys)`` pairs.

        An axis is *finite* when the term enumerates exactly the values it
        admits there: an INCLUDE AD set for ``src``/``dst``/``prev``/``next``,
        or an explicit QOS/UCI class set.  Any finite axis is a sound index
        key -- a traversal the term permits necessarily carries one of the
        listed keys on that axis -- so an index may file the term under
        whichever finite axis has the fewest keys.  An empty key set means
        the term can never match anything.  Cofinite AD sets and the time
        window are never finite; terms with no finite axis must stay on the
        ordered scan path.
        """
        axes = []
        if self.sources.is_finite:
            axes.append(("src", self.sources.members))
        if self.dests.is_finite:
            axes.append(("dst", self.dests.members))
        if self.prev_ads.is_finite:
            axes.append(("prev", self.prev_ads.members))
        if self.next_ads.is_finite:
            axes.append(("next", self.next_ads.members))
        if self.qos_classes is not None:
            axes.append(("qos", self.qos_classes))
        if self.ucis is not None:
            axes.append(("uci", self.ucis))
        return tuple(axes)

    def size_bytes(self) -> int:
        """Estimated wire size of the term in a link-state advertisement.

        2 bytes owner + 2 bytes term id + the four AD sets + 1 byte per
        enumerated QOS/UCI class (plus a tag byte each) + the time window
        + 4 bytes charge.
        """
        size = 2 + 2
        for adset in (self.sources, self.dests, self.prev_ads, self.next_ads):
            size += adset.size_bytes()
        size += 1 + (len(self.qos_classes) if self.qos_classes is not None else 0)
        size += 1 + (len(self.ucis) if self.ucis is not None else 0)
        size += self.window.size_bytes()
        size += 4
        return size

    @property
    def ref(self) -> "TermRef":
        """Citable reference to this term (owner, term id)."""
        return TermRef(self.owner, self.term_id)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PT(owner={self.owner}, src={self.sources}, dst={self.dests}, "
            f"prev={self.prev_ads}, next={self.next_ads})"
        )


@dataclass(frozen=True)
class TermRef:
    """A compact (owner AD, term id) citation, carried in setup packets."""

    owner: ADId
    term_id: int

    def size_bytes(self) -> int:
        """Encoded size: 2 bytes owner + 2 bytes term id."""
        return 4
