"""Source route-selection criteria.

The paper distinguishes *transit policies* (the carrier's) from *route
selection criteria* (the source's) -- Section 2.3.  A source may insist on
avoiding certain ADs, require particular ADs to be on the path, bound the
hop count, and rank surviving routes by the metric of its QOS class plus
advertised charges.

Under source routing these criteria are applied privately by the source's
route server; under hop-by-hop routing they *cannot* be fully honoured,
which is one of the paper's central claims (measured in E3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.policy.qos import QOS


@dataclass(frozen=True)
class RouteSelectionPolicy:
    """A source AD's private preferences over candidate routes.

    Attributes:
        avoid_ads: ADs the route must not traverse (e.g. an untrusted
            carrier).
        require_ads: ADs the route must traverse (e.g. a mandated
            accounting point).
        max_hops: Inclusive bound on the number of inter-AD hops, or
            ``None`` for unbounded.
        charge_weight: Weight of advertised PT charges added to the link
            metric when ranking routes (0 ignores charging).
    """

    avoid_ads: FrozenSet[ADId] = frozenset()
    require_ads: FrozenSet[ADId] = frozenset()
    max_hops: Optional[int] = None
    charge_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.max_hops is not None and self.max_hops < 1:
            raise ValueError("max_hops must be at least 1")
        if not 0 <= self.charge_weight < math.inf:  # NaN fails both comparisons
            raise ValueError(f"charge_weight {self.charge_weight!r} is not finite and >= 0")
        overlap = self.avoid_ads & self.require_ads
        if overlap:
            raise ValueError(f"ADs both avoided and required: {sorted(overlap)}")

    def permits_node(self, ad_id: ADId) -> bool:
        """Whether the route may pass through ``ad_id`` at all."""
        return ad_id not in self.avoid_ads

    def acceptable(self, path: Sequence[ADId]) -> bool:
        """Whether a complete candidate path satisfies the hard criteria."""
        if self.max_hops is not None and len(path) - 1 > self.max_hops:
            return False
        path_set = set(path)
        if self.avoid_ads & path_set:
            return False
        return self.require_ads <= path_set

    def rank_key(
        self,
        graph: InterADGraph,
        path: Sequence[ADId],
        qos: QOS = QOS.DEFAULT,
        charges: float = 0.0,
    ) -> Tuple[float, int, Tuple[ADId, ...]]:
        """Sort key ranking acceptable paths (lower is better).

        Primary: the QOS metric under its own composition (negated for
        bottleneck classes, where wider is better) plus weighted charges;
        then hop count; then the path itself for a deterministic total
        order.
        """
        from repro.policy.legality import path_metric

        value = path_metric(graph, path, qos)
        if qos.is_bottleneck:
            value = -value
        cost = value + self.charge_weight * charges
        return (cost, len(path), tuple(path))


#: The empty criteria: accept any route, rank by QOS metric alone.
OPEN_SELECTION = RouteSelectionPolicy()
