"""The policy route value type.

A :class:`Route` is what the paper calls a Policy Route: an ordered
sequence of ADs from source to destination (Section 4.1's level of
abstraction), together with the flow it was computed for, its cost under
the flow's QOS metric, and the total advertised charges of the transit
terms it relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.adgraph.ad import ADId
from repro.policy.flows import FlowSpec
from repro.simul.messages import AD_ID_BYTES


@dataclass(frozen=True)
class Route:
    """An AD-level policy route.

    Attributes:
        path: The AD sequence, ``path[0] == flow.src``,
            ``path[-1] == flow.dst``.
        flow: The flow spec the route was synthesised for.
        cost: Total link metric under ``flow.qos``.
        charges: Sum of advertised charges of the PTs the route uses.
    """

    path: Tuple[ADId, ...]
    flow: FlowSpec
    cost: float
    charges: float = 0.0

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("route path must be non-empty")
        if self.path[0] != self.flow.src or self.path[-1] != self.flow.dst:
            raise ValueError(
                f"path endpoints {self.path[0]}..{self.path[-1]} do not match "
                f"flow {self.flow.src}->{self.flow.dst}"
            )

    @property
    def hops(self) -> int:
        """Number of inter-AD hops."""
        return len(self.path) - 1

    @property
    def transit_ads(self) -> Tuple[ADId, ...]:
        """The intermediate ADs (those that need transit permission)."""
        return self.path[1:-1]


    def header_bytes(self) -> int:
        """Modelled size of this route carried in a packet header."""
        return AD_ID_BYTES * len(self.path)

    @property
    def is_loop_free(self) -> bool:
        return len(set(self.path)) == len(self.path)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "->".join(str(a) for a in self.path)
