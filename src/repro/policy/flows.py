"""Flow specifications.

A :class:`FlowSpec` carries the per-packet attributes that policies
discriminate on (paper Section 2.3): source AD, destination AD, QOS class,
User Class, and hour of day.  Routes are computed per flow spec, not per
transport session -- matching ORWG's long-lived policy routes that "can
support multiple pairs of hosts in the source and destination ADs".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.adgraph.ad import ADId
from repro.policy.qos import QOS
from repro.policy.uci import UCI


@dataclass(frozen=True)
class FlowSpec:
    """The policy-relevant identity of a traffic flow.

    Attributes:
        src: Source AD id.
        dst: Destination AD id.
        qos: Requested Quality of Service.
        uci: User class of the originator.
        hour: Hour of day (0-23) the flow is active; policies with
            time windows match against this.
    """

    src: ADId
    dst: ADId
    qos: QOS = QOS.DEFAULT
    uci: UCI = UCI.DEFAULT
    hour: int = 12

    def __post_init__(self) -> None:
        if not 0 <= self.hour < 24:
            raise ValueError(f"hour {self.hour} out of range [0, 24)")
        # A flow spec is the key of every memoized policy decision, so its
        # hash is precomputed once rather than re-derived per lookup.
        object.__setattr__(
            self, "_hash", hash((self.src, self.dst, self.qos, self.uci, self.hour))
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def endpoints(self) -> Tuple[ADId, ADId]:
        return (self.src, self.dst)

    def reversed(self) -> "FlowSpec":
        """The same flow in the opposite direction."""
        return replace(self, src=self.dst, dst=self.src)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.src}->{self.dst}/{self.qos.value}/{self.uci.value}@{self.hour:02d}h"
