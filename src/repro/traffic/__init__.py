"""Production-scale data plane: workloads, compiled FIBs, batched replay.

The subsystem has three layers, each usable alone:

* :mod:`repro.traffic.workload` -- seeded zipf-skewed flow generation
  (10^6+ flows, columnar storage, deterministic replay);
* :mod:`repro.traffic.fib` -- compiles a converged protocol's control
  state into flat lookup arrays (``compile_fib`` / ``lookup_batch``)
  from the same believed walk ``find_route`` answers from
  (:meth:`~repro.protocols.base.RoutingProtocol.walk`);
* :mod:`repro.traffic.replay` -- flow-weighted batch replay, latency and
  stretch tails, and the E14 epoch series.
"""

from repro.protocols.base import (
    DEAD_LINK,
    DELIVERED,
    HOP_BUDGET,
    LOOP,
    NO_ROUTE,
    POLICY_DROP,
    VERDICT_NAMES,
)
from repro.traffic.fib import CompiledFIB, FIBStats, LinkIndex, compile_fib
from repro.traffic.replay import (
    EpochSample,
    ReplaySummary,
    TailSeries,
    TrafficReplay,
    shortest_hops,
    weighted_percentile,
)
from repro.traffic.workload import (
    FlowWorkload,
    WorkloadSpec,
    zipf_workload,
)

__all__ = [
    "DEAD_LINK",
    "DELIVERED",
    "HOP_BUDGET",
    "LOOP",
    "NO_ROUTE",
    "POLICY_DROP",
    "VERDICT_NAMES",
    "CompiledFIB",
    "FIBStats",
    "LinkIndex",
    "compile_fib",
    "EpochSample",
    "ReplaySummary",
    "TailSeries",
    "TrafficReplay",
    "shortest_hops",
    "weighted_percentile",
    "FlowWorkload",
    "WorkloadSpec",
    "zipf_workload",
]
