"""Production-scale data plane: workloads, compiled FIBs, batched replay.

The subsystem has three layers, each usable alone:

* :mod:`repro.traffic.workload` -- seeded zipf-skewed flow generation
  (10^6+ flows, columnar storage, deterministic replay);
* :mod:`repro.traffic.fib` -- compiles a converged protocol's control
  state into flat lookup arrays (``compile_fib`` / ``lookup_batch``),
  verdict-identical to the per-packet forwarder of
  :mod:`repro.forwarding.dataplane`, its oracle;
* :mod:`repro.traffic.replay` -- flow-weighted batch replay, latency and
  stretch tails, and the E14 epoch series.
"""

from repro.traffic.fib import (
    DEAD_LINK,
    DELIVERED,
    HOP_BUDGET,
    LOOP,
    NO_ROUTE,
    POLICY_DROP,
    VERDICT_NAMES,
    CompiledFIB,
    FIBStats,
    LinkIndex,
    compile_fib,
    verdict_of_outcome,
)
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
    "verdict_of_outcome",
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
