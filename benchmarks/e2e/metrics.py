"""Metric definitions: names, units, directions, bounds, interactions.

This table is the single source for what ``bench.py`` prints, what
``BENCHMARK.json`` lists and what ``--compare`` judges; ``test_bench.py``
checks the three agree.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class EndToEnd(NamedTuple):
    """An end-to-end metric: what a user of the harness sees."""

    name: str
    unit: str
    better: str
    #: What ``--compare`` judges with: the share of the baseline median
    #: by which the metric may worsen before a change counts as a
    #: regression (0 = any increase).  A cell whose run-to-run spread is
    #: wider than this reads ``unresolved``, not ``same``.
    bound: float
    #: The bound ``BENCHMARK.json`` carries for the driver, or ``None``
    #: for a metric the driver cannot gate (n/a on some workload, or zero
    #: by design).  The driver has no ``unresolved``: it refuses a
    #: benchmark whose ten-seed quartile spread exceeds a bound and asks
    #: for a factor of three to spare, so this is the smallest bound the
    #: measured spreads support (README, Steadiness), 0.25 at most.
    gate: Optional[float]
    definition: str
    #: Absolute slack in the metric's unit: a difference smaller than
    #: this is never a regression, whatever share of the median it is.
    floor: float = 0.0


#: ``wall_s``, ``cpu_s`` and ``setup_s`` are *host-normalised seconds*:
#: measured busy time x (child.CALIB_REF_S / the rep's own calibration-
#: loop readings), waiting left as measured.  The sandbox changes speed
#: by tens of percent across minutes (identical work: run medians
#: 2.4-4.2 s within half an hour), which no bound the driver accepts
#: would survive; normalised, ten runs on ten seeds spread a few percent.
#: The raw readings are printed and stored beside each.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "wall_s", "s", "lower", 0.10, 0.25,
        "duration of the one run_spec(<single-cell spec>, out_dir=tmp) call, "
        "scenario build through RunRecord JSONL flushed; tracing off; "
        "normalised cpu_s + the measured waiting (wall - cpu)",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.15, 0.25,
        "separate probe before the wall_s call: ScenarioSpec.build, "
        "ProtocolSpec.instantiate, protocol.build, TrafficSpec.build "
        "(median of 3-5 probes per rep); normalised",
        floor=0.020,
    ),
    EndToEnd(
        "cpu_s", "s", "lower", 0.10, 0.25,
        "time.process_time() over the wall_s interval (busy time, without "
        "the live substrate's idle waits); normalised",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.05, 0.10,
        "child ru_maxrss, read when the run returns: one fresh interpreter per rep",
    ),
    EndToEnd(
        "events_per_s", "1/s", "higher", 0.10, 0.25,
        "sim: engine events, live: frames received, over wall_s - setup_s",
    ),
    EndToEnd(
        "flows_per_s", "1/s", "higher", 0.10, None,
        "flows x replay epochs over wall_s - setup_s; n/a without traffic",
    ),
    EndToEnd(
        "reconverge_p50_ms", "ms", "lower", 0.15, None,
        "live only: wall from perturbation to last protocol message per "
        "episode, pooled over reps",
    ),
    EndToEnd(
        "reconverge_p90_ms", "ms", "lower", 0.25, None,
        "same pool, at the highest percentile with >= 10 samples beyond it "
        "(printed beside the value)",
    ),
    EndToEnd(
        "fail_share", "ratio", "lower", 0.0, None,
        "failed / attempted operations: episodes not quiesced, live send "
        "drops, oracle mismatches, exceptions, asyncio callback errors",
    ),
)

E2E_BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}


class Layer(NamedTuple):
    """A per-layer metric of the traced run, with its predicted effect."""

    name: str
    unit: str
    better: str
    boundary: str
    #: End-to-end metrics it should move, and on which workloads.
    moves: Tuple[str, ...]
    on: Tuple[str, ...]
    #: Workloads where it should stay flat (or read zero).
    flat_on: Tuple[str, ...] = ()


_ALL = ("all",)
_SIM = ("sim-ls-churn", "sim-pv-churn")
_LIVE = ("live-ls-episodes", "live-chaos")

LAYERS: Tuple[Layer, ...] = (
    Layer("workloads.scenarios.build_s", "s", "lower", "ScenarioSpec.build", ("setup_s",), _ALL),
    Layer("protocols.registry.build_s", "s", "lower", "ProtocolSpec.instantiate + RoutingProtocol.build", ("setup_s",), _ALL),
    Layer("simul.engine.run_self_s", "s", "lower", "Simulator.run minus callbacks (heap, dispatch, delivery residue)", ("wall_s", "events_per_s"), ("sim-ls-churn",), ("sim-pv-churn", "dataplane-storm")),
    Layer("simul.engine.events", "count", "lower", "Simulator.events_processed", ("events_per_s",), ("sim-ls-churn",), _LIVE),
    Layer("simul.engine.ns_per_event", "ns", "lower", "run_self_s / events", ("events_per_s",), ("sim-ls-churn",), _LIVE),
    Layer("simul.network.send_self_s", "s", "lower", "SimNetwork.send (link lookup + engine schedule)", ("wall_s",), ("sim-ls-churn",), _LIVE),
    Layer("simul.network.msgs", "count", "lower", "messages delivered (RunRecord.messages)", ("wall_s",), ("sim-ls-churn",), _LIVE),
    Layer("simul.network.dropped", "count", "lower", "messages lost to dead links", ("wall_s",), ("sim-ls-churn",), _LIVE),
    Layer("protocols.receive_self_s", "s", "lower", "ProtocolNode.receive minus nested Transport.send", ("wall_s", "cpu_s"), ("sim-pv-churn", "sim-ls-churn"), ("dataplane-storm",)),
    Layer("protocols.receive_calls", "count", "lower", "ProtocolNode.receive", ("wall_s",), ("sim-pv-churn", "sim-ls-churn"), ("dataplane-storm",)),
    Layer("protocols.us_per_msg", "us", "lower", "receive_self_s / receive_calls", ("wall_s", "cpu_s"), ("sim-pv-churn",), ("dataplane-storm",)),
    Layer("protocols.timer_self_s", "s", "lower", "callbacks armed through ProtocolNode.schedule", ("wall_s", "cpu_s"), ("sim-pv-churn",), ("dataplane-storm",)),
    Layer("protocols.timer_calls", "count", "lower", "ProtocolNode.schedule callbacks fired", ("wall_s",), ("sim-pv-churn",), ("dataplane-storm",)),
    Layer("protocols.flooding.dup_share", "ratio", "lower", "LSNode.duplicates_ignored / receive_calls", ("events_per_s", "wall_s"), ("sim-ls-churn", "live-ls-episodes"), ("sim-pv-churn",)),
    Layer("protocols.flooding.view_rebuilds", "count", "lower", "LSNode.view_rebuilds", ("wall_s",), ("sim-ls-churn", "live-ls-episodes"), ("sim-pv-churn",)),
    Layer("protocols.flooding.view_delta_refreshes", "count", "lower", "LSNode.view_delta_refreshes", ("wall_s",), ("sim-ls-churn", "live-ls-episodes"), ("sim-pv-churn",)),
    Layer("protocols.find_route_s", "s", "lower", "RoutingProtocol.find_route (view refresh + SPF)", ("wall_s",), ("sim-ls-churn", "live-chaos"), ("sim-pv-churn",)),
    Layer("protocols.find_route_calls", "count", "lower", "RoutingProtocol.find_route", ("wall_s",), ("sim-ls-churn", "live-chaos"), ("sim-pv-churn",)),
    Layer("protocols.next_hop_s", "s", "lower", "next_hop / source_route entered by the FIB compiler", ("wall_s", "flows_per_s"), ("dataplane-storm", "live-chaos"), _SIM),
    Layer("protocols.next_hop_calls", "count", "lower", "next_hop / source_route outside find_route", ("wall_s", "flows_per_s"), ("dataplane-storm", "live-chaos"), _SIM),
    Layer("core.synthesis.route_s", "s", "lower", "synthesize_route", ("wall_s", "flows_per_s"), ("dataplane-storm",), _SIM + _LIVE),
    Layer("core.synthesis.route_calls", "count", "lower", "synthesize_route", ("wall_s", "flows_per_s"), ("dataplane-storm",), _SIM + _LIVE),
    Layer("policy.database.lookups", "count", "lower", "PolicyDatabase.lookups, every database of the run", ("wall_s",), ("dataplane-storm", "sim-pv-churn"), ("sim-ls-churn",)),
    Layer("policy.database.cache_hit_rate", "ratio", "higher", "PolicyDatabase.cache_hits / lookups", ("wall_s",), ("dataplane-storm", "sim-pv-churn"), ("sim-ls-churn",)),
    Layer("faults.prober.run_self_s", "s", "lower", "RoutePulse.run minus engine / find_route / snapshot", ("wall_s",), _SIM + ("dataplane-storm",), ("live-ls-episodes",)),
    Layer("faults.prober.samples", "count", "lower", "RoutePulse samples", ("wall_s",), _SIM + ("dataplane-storm",), ("live-ls-episodes",)),
    Layer("traffic.workload.gen_s", "s", "lower", "TrafficSpec.build", ("setup_s",), ("dataplane-storm", "live-chaos"), _SIM),
    Layer("traffic.workload.flows", "count", "lower", "flows generated", ("setup_s",), ("dataplane-storm", "live-chaos"), _SIM),
    Layer("traffic.fib.compile_self_s", "s", "lower", "compile_fib minus protocol / synthesis children", ("flows_per_s",), ("dataplane-storm",), _SIM),
    Layer("traffic.fib.compiles", "count", "lower", "compile_fib", ("flows_per_s",), ("dataplane-storm",), _SIM),
    Layer("traffic.fib.bytes", "B", "lower", "FIBStats.bytes of the first compiled FIB", ("flows_per_s",), ("dataplane-storm",), _SIM),
    Layer("traffic.replay.replay_s", "s", "lower", "TailSeries.record", ("flows_per_s",), ("dataplane-storm",), _SIM),
    Layer("traffic.replay.flows_per_s", "1/s", "higher", "flows x epochs / replay_s", ("flows_per_s",), ("dataplane-storm",), _SIM),
    Layer("simul.wire.encode_s", "s", "lower", "encode_frame", ("cpu_s", "wall_s", "reconverge_p50_ms"), ("live-ls-episodes",), _SIM),
    Layer("simul.wire.decode_s", "s", "lower", "decode_frame_ex", ("cpu_s", "wall_s", "reconverge_p50_ms"), ("live-ls-episodes",), _SIM),
    Layer("simul.wire.frames", "count", "lower", "encode_frame calls", ("cpu_s", "wall_s"), ("live-ls-episodes",), _SIM),
    Layer("simul.wire.bytes_per_frame", "B", "lower", "encoded frame bytes / frames", ("cpu_s", "wall_s"), ("live-ls-episodes",), _SIM),
    Layer("live.network.send_self_s", "s", "lower", "LiveNetwork.send minus encode", ("cpu_s", "wall_s"), ("live-ls-episodes",), _SIM),
    Layer("live.network.start_s", "s", "lower", "LiveNetwork.start", ("wall_s",), ("live-ls-episodes",), _SIM),
    Layer("live.network.close_s", "s", "lower", "LiveNetwork.close", ("wall_s",), ("live-ls-episodes",), _SIM),
    Layer("live.network.send_retries", "count", "lower", "MetricsCollector.live_send_retries", ("wall_s",), ("live-ls-episodes",), _SIM),
    Layer("live.network.send_drops", "count", "lower", "MetricsCollector.live_send_drops", ("fail_share",), ("live-ls-episodes",), _SIM),
    Layer("live.runner.settle_s", "s", "lower", "settle minus the work done during the wait", ("wall_s", "reconverge_p50_ms", "reconverge_p90_ms"), _LIVE, _SIM),
    Layer("live.runner.settle_calls", "count", "lower", "settle", ("wall_s",), _LIVE, _SIM),
    Layer("live.runner.wait_s", "s", "lower", "wall - cpu inside settle spans", ("wall_s", "reconverge_p50_ms", "reconverge_p90_ms"), _LIVE, _SIM),
    Layer("live.supervisor.rolling_s", "s", "lower", "Supervisor.rolling_restart", ("wall_s",), ("live-chaos",), _SIM + ("live-ls-episodes",)),
    Layer("live.supervisor.restarts", "count", "lower", "serve-task restarts (sweep + supervisor)", ("wall_s",), ("live-chaos",), _SIM + ("live-ls-episodes",)),
    Layer("harness.record.write_s", "s", "lower", "write_jsonl", ("wall_s",), _ALL),
    Layer("harness.record.bytes", "B", "lower", "RunRecord JSONL size", ("wall_s",), _ALL),
    Layer("harness.session.self_s", "s", "lower", "run_spec + execute_cell minus all children: glue + unattributed", ("wall_s",), _ALL),
    Layer("harness.chaos.self_s", "s", "lower", "execute_chaos_cell minus children, scheduled waits included", ("wall_s",), ("live-chaos",), _SIM),
    Layer("harness.chaos.sched_wait_s", "s", "lower", "wall - cpu owned by no boundary: sleeps until the plan's next event", ("wall_s",), ("live-chaos",), _SIM),
    Layer("bench.attributed_share", "ratio", "higher", "1 - unattributed harness self time / traced wall", (), _ALL),
    Layer("bench.trace_overhead", "ratio", "lower", "(traced wall - untraced wall_s) / wall_s, both normalised", (), _ALL),
    Layer("bench.calib_s", "s", "lower", "fixed pure-Python calibration loop", (), _ALL),
    Layer("bench.import_s", "s", "lower", "interpreter start + importing repro", (), _ALL),
    Layer("bench.reps_discarded", "count", "lower", "reps re-run or dropped by the noise rule", (), _ALL),
)

LAYER_BY_NAME: Dict[str, Layer] = {m.name: m for m in LAYERS}

#: Floors the traced run must meet on every workload.
MIN_ATTRIBUTED_SHARE = 0.95
MAX_TRACE_OVERHEAD = 0.30


# ----------------------------------------------------------------- statistics


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return (values[0], values[0])
    q = statistics.quantiles(values, n=4)
    return (q[0], q[2])


def iqr(values: Sequence[float]) -> float:
    """Inter-quartile distance, in the metric's own unit."""
    q1, q3 = quartiles(values)
    return q3 - q1


def high_percentile(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """The highest of p50..p99 with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``None`` under 20 samples (not
    even the median has ten beyond it).
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99, 95, 90, 75):
        rank = (n * pct + 99) // 100  # nearest rank: ceil(n * pct / 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    if n >= 20:
        return 50, median(ordered)
    return None


def summarise(values: List[float]) -> Dict[str, float]:
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}
