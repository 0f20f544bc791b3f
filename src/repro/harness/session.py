"""The experiment session: cells in, telemetry records out.

:class:`ExperimentSession` executes an
:class:`~repro.harness.spec.ExperimentSpec`'s cell grid and returns one
:class:`~repro.harness.record.RunRecord` per cell.  Because cells are
self-contained recipes (each worker rebuilds its scenario, protocol and
failure plan from seeds), independent cells can fan out across a
``multiprocessing`` pool; records are merged deterministically by cell
key, so the merged result -- and any table rendered from it -- is
byte-identical whether the sweep ran serial or parallel.

Per-cell measurement protocol (the one loop every bench used to
hand-roll), identical on both substrates:

1. build the scenario, instantiate the protocol via the registry;
2. open the substrate with :func:`open_substrate` (build, impairment,
   profiling hooks) and, opt-in, attach the tracer;
3. settle the initial convergence, then apply and settle one isolated
   episode per failure event -- :func:`~repro.simul.runner.plain_episodes`
   over the substrate adapter (:class:`~repro.simul.runner.SimSubstrate`
   or :class:`~repro.live.runner.LiveSubstrate`), inside one coroutine
   that :func:`~repro.simul.runner.drive` runs on either substrate;
4. sim only: the probed fault/misbehavior timeline as one episode;
5. hand everything to :meth:`RunRecord.assemble`, which evaluates route
   quality (when asked) and snapshots histograms, counters, RIB state
   and timings.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, List, Optional, Sequence

from repro.faults.channel import ImpairedChannel
from repro.faults.prober import RoutePulse
from repro.harness.record import EpisodeRecord, RunRecord, write_jsonl
from repro.harness.spec import Cell, ExperimentSpec
from repro.simul.ingress import IngressConfig
from repro.simul.profiling import PhaseProfiler
from repro.simul.runner import SimSubstrate, Substrate, _done, drive, plain_episodes
from repro.simul.trace import Tracer
from repro.traffic.fib import compile_fib
from repro.traffic.replay import TailSeries, TrafficReplay

#: Most trace lines kept per run (timeline tails beyond this are elided).
TRACE_LINE_LIMIT = 500


def _misbehavior_block(cell, protocol, series, flows, reference_routes, lie_start):
    """The RunRecord ``misbehavior`` mapping: blast radius + containment.

    ``series`` is the probed blast-radius series and ``flows`` the flows
    checked for poisoning; a lie-free cell passes both empty and records
    the validation counters alone.
    """
    suspects = protocol.poison_suspects()
    liar = None
    for entry in protocol.misbehavior_log:
        if entry["lie"] is not None:
            liar = entry["ad"]
            break
    applied = any(
        e["applied"] for e in protocol.misbehavior_log if e["lie"] is not None
    )
    blasts = [b for _, b in series]
    peak = max(blasts, default=0)
    steady = blasts[-1] if blasts else 0
    # Containment latency: time from the lie's start until the blast
    # radius reaches zero *and stays there*; None if it never does.
    containment = None
    if blasts:
        trailing_zeros = 0
        for _, blast in reversed(series):
            if blast > 0:
                break
            trailing_zeros += 1
        if peak == 0:
            containment = 0.0
        elif trailing_zeros:
            containment = series[len(series) - trailing_zeros][0] - lie_start
    # Poisoned ADs: sources left holding a route through a suspect their
    # pre-lie route (the protocol's own converged answer) did not use.
    poisoned = set()
    for flow in flows:
        path = protocol.find_route(flow)
        if path is None:
            continue
        reference = reference_routes.get(flow)
        tainted = set(reference[1:-1]) if reference else set()
        if any(h in suspects and h not in tainted for h in path[1:-1]):
            poisoned.add(flow.src)
    return {
        "liar": liar,
        "lie": cell.misbehavior.lie,
        "applied": applied,
        "suspects": sorted(suspects),
        "ads_poisoned": len(poisoned),
        "peak_blast": peak,
        "steady_blast": steady,
        "containment_latency": containment,
        "blast_series": [[t, b] for t, b in series],
        "validation": str(protocol.runtime.validation),
        "counters": protocol.runtime_summary("validation"),
    }


def _parse_trace(trace: Optional[str]) -> Optional[Dict[str, Optional[int]]]:
    """Parse a ``--trace`` flag: ``"all"`` or ``"ad=<id>"``."""
    if trace is None:
        return None
    if trace == "all":
        return {"ad": None}
    if trace.startswith("ad="):
        try:
            return {"ad": int(trace[3:])}
        except ValueError:
            pass
    raise ValueError(f"bad trace filter {trace!r} (expected 'all' or 'ad=<id>')")


class TrafficMeter:
    """The data-plane axis of one cell: a workload replayed per epoch.

    Generates the zipf workload once, then snapshots a compiled FIB at
    every epoch it is asked to :meth:`record` and replays the full
    workload against it; :meth:`block` is the record's ``dataplane``
    mapping.  Inert (every call a no-op, ``block()`` ``None``) when the
    cell has no traffic axis.
    """

    def __init__(self, cell: Cell, protocol, profiler: PhaseProfiler) -> None:
        self.spec = cell.traffic
        self.protocol = protocol
        self.profiler = profiler
        self.active = cell.traffic.active
        self.fib_stats: Dict[str, object] = {}
        if self.active:
            with profiler.phase("traffic.workload"):
                self.workload = cell.traffic.build(protocol.graph)
                self.replay = TrafficReplay(self.workload, protocol.graph)
                self.tail = TailSeries(self.workload)

    def compile(self):
        """The FIB the converged control state compiles to right now."""
        if not self.active:
            return None
        with self.profiler.phase("traffic.fib"):
            fib = compile_fib(self.protocol, self.workload.classes)
        if not self.fib_stats:
            self.fib_stats.update(fib.stats.as_dict())
        return fib

    def record(self, now: float, label: str = "epoch", fib=None) -> None:
        """Replay the workload through ``fib`` (default: a fresh compile)."""
        if not self.active:
            return
        if fib is None:
            fib = self.compile()
        with self.profiler.phase("traffic.replay"):
            self.tail.record(now, label, fib, self.replay)

    def block(self) -> Optional[Dict[str, object]]:
        if not self.active:
            return None
        wl = self.workload
        return {
            "workload": {
                "flows": len(wl),
                "classes": wl.num_classes,
                "zipf_s": self.spec.zipf_s,
                "pairs": self.spec.pairs,
                "seed": self.spec.seed,
                "head_share": wl.head_share(),
                "total_bytes": wl.total_bytes,
            },
            "fib": self.fib_stats,
            "series": self.tail.as_dict(),
        }


def build_cell(cell: Cell, profiler: PhaseProfiler):
    """Scenario and (unbuilt) protocol of one cell, on private copies."""
    with profiler.phase("scenario"):
        scenario = cell.scenario.build()
    with profiler.phase("build"):
        protocol = cell.protocol.instantiate(
            scenario.graph.copy(), scenario.policies.copy()
        )
    return scenario, protocol


def open_substrate(
    cell: Cell,
    protocol,
    profiler: PhaseProfiler,
    time_scale: Optional[float] = None,
    settle_timeout_s: Optional[float] = None,
) -> Substrate:
    """Build ``protocol`` on the cell's substrate, impaired and profiled.

    Live, call it on the event loop the episode loop runs on; the serve
    tasks are supervised only under a chaos or upgrade program, and
    ``time_scale`` / ``settle_timeout_s`` override
    :class:`~repro.live.runner.LiveSubstrate`'s pacing (the simulator's
    time is virtual and ignores both).
    """
    fault = cell.fault
    if cell.substrate == "live":
        from repro.live import LiveSubstrate

        pacing = {"time_scale": time_scale, "timeout_s": settle_timeout_s}
        supervised = fault.chaotic or fault.versioned
        with profiler.phase("build"):
            substrate = LiveSubstrate(
                protocol,
                supervisor_seed=fault.seed if supervised else None,
                **{name: v for name, v in pacing.items() if v is not None},
            )
        if fault.loss > 0:
            # The one impairment real loopback can emulate: seeded loss
            # at the receive path, in force from t=0 like the sim's.
            substrate.network.set_recv_loss(fault.loss, seed=fault.seed)
        return substrate
    if cell.substrate != "sim":
        raise ValueError(
            f"unknown substrate {cell.substrate!r}; use 'sim' or 'live'"
        )
    with profiler.phase("build"):
        network = protocol.build()
    if fault.impaired:
        # In force from t=0: initial convergence happens over the lossy
        # channel too, which is the regime hardening is measured against.
        network.set_channel(
            ImpairedChannel(default=fault.impairment(), seed=fault.seed)
        )
    network.set_profiler(profiler)
    return SimSubstrate(network, protocol, max_events=cell.max_events)


def _timeline(cell, scenario, protocol, substrate, traffic):
    """Step 4: the probed fault/misbehavior timeline as one episode.

    Returns the episode and the record's ``robustness`` and
    ``misbehavior`` blocks (the latter ``None`` for a lie-free cell).
    """
    fault_plan = cell.fault.build_plan(protocol.graph)
    if len(fault_plan):
        protocol.schedule_fault_plan(fault_plan)
    reference_routes = None
    lie_start = substrate.now + cell.misbehavior.start_time
    if cell.misbehavior.active:
        # Capture the converged pre-lie routes first: they are the
        # hijack verdict's per-flow reference.
        reference_routes = {flow: protocol.find_route(flow) for flow in scenario.flows}
        mis_plan = cell.misbehavior.build_plan(scenario.graph)
        if len(mis_plan):
            protocol.schedule_fault_plan(mis_plan)
    # Probe only flows the converged protocol can route at all: flows
    # with no legal route ever would read as permanent blackholes and
    # drown the churn signal.  Misbehavior cells probe *everything*
    # instead: a route leak's blast radius is exactly the flows that
    # gain a route they should not have, which the routability filter
    # would hide.
    if cell.misbehavior.active:
        probe_flows = list(scenario.flows)
    else:
        probe_flows = [
            flow for flow in scenario.flows if protocol.find_route(flow) is not None
        ][: cell.fault.probe_flows]
    pulse = RoutePulse(
        protocol,
        probe_flows,
        interval=cell.fault.probe_interval,
        reference_routes=reference_routes,
        on_sample=traffic.record if traffic.active else None,
    )
    before = substrate.snapshot()
    horizon = max(
        axis.horizon for axis in (cell.fault, cell.misbehavior) if axis.active
    )
    probed_ok = pulse.run(substrate.now + horizon, max_events=cell.max_events)
    # Settle whatever the last fault left in flight; the episode spans
    # the probed window plus this drain.
    drain = substrate.settle()
    result = substrate.since(
        before,
        pulse.events_processed + drain.events,
        quiesced=probed_ok and drain.quiesced,
    )
    # The settled post-storm state: the series' last word.
    traffic.record(substrate.now, "final")
    misbehavior = None
    if cell.misbehavior.active:
        misbehavior = _misbehavior_block(
            cell,
            protocol,
            pulse.blast_series(lie_start),
            scenario.flows,
            reference_routes,
            lie_start,
        )
    episode = EpisodeRecord.from_result("timeline", result)
    return episode, pulse.summary(), misbehavior


def execute_cell(cell: Cell) -> RunRecord:
    """Run one cell end to end and measure it (worker entry point).

    Live cells cover the scenario x protocol x failure axes (plus the
    availability evaluation); the sim-only axes are rejected loudly
    rather than silently skipped.  Live episode times are honest
    wall-clock (in protocol units), so live records vary run to run the
    way ``timings`` do; never feed them to a determinism gate.
    """
    if cell.fault.versioned:
        # Versioned cells (mixed-version upgrade waves) and chaotic cells
        # (rolling restarts / partitions) take the episodic driver, on
        # EITHER substrate.
        from repro.harness.chaos import execute_version_cell

        return execute_version_cell(cell)
    if cell.fault.chaotic:
        from repro.harness.chaos import execute_chaos_cell

        return execute_chaos_cell(cell)
    live = cell.substrate == "live"
    if live:
        unsupported = [
            name
            for name, on in (
                ("fault (impairment/churn/queue)", cell.fault.active),
                ("misbehavior", cell.misbehavior.active),
                ("traffic (compiled-FIB replay)", cell.traffic.active),
                ("trace", cell.trace),
            )
            if on
        ]
        if unsupported:
            raise ValueError(
                f"live cells do not support the {', '.join(unsupported)} axis; "
                "run these cells on the sim substrate (or give the cell a "
                "chaos program -- chaotic cells run faults and traffic live)"
            )
    return drive(_run_cell(cell), live)


async def _run_cell(cell: Cell) -> RunRecord:
    """One plain cell, written once over the substrate adapter."""
    trace_filter = _parse_trace(cell.trace)
    profiler = PhaseProfiler()
    scenario, protocol = build_cell(cell, profiler)
    plan = cell.failure.build(scenario.graph)
    traffic = TrafficMeter(cell, protocol, profiler)
    substrate = open_substrate(cell, protocol, profiler)
    try:
        robustness = misbehavior = tracer = None
        network = substrate.network
        if trace_filter is not None:
            tracer = Tracer.attach(network)
        loop = plain_episodes(substrate, plan)
        with profiler.phase("converge"):
            _, initial = await anext(loop)
        episodes = [EpisodeRecord.from_result("initial", initial)]
        # Data-plane axis (E14): snapshot a compiled FIB now (the converged
        # epoch), after every failure and at every probe round of the fault
        # timeline, replaying the full workload against each.
        traffic.record(substrate.now, "initial")
        ingress_start = substrate.now
        if cell.fault.queued:
            # The bounded queue arms *after* initial convergence, so E13
            # measures the overload response to churn, not a cold start
            # through a saturated queue.
            network.set_ingress(IngressConfig(capacity=cell.fault.queue_capacity))
        if len(plan):
            with profiler.phase("failures"):
                async for ev, result in loop:
                    kind = "repair" if ev.up else "failure"
                    traffic.record(substrate.now, kind)
                    episodes.append(
                        EpisodeRecord.from_result(kind, result, link=(ev.a, ev.b))
                    )

        if cell.fault.active or cell.misbehavior.active:
            # Sim only: live cells were refused these axes above.
            with profiler.phase("faults"):
                episode, robustness, misbehavior = _timeline(
                    cell, scenario, protocol, substrate, traffic
                )
            episodes.append(episode)
        if misbehavior is None and protocol.runtime.validation.any_enabled:
            # Lie-free cell of a validating protocol: record the counters
            # anyway, so the false-quarantine-at-baseline claim is checkable.
            misbehavior = _misbehavior_block(cell, protocol, [], (), {}, 0.0)

        overload = None
        ingress = getattr(protocol.network, "ingress", None)
        if ingress is not None or protocol.runtime.pacing.any_enabled:
            overload = {"pacing": str(protocol.runtime.pacing)}
            overload.update(protocol.runtime_summary("pacing"))
            if ingress is not None:
                elapsed = max(substrate.now - ingress_start, 0.0)
                overload.update(ingress.counters(elapsed, scenario.graph.num_ads))

        trace_lines = None
        if tracer is not None:
            records = tracer.filtered(ad=trace_filter["ad"])
            trace_lines = tuple(r.render() for r in records[-TRACE_LINE_LIMIT:])

        return RunRecord.assemble(
            cell,
            scenario,
            protocol,
            episodes,
            profiler,
            timings=substrate.timings(),
            robustness=robustness,
            misbehavior=misbehavior,
            overload=overload,
            dataplane=traffic.block(),
            trace=trace_lines,
        )
    finally:
        await _done(substrate.close())


class ExperimentSession:
    """Executes an experiment spec, serially or fanned out over workers.

    Args:
        spec: The declarative experiment.
        out_dir: Where to persist ``<experiment>.jsonl`` (created on
            demand); ``None`` skips persistence.
    """

    def __init__(self, spec: ExperimentSpec, out_dir: Optional[str] = None) -> None:
        self.spec = spec
        self.out_dir = out_dir

    @property
    def jsonl_path(self) -> Optional[str]:
        if self.out_dir is None:
            return None
        return os.path.join(self.out_dir, f"{self.spec.name}.jsonl")

    def run(self, jobs: int = 1) -> List[RunRecord]:
        """Execute every cell and return records in deterministic order.

        ``jobs > 1`` fans independent cells out over a process pool.
        The merge sorts by cell key, so the returned list (and the
        persisted JSONL) is identical to a serial run -- only the
        wall-clock ``timings`` fields differ.
        """
        cells = self.spec.cells()
        if jobs <= 1 or len(cells) <= 1:
            records = [execute_cell(cell) for cell in cells]
        else:
            with multiprocessing.Pool(processes=min(jobs, len(cells))) as pool:
                records = pool.map(execute_cell, cells, chunksize=1)
        records.sort(key=lambda r: r.sort_key())
        if self.out_dir is not None:
            os.makedirs(self.out_dir, exist_ok=True)
            write_jsonl(self.jsonl_path, records)
        return records


def run_spec(
    spec: ExperimentSpec, jobs: int = 1, out_dir: Optional[str] = None
) -> Sequence[RunRecord]:
    """One-shot convenience: session + run."""
    return ExperimentSession(spec, out_dir=out_dir).run(jobs=jobs)
