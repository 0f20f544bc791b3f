"""The cell driver: one loop for every harness cell, on both substrates.

Every cell -- plain (E1-E14), chaos (E15) or upgrade (E16) -- runs the
same sequence, so the simulator's answer can be checked against real
sockets::

    program  ->  the cell loop  ->  substrate adapter  ->  Transport
    (_Program)   (_run_cell)        (Sim/LiveSubstrate)    (Sim/LiveNetwork)

1. build the scenario and protocol, open the substrate
   (:func:`~repro.harness.session.open_substrate`) and the program;
2. converge: the ``initial`` episode and the data-plane baseline epoch;
3. the program's baseline hook, then its steps, one episode each;
4. the closing maintenance sweep where the program has one (a no-op on
   the simulator), then :meth:`RunRecord.assemble` with the program's
   record blocks.

A *program* supplies its steps, hooks and record blocks, and declares
what it refuses (:func:`check_cell` reads that before anything runs).
Plain cells step through their failure/repair events, then the probed
fault and misbehaviour timeline (sim only).  Chaos steps are the plan's
event groups (every cut link of a partition is ONE step; graceful
restart is honoured wherever the plan crashes an AD); upgrade steps are
rolling wire-version waves whose routes digests must all match the
pre-upgrade baseline.  Each of those compiles the pre-step FIB, applies
its events, replays the workload through the *stale* FIB under
post-event liveness (the disruption epoch: exactly what a
converged-then-surprised data plane forwards into), samples
control-plane routability, settles and records the healed epoch.  The
routes digest is the sim-vs-live fidelity anchor.  How a substrate
waits, settles and applies an event is the adapter's business; nothing
here knows which one it drives.
"""

from __future__ import annotations

import hashlib
from typing import Any, Awaitable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.faults.plan import (
    FaultEvent,
    LinkFault,
    WireVersionChange,
    grouped_events,
)
from repro.faults.prober import RoutePulse
from repro.harness.record import EpisodeRecord, RunRecord
from repro.harness.session import (
    TRACE_LINE_LIMIT,
    TrafficMeter,
    _parse_trace,
    build_cell,
    open_substrate,
)
from repro.harness.spec import Cell
from repro.policy.flows import FlowSpec
from repro.simul.ingress import IngressModel
from repro.simul.profiling import PhaseProfiler
from repro.simul.runner import _done, drive
from repro.simul.trace import Tracer
from repro.simul.wire import WIRE_VERSION

__all__ = ["check_cell", "execute_chaos_cell", "execute_version_cell", "routes_digest", "run_cell"]


def routes_digest(protocol) -> str:
    """Digest of every ordered-pair route the protocol would answer now.

    The fidelity anchor: two substrates that converged to the same
    control state produce the same digest.  Hashes the full
    ``find_route`` answer (path or None) for every ordered (src, dst)
    pair of the topology.
    """
    ads = sorted(protocol.graph.ad_ids())
    h = hashlib.sha256()
    for src in ads:
        for dst in ads:
            if src == dst:
                continue
            route = protocol.find_route(FlowSpec(src=src, dst=dst))
            h.update(
                f"{src}>{dst}:{route if route is None else tuple(route)};".encode()
            )
    return h.hexdigest()[:16]


class _Program:
    """What a cell runs between its initial epoch and its record.

    Built on the opened substrate, before the network starts.
    """

    #: Whether the closing maintenance sweep runs.
    sweeps = False

    def __init__(self, cell: Cell, scenario, protocol, substrate, traffic) -> None:
        self.cell = cell
        self.scenario = scenario
        self.protocol = protocol
        self.substrate = substrate
        self.traffic = traffic

    @classmethod
    def refusals(cls, cell: Cell) -> Iterator[str]:
        """Why the program cannot run ``cell``; empty when it can."""
        return iter(())

    def baseline(self) -> None:
        """Hook: runs once, right after the initial epoch."""

    def steps(self) -> Iterator[Tuple[str, Awaitable[EpisodeRecord]]]:
        """``(profiler phase, step)`` pairs; each step is one episode."""
        raise NotImplementedError

    def blocks(self, serve_restarts: int) -> Dict[str, Any]:
        """The program's optional RunRecord fields."""
        raise NotImplementedError


# ------------------------------------------------------------ plain cells


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


class _PlainProgram(_Program):
    """E1-E14: one episode per failure event, then the probed timeline."""

    @classmethod
    def refusals(cls, cell: Cell) -> Iterator[str]:
        """Live plain cells cover the scenario x protocol x failure axes
        (plus the availability evaluation); the sim-only axes are refused
        loudly rather than silently skipped."""
        if cell.substrate != "live":
            return
        for axis, on in (
            ("fault (impairment/churn/queue)", cell.fault.active),
            ("misbehavior", cell.misbehavior.active),
            ("traffic (compiled-FIB replay)", cell.traffic.active),
            ("trace", cell.trace),
        ):
            if on:
                yield (
                    f"live cells do not support the {axis} axis; run these "
                    "cells on the sim substrate (or give the cell a chaos "
                    "program -- chaotic cells run faults and traffic live)"
                )

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.trace_filter = _parse_trace(self.cell.trace)
        self.tracer = None
        if self.trace_filter is not None:
            self.tracer = Tracer.attach(self.substrate.network)
        self.robustness = self.misbehavior = None

    def baseline(self) -> None:
        self.ingress_start = self.substrate.now
        if self.cell.fault.queued:
            # The bounded queue arms *after* initial convergence, so E13
            # measures the overload response to churn, not a cold start
            # through a saturated queue.
            self.substrate.network.set_ingress(
                IngressModel(self.cell.fault.queue_capacity)
            )

    def steps(self) -> Iterator[Tuple[str, Awaitable[EpisodeRecord]]]:
        cell = self.cell
        for ev in cell.failure.build(self.scenario.graph):
            yield "failures", self._event(ev)
        if cell.fault.active or cell.misbehavior.active:
            yield "faults", self._timeline()

    async def _event(self, ev: LinkFault) -> EpisodeRecord:
        """One failure or repair, applied only once the last settled."""
        substrate = self.substrate
        await _done(substrate.apply(ev))
        result = await _done(substrate.settle())
        kind = "repair" if ev.up else "failure"
        self.traffic.record(substrate.now, kind)
        return EpisodeRecord.from_result(kind, result, link=(ev.a, ev.b))

    async def _timeline(self) -> EpisodeRecord:
        """The probed fault/misbehavior timeline as one episode (sim only:
        live cells are refused both axes)."""
        cell, scenario, protocol = self.cell, self.scenario, self.protocol
        substrate, traffic = self.substrate, self.traffic
        fault_plan = cell.fault.build_plan(protocol.graph)
        if len(fault_plan):
            protocol.schedule_fault_plan(fault_plan)
        reference_routes = None
        lie_start = substrate.now + cell.misbehavior.start_time
        if cell.misbehavior.active:
            # Capture the converged pre-lie routes first: they are the
            # hijack verdict's per-flow reference.
            reference_routes = {
                flow: protocol.find_route(flow) for flow in scenario.flows
            }
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
        if cell.misbehavior.active:
            self.misbehavior = _misbehavior_block(
                cell,
                protocol,
                pulse.blast_series(lie_start),
                scenario.flows,
                reference_routes,
                lie_start,
            )
        self.robustness = pulse.summary()
        return EpisodeRecord.from_result("timeline", result)

    def blocks(self, serve_restarts: int) -> Dict[str, Any]:
        protocol = self.protocol
        misbehavior = self.misbehavior
        if misbehavior is None and protocol.runtime.validation.any_enabled:
            # Lie-free cell of a validating protocol: record the counters
            # anyway, so the false-quarantine-at-baseline claim is checkable.
            misbehavior = _misbehavior_block(self.cell, protocol, [], (), {}, 0.0)
        overload = None
        ingress = getattr(protocol.network, "ingress", None)
        if ingress is not None or protocol.runtime.pacing.any_enabled:
            overload = {"pacing": str(protocol.runtime.pacing)}
            overload.update(protocol.runtime_summary("pacing"))
            if ingress is not None:
                elapsed = max(self.substrate.now - self.ingress_start, 0.0)
                overload.update(
                    ingress.counters(elapsed, self.scenario.graph.num_ads)
                )
        trace = None
        if self.tracer is not None:
            records = self.tracer.filtered(ad=self.trace_filter["ad"])
            trace = tuple(r.render() for r in records[-TRACE_LINE_LIMIT:])
        return {
            "robustness": self.robustness,
            "misbehavior": misbehavior,
            "overload": overload,
            "trace": trace,
        }


# ------------------------------------------------- chaos and upgrade cells


class _Step(NamedTuple):
    """One disruption: what to apply, when, and how the record names it."""

    label: str
    #: Plan-relative instant (``None``: as soon as the last step settled).
    at: Optional[float]
    events: Sequence[FaultEvent]
    #: Step-specific facts heading the step's record entry.
    facts: Dict[str, Any]


def _group_label(events: Sequence[FaultEvent]) -> str:
    """Human label for one event group (partitions collapse to one)."""
    links_down = sum(
        1 for ev in events if isinstance(ev, LinkFault) and not ev.up
    )
    links_up = sum(1 for ev in events if isinstance(ev, LinkFault) and ev.up)
    if links_down > 1 and links_down == len(events):
        return f"partition ({links_down} links down)"
    if links_up > 1 and links_up == len(events):
        return f"heal ({links_up} links up)"
    return "; ".join(
        f"link {ev.a}-{ev.b} {'up' if ev.up else 'down'}"
        if isinstance(ev, LinkFault)
        else f"AD {ev.ad} {'restart' if ev.up else 'crash'}"
        for ev in events
    )


class _DisruptionProgram(_Program):
    """E15/E16: disruptions measured while they bite and once settled.

    A subclass names its FaultSpec flag (``axis``), the flags it
    replaces (``conflicts``) and its episode kind (``kind``, also the
    steps' profiler phase), and supplies :meth:`disruptions` and its
    record block.
    """

    @classmethod
    def refusals(cls, cell: Cell) -> Iterator[str]:
        fault = cell.fault
        if not getattr(fault, cls.axis):
            yield f"cell has no {cls.needs}"
        if cell.misbehavior.active:
            yield f"{cls.noun} cells do not support the misbehavior axis"
        if any(getattr(fault, axis) for axis in cls.conflicts):
            yield cls.conflict
        if cell.substrate == "live" and (fault.dup > 0 or fault.jitter > 0):
            yield (
                f"live {cls.noun} cells support loss impairments only; "
                "dup/jitter are simulator models"
            )

    def routable(self) -> int:
        return sum(
            1 for f in self.scenario.flows if self.protocol.find_route(f) is not None
        )

    def baseline(self) -> None:
        self.base_routable = self.routable()

    def verdict(self) -> Dict[str, Any]:
        """Hook: extra facts closing each step's entry."""
        return {}

    def disruptions(self) -> List[_Step]:
        raise NotImplementedError

    def steps(self) -> Iterator[Tuple[str, Awaitable[EpisodeRecord]]]:
        self.entries: List[Dict[str, Any]] = []
        disruptions = self.disruptions()
        # Each timed step's absolute instant; the last episode is unbounded.
        base = self.substrate.now
        instants = [None if s.at is None else base + s.at for s in disruptions]
        instants.append(None)
        for i, step in enumerate(disruptions):
            yield self.kind, self._disrupt(step, instants[i], instants[i + 1])

    async def _disrupt(
        self, step: _Step, at: Optional[float], until: Optional[float]
    ) -> EpisodeRecord:
        substrate, traffic = self.substrate, self.traffic
        if at is not None:
            await _done(substrate.advance_to(at))
        fib_before = traffic.compile()
        for ev in step.events:
            await _done(substrate.apply(ev))
        # The disruption epoch: the pre-step FIB replayed under post-step
        # liveness -- what stale forwarding state actually delivers while
        # the control plane reacts.
        traffic.record(substrate.now, step.label, fib=fib_before)
        routable_during = self.routable()
        # Settle no further than the next timed step's instant.
        result = await _done(substrate.settle(until))
        traffic.record(substrate.now, f"{step.label} settled")
        self.entries.append(
            {
                "label": step.label,
                **step.facts,
                "messages": result.messages,
                "settle_time": result.time,
                "routable_during": routable_during,
                "routable_after": self.routable(),
                "quiesced": result.quiesced,
                **self.verdict(),
            }
        )
        return EpisodeRecord.from_result(self.kind, result)


class _ChaosProgram(_DisruptionProgram):
    """E15: the chaos plan's event groups, closed by the serve sweep."""

    axis, noun, needs = "chaotic", "chaotic", "chaos program (restarts/partitions)"
    conflicts = ("churns", "queued")
    conflict = (
        "chaotic cells replace the churn/queue timeline; use the legacy "
        "fault axis for those"
    )
    kind = "chaos"
    sweeps = True

    def disruptions(self) -> List[_Step]:
        self.plan = self.cell.fault.build_chaos_plan(self.protocol.graph)
        return [
            _Step(
                _group_label(events), t, events, {"time": t, "n_events": len(events)}
            )
            for t, events in grouped_events(self.plan)
        ]

    def blocks(self, serve_restarts: int) -> Dict[str, Any]:
        fault, base = self.cell.fault, self.base_routable
        during = [g["routable_during"] for g in self.entries]
        return {
            "chaos": {
                "plan_events": len(self.plan),
                "groups": self.entries,
                "restarts": fault.restarts,
                "partitions": fault.partitions,
                "graceful": str(self.protocol.runtime.graceful),
                "graceful_summary": self.protocol.runtime_summary("graceful"),
                "baseline_routable": base,
                "availability": sum(during) / (len(during) * base)
                if during and base
                else 1.0,
                "routes_digest": routes_digest(self.protocol),
                "serve_restarts": serve_restarts,
                "supervisor": self.substrate.supervision,
            }
        }


class _UpgradeProgram(_DisruptionProgram):
    """E16: rolling wire-version waves, plus the aborted-deploy drill."""

    axis, noun, needs = "versioned", "version", "upgrade program (upgrade_waves)"
    conflicts = ("chaotic", "churns", "queued")
    conflict = (
        "version cells replace the chaos/churn/queue timeline; use separate "
        "cells for those"
    )
    kind = "upgrade"

    def disruptions(self) -> List[_Step]:
        fault = self.cell.fault
        self.start = start = self.protocol.runtime.wire.version
        waves = _upgrade_wave_plan(
            sorted(self.protocol.graph.ad_ids()), fault.upgrade_waves
        )
        target = WIRE_VERSION
        legs = [
            (wave, target, f"upgrade wave {i + 1}/{len(waves)} -> v{target}")
            for i, wave in enumerate(waves)
        ]
        if fault.rollback:
            legs.append((waves[-1], start, f"rollback -> v{start}"))
            legs.append((waves[-1], target, f"re-upgrade -> v{target}"))
        return [
            _Step(
                label,
                None,
                [WireVersionChange(0.0, ad, version) for ad in wave],
                {"ads": len(wave), "to_version": version},
            )
            for wave, version, label in legs
        ]

    def baseline(self) -> None:
        super().baseline()
        self.baseline_digest = routes_digest(self.protocol)

    def verdict(self) -> Dict[str, Any]:
        """The invariant: every wave settles back onto the baseline routes."""
        return {
            "negotiation": self.protocol.runtime_summary("wire"),
            "digest_match": routes_digest(self.protocol) == self.baseline_digest,
        }

    def blocks(self, serve_restarts: int) -> Dict[str, Any]:
        final_digest = routes_digest(self.protocol)
        return {
            "versioning": {
                "upgrade_waves": self.cell.fault.upgrade_waves,
                "rollback": self.cell.fault.rollback,
                "wire_start": self.start,
                "wire_target": WIRE_VERSION,
                "waves": self.entries,
                "negotiation": self.protocol.runtime_summary("wire"),
                "version_rejected": self.protocol.network.metrics.version_rejected,
                "baseline_digest": self.baseline_digest,
                "routes_digest": final_digest,
                "digest_stable": final_digest == self.baseline_digest
                and all(w["digest_match"] for w in self.entries),
                "supervisor": self.substrate.supervision,
            }
        }


def _upgrade_wave_plan(ads: List[int], waves: int) -> List[List[int]]:
    """Split sorted AD ids into contiguous waves (early waves larger)."""
    waves = max(1, min(waves, len(ads)))
    base, extra = divmod(len(ads), waves)
    out: List[List[int]] = []
    start = 0
    for i in range(waves):
        size = base + (1 if i < extra else 0)
        out.append(ads[start : start + size])
        start += size
    return [wave for wave in out if wave]


# ------------------------------------------------------------- the cell loop


async def _run_cell(
    cell: Cell,
    program_type,
    time_scale: Optional[float],
    settle_timeout_s: Optional[float],
):
    """THE cell driver: every harness row, sim and live, comes from here."""
    profiler = PhaseProfiler()
    scenario, protocol = build_cell(cell, profiler)
    traffic = TrafficMeter(cell, protocol, profiler)
    substrate = open_substrate(cell, protocol, profiler, time_scale, settle_timeout_s)
    try:
        program = program_type(cell, scenario, protocol, substrate, traffic)
        await _done(substrate.start())
        with profiler.phase("converge"):
            initial = await _done(substrate.settle())
        episodes = [EpisodeRecord.from_result("initial", initial)]
        # Data-plane axis (E14): replay the workload through a FIB
        # compiled from the converged epoch; the steps record their own.
        traffic.record(substrate.now, "initial")
        program.baseline()
        for phase, step in program.steps():
            with profiler.phase(phase):
                episodes.append(await step)
        serve_restarts = 0
        if program.sweeps:
            with profiler.phase("rolling"):
                serve_restarts = await _done(substrate.sweep())
            if serve_restarts:
                traffic.record(substrate.now, "rolling serve restart")
        record = RunRecord.assemble(
            cell,
            scenario,
            protocol,
            episodes,
            profiler,
            timings=substrate.timings(),
            dataplane=traffic.block(),
            **program.blocks(serve_restarts),
        )
        return record, protocol
    finally:
        await _done(substrate.close())


def _program_for(cell: Cell):
    """The program a cell's fault axis selects."""
    if cell.fault.versioned:
        return _UpgradeProgram
    if cell.fault.chaotic:
        return _ChaosProgram
    return _PlainProgram


def check_cell(cell: Cell, program_type=None) -> None:
    """Raise ``ValueError`` if ``program_type`` (by default the cell's own)
    refuses the cell; runs nothing."""
    for refusal in (program_type or _program_for(cell)).refusals(cell):
        raise ValueError(refusal)


def run_cell(
    cell: Cell,
    *,
    program_type=None,
    time_scale: Optional[float] = None,
    settle_timeout_s: Optional[float] = None,
):
    """Check, then run one cell on its substrate: ``(record, protocol)``.

    ``time_scale`` and ``settle_timeout_s`` override the live pacing
    (wall seconds per protocol unit, per-episode settle budget); both
    are ignored on the simulator, whose time is virtual.  Live episode
    times are honest wall-clock (in protocol units), so live records
    vary run to run the way ``timings`` do; never feed them to a
    determinism gate.
    """
    program_type = program_type or _program_for(cell)
    check_cell(cell, program_type)
    run = _run_cell(cell, program_type, time_scale, settle_timeout_s)
    return drive(run, cell.substrate == "live")


def execute_chaos_cell(
    cell: Cell,
    *,
    time_scale: Optional[float] = None,
    settle_timeout_s: Optional[float] = None,
) -> RunRecord:
    """Run one chaotic cell end to end on its substrate (pacing as for
    :func:`run_cell`)."""
    return run_cell(
        cell,
        program_type=_ChaosProgram,
        time_scale=time_scale,
        settle_timeout_s=settle_timeout_s,
    )[0]


def execute_version_cell(cell: Cell) -> RunRecord:
    """Run one mixed-version upgrade cell end to end on its substrate.

    Every AD starts at the cell's configured wire version, converges,
    and is upgraded to the current version in ``FaultSpec.upgrade_waves``
    contiguous waves.
    """
    return run_cell(cell, program_type=_UpgradeProgram)[0]
