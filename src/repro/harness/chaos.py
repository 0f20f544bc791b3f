"""The episodic driver: one loop for chaos (E15) and version skew (E16).

Some cells are interesting *during* a disruption, not just after it,
and must run the same program on both substrates so the simulator's
answer can be checked against real sockets.  They all share one shape::

    step list  ->  episode loop  ->  substrate adapter  ->  Transport
    (_Program)     (_run_cell)       (Sim/LiveSubstrate)    (Sim/LiveNetwork)

1. converge (the ``initial`` epoch seeds the data-plane baseline);
2. per step: compile the pre-step FIB, apply the step's events, replay
   the workload through the *stale* FIB under post-event liveness (the
   disruption epoch: exactly what a converged-then-surprised data plane
   forwards into), sample control-plane routability, settle, record the
   healed epoch and the step's entry;
3. the closing maintenance sweep where the program has one (a no-op on
   the simulator), the routes digest -- the sim-vs-live fidelity anchor
   -- and the record.

A *program* supplies the steps and its record block: chaos steps are the
plan's event groups (every cut link of a partition is ONE step; graceful
restart is honoured wherever the plan crashes an AD), upgrade steps are
rolling wire-version waves whose routes digests must all match the
pre-upgrade baseline.  How a substrate waits, settles and applies an
event is the adapter's business; nothing here knows which one it drives.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from repro.faults.plan import (
    FaultEvent,
    LinkFault,
    WireVersionChange,
    grouped_events,
)
from repro.harness.record import EpisodeRecord, RunRecord
from repro.harness.session import TrafficMeter, build_cell, open_substrate
from repro.harness.spec import Cell
from repro.policy.flows import FlowSpec
from repro.simul.profiling import PhaseProfiler
from repro.simul.runner import _done, drive
from repro.simul.wire import WIRE_VERSION

__all__ = ["execute_chaos_cell", "execute_version_cell", "routes_digest"]


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


class _Program:
    """What an episodic experiment supplies: its steps and its record block."""

    #: Whether the closing maintenance sweep runs.
    sweeps = False

    def __init__(self, cell: Cell, protocol) -> None:
        self.fault = cell.fault
        self.protocol = protocol

    def baseline(self) -> None:
        """Hook: runs once, right after the initial epoch."""

    def verdict(self) -> Dict[str, Any]:
        """Hook: extra facts closing each step's entry."""
        return {}


class _ChaosProgram(_Program):
    """E15: the chaos plan's event groups, closed by the serve sweep."""

    #: FaultSpec flag selecting the program, and the flags it replaces.
    axis, noun, needs = "chaotic", "chaotic", "chaos program (restarts/partitions)"
    conflicts = ("churns", "queued")
    conflict = (
        "chaotic cells replace the churn/queue timeline; use the legacy "
        "fault axis for those"
    )
    #: Episode kind (and profiler phase), and the block's RunRecord field.
    kind = field = "chaos"
    sweeps = True

    def steps(self) -> List[_Step]:
        self.plan = self.fault.build_chaos_plan(self.protocol.graph)
        return [
            _Step(
                _group_label(events), t, events, {"time": t, "n_events": len(events)}
            )
            for t, events in grouped_events(self.plan)
        ]

    def block(self, substrate, entries, base, serve_restarts):
        during = [g["routable_during"] for g in entries]
        return {
            "plan_events": len(self.plan),
            "groups": entries,
            "restarts": self.fault.restarts,
            "partitions": self.fault.partitions,
            "graceful": str(self.protocol.runtime.graceful),
            "graceful_summary": self.protocol.runtime_summary("graceful"),
            "baseline_routable": base,
            "availability": sum(during) / (len(during) * base)
            if during and base
            else 1.0,
            "routes_digest": routes_digest(self.protocol),
            "serve_restarts": serve_restarts,
            "supervisor": substrate.supervision,
        }


class _UpgradeProgram(_Program):
    """E16: rolling wire-version waves, plus the aborted-deploy drill."""

    axis, noun, needs = "versioned", "version", "upgrade program (upgrade_waves)"
    conflicts = ("chaotic", "churns", "queued")
    conflict = (
        "version cells replace the chaos/churn/queue timeline; use separate "
        "cells for those"
    )
    kind, field = "upgrade", "versioning"

    def steps(self) -> List[_Step]:
        self.start = start = self.protocol.runtime.wire.version
        waves = _upgrade_wave_plan(
            sorted(self.protocol.graph.ad_ids()), self.fault.upgrade_waves
        )
        target = WIRE_VERSION
        legs = [
            (wave, target, f"upgrade wave {i + 1}/{len(waves)} -> v{target}")
            for i, wave in enumerate(waves)
        ]
        if self.fault.rollback:
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
        self.baseline_digest = routes_digest(self.protocol)

    def verdict(self) -> Dict[str, Any]:
        """The invariant: every wave settles back onto the baseline routes."""
        return {
            "negotiation": self.protocol.runtime_summary("wire"),
            "digest_match": routes_digest(self.protocol) == self.baseline_digest,
        }

    def block(self, substrate, entries, base, serve_restarts):
        final_digest = routes_digest(self.protocol)
        return {
            "upgrade_waves": self.fault.upgrade_waves,
            "rollback": self.fault.rollback,
            "wire_start": self.start,
            "wire_target": WIRE_VERSION,
            "waves": entries,
            "negotiation": self.protocol.runtime_summary("wire"),
            "version_rejected": self.protocol.network.metrics.version_rejected,
            "baseline_digest": self.baseline_digest,
            "routes_digest": final_digest,
            "digest_stable": final_digest == self.baseline_digest
            and all(w["digest_match"] for w in entries),
            "supervisor": substrate.supervision,
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


# ----------------------------------------------------------- the episode loop


async def _run_cell(
    cell: Cell,
    program_type,
    time_scale: Optional[float],
    settle_timeout_s: Optional[float],
) -> RunRecord:
    """THE episodic driver: every E15/E16 row, sim and live, comes from here."""
    profiler = PhaseProfiler()
    scenario, protocol = build_cell(cell, profiler)
    substrate = open_substrate(cell, protocol, profiler, time_scale, settle_timeout_s)
    program = program_type(cell, protocol)

    def routable() -> int:
        return sum(1 for f in scenario.flows if protocol.find_route(f) is not None)

    try:
        await _done(substrate.start())
        with profiler.phase("converge"):
            initial = await _done(substrate.settle())
        episodes = [EpisodeRecord.from_result("initial", initial)]
        traffic = TrafficMeter(cell, protocol, profiler)
        base_routable = routable()
        traffic.record(substrate.now, "initial")
        program.baseline()

        steps = program.steps()
        entries: List[Dict[str, Any]] = []
        # Each timed step's absolute instant; the last episode is unbounded.
        base = substrate.now
        instants = [None if s.at is None else base + s.at for s in steps] + [None]
        with profiler.phase(program.kind):
            for i, step in enumerate(steps):
                if instants[i] is not None:
                    await _done(substrate.advance_to(instants[i]))
                fib_before = traffic.compile()
                for ev in step.events:
                    await _done(substrate.apply(ev))
                # The disruption epoch: the pre-step FIB replayed under
                # post-step liveness -- what stale forwarding state
                # actually delivers while the control plane reacts.
                traffic.record(substrate.now, step.label, fib=fib_before)
                routable_during = routable()
                # Settle no further than the next timed step's instant.
                result = await _done(substrate.settle(instants[i + 1]))
                episodes.append(EpisodeRecord.from_result(program.kind, result))
                traffic.record(substrate.now, f"{step.label} settled")
                entries.append(
                    {
                        "label": step.label,
                        **step.facts,
                        "messages": result.messages,
                        "settle_time": result.time,
                        "routable_during": routable_during,
                        "routable_after": routable(),
                        "quiesced": result.quiesced,
                        **program.verdict(),
                    }
                )
        serve_restarts = 0
        if program.sweeps:
            with profiler.phase("rolling"):
                serve_restarts = await _done(substrate.sweep())
            if serve_restarts:
                traffic.record(substrate.now, "rolling serve restart")
        block = program.block(substrate, entries, base_routable, serve_restarts)
        return RunRecord.assemble(
            cell,
            scenario,
            protocol,
            episodes,
            profiler,
            timings=substrate.timings(),
            dataplane=traffic.block(),
            **{program.field: block},
        )
    finally:
        await _done(substrate.close())


def check_program_cell(cell: Cell, program_type=None) -> None:
    """Raise ``ValueError`` unless ``program_type`` (by default the one
    ``execute_cell`` picks) can run the cell; runs nothing."""
    if program_type is None:
        program_type = _UpgradeProgram if cell.fault.versioned else _ChaosProgram
    fault = cell.fault
    if not getattr(fault, program_type.axis):
        raise ValueError(f"cell has no {program_type.needs}")
    if cell.misbehavior.active:
        raise ValueError(
            f"{program_type.noun} cells do not support the misbehavior axis"
        )
    if any(getattr(fault, axis) for axis in program_type.conflicts):
        raise ValueError(program_type.conflict)
    if cell.substrate == "live" and (fault.dup > 0 or fault.jitter > 0):
        raise ValueError(
            f"live {program_type.noun} cells support loss impairments only; "
            "dup/jitter are simulator models"
        )


def _execute(
    cell: Cell,
    program_type,
    time_scale: Optional[float],
    settle_timeout_s: Optional[float],
) -> RunRecord:
    """Validate the cell (once, for every program) and run it."""
    check_program_cell(cell, program_type)
    live = cell.substrate == "live"
    return drive(_run_cell(cell, program_type, time_scale, settle_timeout_s), live)


def execute_chaos_cell(
    cell: Cell,
    *,
    time_scale: Optional[float] = None,
    settle_timeout_s: Optional[float] = None,
) -> RunRecord:
    """Run one chaotic cell end to end on its substrate.

    ``time_scale`` and ``settle_timeout_s`` override the live pacing
    (wall seconds per protocol unit, per-episode settle budget); both
    are ignored on the simulator, whose time is virtual.
    """
    return _execute(cell, _ChaosProgram, time_scale, settle_timeout_s)


def execute_version_cell(
    cell: Cell,
    *,
    time_scale: Optional[float] = None,
    settle_timeout_s: Optional[float] = None,
) -> RunRecord:
    """Run one mixed-version upgrade cell end to end on its substrate.

    Every AD starts at the cell's configured wire version, converges,
    and is upgraded to the current version in ``FaultSpec.upgrade_waves``
    contiguous waves.  Pacing overrides as for :func:`execute_chaos_cell`.
    """
    return _execute(cell, _UpgradeProgram, time_scale, settle_timeout_s)
