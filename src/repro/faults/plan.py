"""The fault-plan DSL: link churn, AD crash/restart, impairment changes.

A :class:`FaultPlan` generalizes :class:`~repro.adgraph.failures.FailurePlan`
(link up/down only) with three further event kinds:

* :class:`NodeFault` -- an AD's routing process crashes (all incident
  links drop and the node goes silent) and later restarts, either
  retaining its RIB/LSDB (``retain_state=True``: a gateway whose
  interfaces bounced) or losing it (``retain_state=False``: the process
  is replaced wholesale and must relearn the internet);
* :class:`ImpairmentChange` -- the channel model's parameters for one
  link (or the default for all links) change at a scheduled time, which
  is how lossy periods and flapping-quality links are expressed;
* :class:`WireVersionChange` -- one AD's wire version flips (the E16
  rolling-upgrade waves).

Event times are **relative**: :meth:`RoutingProtocol.schedule_fault_plan
<repro.protocols.base.RoutingProtocol.schedule_fault_plan>` offsets them
from the moment the plan is scheduled, so a plan composed for "100 time
units after initial convergence" works no matter how long convergence
took (absolute times would race slow protocols into "cannot schedule
into the past").

Generators draw from a seeded ``random.Random`` and validate feasibility
loudly (never silently shrinking the plan): flaps come from non-bridge
links, crashes from non-articulation-point ADs, so the internet minus
the faulted element stays connected and repair is measurable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.adgraph.ad import ADId, LinkKind
from repro.adgraph.failures import FailurePlan, safe_failure_candidates
from repro.adgraph.graph import InterADGraph
from repro.faults.channel import PERFECT, Impairment


@dataclass(frozen=True)
class LinkFault:
    """A link status change, ``time`` units after the plan is scheduled."""

    time: float
    a: ADId
    b: ADId
    up: bool = False


@dataclass(frozen=True)
class NodeFault:
    """An AD crash (``up=False``) or restart (``up=True``).

    ``retain_state`` only matters on the restart event: ``True`` brings
    the same routing process back (tables intact, interfaces restored),
    ``False`` replaces it with a freshly-constructed node that must
    relearn everything from its neighbours.
    """

    time: float
    ad: ADId
    up: bool = False
    retain_state: bool = True


@dataclass(frozen=True)
class ImpairmentChange:
    """A scheduled change of channel impairment parameters.

    ``link=None`` replaces the channel's default (all links without an
    override); otherwise only the named link changes.
    """

    time: float
    spec: Impairment
    link: Optional[Tuple[ADId, ADId]] = None


@dataclass(frozen=True)
class WireVersionChange:
    """One AD's wire version flips: a rolling upgrade or rollback (E16).

    On the live substrate the flip also bounces the AD's serve task --
    a binary upgrade restarts the process.
    """

    time: float
    ad: ADId
    version: int


FaultEvent = Union[LinkFault, NodeFault, ImpairmentChange, WireVersionChange]


@dataclass(frozen=True)
class FaultPlan:
    """A time-ordered sequence of fault events."""

    events: Tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        times = [e.time for e in self.events]
        if times != sorted(times):
            raise ValueError("fault events must be time-ordered")

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def horizon(self) -> float:
        """Time of the last event (0 for an empty plan)."""
        return self.events[-1].time if self.events else 0.0

    @classmethod
    def from_failure_plan(cls, plan: Optional[FailurePlan]) -> "FaultPlan":
        """Lift a link-only :class:`FailurePlan` (``None``: no events)."""
        return cls(
            tuple(LinkFault(ev.time, ev.a, ev.b, ev.up) for ev in plan or ())
        )


def grouped_events(plan: FaultPlan) -> List[Tuple[float, List[FaultEvent]]]:
    """Events bucketed by identical fire time, in order.

    Episodic drivers treat simultaneous events (every cut link of a
    partition goes down at the same instant) as ONE chaos event with
    one disruption epoch, not dozens.
    """
    groups: List[Tuple[float, List[FaultEvent]]] = []
    for ev in plan:
        if groups and groups[-1][0] == ev.time:
            groups[-1][1].append(ev)
        else:
            groups.append((ev.time, [ev]))
    return groups


def merge_plans(*plans: FaultPlan) -> FaultPlan:
    """Merge plans into one, time-ordered (stable for equal times)."""
    events: List[FaultEvent] = []
    for plan in plans:
        events.extend(plan.events)
    events.sort(key=lambda ev: ev.time)
    return FaultPlan(tuple(events))


def link_flap_plan(
    graph: InterADGraph,
    flaps: int = 1,
    start_time: float = 100.0,
    spacing: float = 400.0,
    down_for: Optional[float] = None,
    seed: int = 0,
) -> FaultPlan:
    """Flap ``flaps`` random non-bridge links (down, then up again).

    Each flap occupies one ``spacing`` window: down at the window start,
    up ``down_for`` later (default half the spacing), so reconvergence
    after each change is observable in isolation.
    """
    rng = random.Random(seed)
    candidates = safe_failure_candidates(graph)
    if len(candidates) < flaps:
        raise ValueError(
            f"only {len(candidates)} safe candidate links, need {flaps}"
        )
    chosen = rng.sample(candidates, flaps)
    if down_for is None:
        down_for = spacing / 2.0
    events: List[FaultEvent] = []
    t = start_time
    for a, b in chosen:
        events.append(LinkFault(t, a, b, up=False))
        events.append(LinkFault(t + down_for, a, b, up=True))
        t += spacing
    return FaultPlan(tuple(events))


def churn_storm_plan(
    graph: InterADGraph,
    hz: float = 0.02,
    links: int = 3,
    start_time: float = 100.0,
    duration: float = 400.0,
    seed: int = 0,
) -> FaultPlan:
    """Sustained concurrent link flapping: the E13 churn storm.

    ``links`` links each flap at ``hz`` cycles per time unit for
    ``duration``: down at every period start, up half a period later,
    all links in phase.  Unlike :func:`link_flap_plan` the flaps overlap
    rather than occupying separate windows, so update load accumulates
    -- this is the workload that overflows bounded ingress queues and
    that flap damping is designed to quench.

    Candidates are the non-bridge links, *preferring* lateral/bypass
    links (the paper's redundancy links): flapping those stresses
    alternate-path selection everywhere without partitioning anyone.
    Hierarchical links are used only when there are not enough.
    """
    if hz <= 0:
        raise ValueError("churn frequency must be > 0")
    if duration <= 0:
        raise ValueError("churn duration must be > 0")
    rng = random.Random(seed)
    candidates = safe_failure_candidates(graph)
    if len(candidates) < links:
        raise ValueError(
            f"only {len(candidates)} safe candidate links, need {links}"
        )
    by_key = {ln.key: ln for ln in graph.links(include_down=False)}
    preferred = [
        key
        for key in candidates
        if by_key[key].kind in (LinkKind.LATERAL, LinkKind.BYPASS)
    ]
    rest = [key for key in candidates if key not in preferred]
    rng.shuffle(preferred)
    rng.shuffle(rest)
    chosen = (preferred + rest)[:links]
    period = 1.0 / hz
    events: List[FaultEvent] = []
    for a, b in chosen:
        t = start_time
        while t < start_time + duration:
            events.append(LinkFault(t, a, b, up=False))
            events.append(LinkFault(t + period / 2.0, a, b, up=True))
            t += period
    events.sort(key=lambda ev: ev.time)
    return FaultPlan(tuple(events))


def crash_candidates(graph: InterADGraph) -> List[ADId]:
    """ADs whose crash leaves the *rest* of the internet connected.

    Articulation points are excluded for the same reason bridges are
    excluded from link-failure candidates: crashing one would measure
    partition behaviour, not crash recovery.
    """
    import networkx as nx

    g = graph.nx_graph(live_only=True)
    cut = set(nx.articulation_points(g))
    return [ad_id for ad_id in graph.ad_ids() if ad_id not in cut]


def ad_crash_plan(
    graph: InterADGraph,
    crashes: int = 1,
    retain_state: bool = False,
    start_time: float = 100.0,
    spacing: float = 400.0,
    down_for: Optional[float] = None,
    seed: int = 0,
) -> FaultPlan:
    """Crash-and-restart ``crashes`` random non-articulation-point ADs."""
    rng = random.Random(seed)
    candidates = crash_candidates(graph)
    if len(candidates) < crashes:
        raise ValueError(
            f"only {len(candidates)} crash-safe ADs, need {crashes}"
        )
    chosen = rng.sample(candidates, crashes)
    if down_for is None:
        down_for = spacing / 2.0
    events: List[FaultEvent] = []
    t = start_time
    for ad_id in chosen:
        events.append(NodeFault(t, ad_id, up=False, retain_state=retain_state))
        events.append(
            NodeFault(t + down_for, ad_id, up=True, retain_state=retain_state)
        )
        t += spacing
    return FaultPlan(tuple(events))


def partition_plan(
    graph: InterADGraph,
    start_time: float = 100.0,
    duration: float = 200.0,
    fraction: float = 0.3,
    seed: int = 0,
) -> FaultPlan:
    """Partition the internet for a bounded window, then heal it.

    A seeded BFS from a random AD grows a connected island of roughly
    ``fraction`` of the ADs; every link crossing the island boundary
    goes down at ``start_time`` and comes back at ``start_time +
    duration``.  Unlike the flap/crash generators this *deliberately*
    disconnects the internet -- partition behaviour is the thing being
    measured -- so candidates are not restricted to non-bridges.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if duration <= 0:
        raise ValueError("partition duration must be > 0")
    rng = random.Random(seed)
    ids = sorted(graph.ad_ids())
    if len(ids) < 2:
        raise ValueError("cannot partition a single-AD internet")
    target = max(1, int(len(ids) * fraction))
    start = rng.choice(ids)
    island = {start}
    frontier = [start]
    while frontier and len(island) < target:
        node = frontier.pop(0)
        for nbr in sorted(graph.neighbors(node)):
            if nbr not in island:
                island.add(nbr)
                frontier.append(nbr)
                if len(island) >= target:
                    break
    cut = sorted(
        link.key
        for link in graph.links(include_down=False)
        if (link.key[0] in island) != (link.key[1] in island)
    )
    if not cut:
        raise ValueError("partition island has no boundary links")
    events: List[FaultEvent] = [
        LinkFault(start_time, a, b, up=False) for a, b in cut
    ]
    events.extend(
        LinkFault(start_time + duration, a, b, up=True) for a, b in cut
    )
    return FaultPlan(tuple(events))


def lossy_period_plan(
    spec: Impairment,
    start_time: float = 100.0,
    duration: float = 400.0,
    link: Optional[Tuple[ADId, ADId]] = None,
) -> FaultPlan:
    """Apply an impairment for a bounded window, then restore ``PERFECT``.

    ``link=None`` impairs every link (the channel default); note the
    restore resets the affected scope to :data:`~repro.faults.channel.PERFECT`,
    not to whatever impairment preceded the window.
    """
    return FaultPlan(
        (
            ImpairmentChange(start_time, spec, link),
            ImpairmentChange(start_time + duration, PERFECT, link),
        )
    )
