"""The fault-plan DSL: link churn, AD crash/restart, wire-version flips.

A :class:`FaultPlan` is the one plan type every driver runs: a
time-ordered sequence of three event kinds.

* :class:`LinkFault` -- one inter-AD link fails or is repaired.  Section
  2.2 of the paper assumes ADs keep themselves internally connected but
  that inter-AD links do fail, so the protocols "must be somewhat
  adaptive to changes in inter-AD topology";
* :class:`NodeFault` -- an AD's routing process crashes (all incident
  links drop and the node goes silent) and later restarts, either
  retaining its RIB/LSDB (``retain_state=True``: a gateway whose
  interfaces bounced) or losing it (``retain_state=False``: the process
  is replaced wholesale and must relearn the internet);
* :class:`WireVersionChange` -- one AD's wire version flips (the E16
  rolling-upgrade waves).

Channel impairment is not an event: a cell's channel is set once, at
t=0, from :meth:`FaultSpec.impairment
<repro.harness.spec.FaultSpec.impairment>`.

Event times are **relative**: :meth:`RoutingProtocol.schedule_fault_plan
<repro.protocols.base.RoutingProtocol.schedule_fault_plan>` offsets them
from the moment the plan is scheduled, so a plan composed for "100 time
units after initial convergence" works no matter how long convergence
took (absolute times would race slow protocols into "cannot schedule
into the past").

Generators draw from a seeded ``random.Random`` and validate feasibility
loudly (never silently shrinking the plan): failures and flaps come from
non-bridge links, crashes from non-articulation-point ADs, so the
internet minus the faulted element stays connected and repair is
measurable.  The convergence experiments (E4) fail links from
:func:`random_failure_plan` and partition stubs with
:func:`stub_partition_plan`, one settled episode per event.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple, Union

from repro.adgraph.ad import ADId, LinkKind
from repro.adgraph.graph import InterADGraph


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
class WireVersionChange:
    """One AD's wire version flips: a rolling upgrade or rollback (E16).

    On the live substrate the flip also bounces the AD's serve task --
    a binary upgrade restarts the process.
    """

    time: float
    ad: ADId
    version: int


FaultEvent = Union[LinkFault, NodeFault, WireVersionChange]


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


def safe_failure_candidates(graph: InterADGraph) -> List[Tuple[ADId, ADId]]:
    """Links whose individual failure leaves the internet connected.

    Convergence experiments fail one link at a time and expect the
    protocols to find alternate routes; failing a cut link would instead
    measure partition behaviour, so candidates exclude bridges.
    """
    bridges, _ = graph.cut_points()
    return [ln.key for ln in graph.links(include_down=False) if ln.key not in bridges]


def random_failure_plan(
    graph: InterADGraph,
    count: int = 1,
    start_time: float = 100.0,
    spacing: float = 500.0,
    repair: bool = False,
    seed: int = 0,
) -> FaultPlan:
    """Build a plan failing ``count`` random non-bridge links.

    Failures are spaced ``spacing`` time units apart so each reconvergence
    can be measured in isolation.  With ``repair=True`` every failure is
    followed by a repair half a spacing later, so candidacy is judged
    once against the intact graph; without repairs the failures
    accumulate and candidacy is recomputed after each pick.

    Args:
        graph: Topology to draw links from.
        count: Number of links to fail.
        start_time: Time of the first failure.
        spacing: Gap between consecutive failures.
        repair: Whether to schedule repairs.
        seed: RNG seed.
    """
    rng = random.Random(seed)
    if repair:
        candidates = safe_failure_candidates(graph)
        if len(candidates) < count:
            raise ValueError(
                f"only {len(candidates)} safe candidate links, need {count}"
            )
        chosen = rng.sample(candidates, count)
    else:
        # Without repairs the failures accumulate, so bridge candidacy
        # must be recomputed against the already-failed topology: a link
        # that is safe in the intact graph can become the last remaining
        # path once earlier picks are down.
        scratch = graph.copy()
        chosen = []
        for _ in range(count):
            pool = safe_failure_candidates(scratch)
            if not pool:
                raise ValueError(
                    f"no safe candidate links left after "
                    f"{len(chosen)} accumulated failures, need {count}"
                )
            key = rng.choice(pool)
            chosen.append(key)
            scratch.set_link_status(*key, False)
    events: List[FaultEvent] = []
    t = start_time
    for a, b in chosen:
        events.append(LinkFault(t, a, b, up=False))
        if repair:
            events.append(LinkFault(t + spacing / 2.0, a, b, up=True))
        t += spacing
    return FaultPlan(tuple(events))


def stub_partition_plan(
    graph: InterADGraph,
    count: int = 1,
    start_time: float = 100.0,
    spacing: float = 500.0,
) -> FaultPlan:
    """Fail (and repair) the single access link of ``count`` stub ADs.

    Each failure partitions one singly-homed stub from the rest of the
    internet -- the event class where naive DV counts to infinity (E4's
    "partition" events).  The repair follows half a spacing later so each
    partition is measured in isolation.
    """
    events: List[FaultEvent] = []
    t = start_time
    stubs = [a for a in graph.stub_ads() if graph.degree(a.ad_id) == 1]
    if len(stubs) < count:
        raise ValueError(
            f"only {len(stubs)} singly-homed stub ADs, need {count}"
        )
    for ad in stubs[:count]:
        link = graph.links_of(ad.ad_id)[0]
        events.append(LinkFault(t, link.a, link.b, up=False))
        events.append(LinkFault(t + spacing / 2.0, link.a, link.b, up=True))
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
    all links in phase.  Unlike :func:`random_failure_plan` with
    ``repair=True`` the flaps overlap rather than occupying separate
    windows, so update load accumulates -- this is the workload that
    overflows bounded ingress queues and that flap damping is designed
    to quench.

    Candidates are the non-bridge links, *preferring* lateral/bypass
    links (the paper's redundancy links): flapping those stresses
    alternate-path selection everywhere without partitioning anyone.
    Hierarchical links are used only when there are not enough.
    """
    # An infinite hz (a zero period) or duration never ends the flap loop
    # below, and a NaN one schedules flaps at NaN times.
    if not (0 < hz < math.inf):
        raise ValueError("churn frequency must be finite and > 0")
    if not (0 < duration < math.inf):
        raise ValueError("churn duration must be finite and > 0")
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
    _, cut = graph.cut_points()
    return [ad_id for ad_id in graph.ad_ids() if ad_id not in cut]


def ad_crash_plan(
    graph: InterADGraph,
    crashes: int = 1,
    retain_state: bool = False,
    start_time: float = 100.0,
    spacing: float = 400.0,
    seed: int = 0,
) -> FaultPlan:
    """Crash-and-restart ``crashes`` random non-articulation-point ADs.

    Each AD is down for half a ``spacing`` window.
    """
    rng = random.Random(seed)
    candidates = crash_candidates(graph)
    if len(candidates) < crashes:
        raise ValueError(
            f"only {len(candidates)} crash-safe ADs, need {crashes}"
        )
    chosen = rng.sample(candidates, crashes)
    events: List[FaultEvent] = []
    t = start_time
    for ad_id in chosen:
        events.append(NodeFault(t, ad_id, up=False, retain_state=retain_state))
        events.append(
            NodeFault(t + spacing / 2.0, ad_id, up=True, retain_state=retain_state)
        )
        t += spacing
    return FaultPlan(tuple(events))


#: Share of the ADs a :func:`partition_plan` island holds.
PARTITION_FRACTION = 0.3


def partition_plan(
    graph: InterADGraph,
    start_time: float = 100.0,
    duration: float = 200.0,
    seed: int = 0,
) -> FaultPlan:
    """Partition the internet for a bounded window, then heal it.

    A seeded BFS from a random AD grows a connected island of roughly
    ``PARTITION_FRACTION`` of the ADs; every link crossing the island
    boundary goes down at ``start_time`` and comes back at
    ``start_time + duration``.  Unlike the flap/crash generators this *deliberately*
    disconnects the internet -- partition behaviour is the thing being
    measured -- so candidates are not restricted to non-bridges.
    """
    if duration <= 0:
        raise ValueError("partition duration must be > 0")
    rng = random.Random(seed)
    ids = sorted(graph.ad_ids())
    if len(ids) < 2:
        raise ValueError("cannot partition a single-AD internet")
    target = max(1, int(len(ids) * PARTITION_FRACTION))
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
