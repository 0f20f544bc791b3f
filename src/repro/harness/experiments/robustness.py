"""Robustness: loss and churn (E11), one misbehaving AD (E12) and a
churn storm through bounded ingress queues (E13), every design point
plain and with its defence on."""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.analysis.tables import Table
from repro.harness.experiments.common import (
    DESIGN_POINT_NAMES,
    Experiment,
    ablation_protocols,
)
from repro.harness.record import RunRecord
from repro.harness.spec import (
    ExperimentSpec,
    FaultSpec,
    MisbehaviorSpec,
    ScenarioSpec,
)

# --------------------------------------------------------------------------
# E11 -- Robustness under loss and churn

#: Loss levels of the sweep (the lossy points also jitter and duplicate).
ROBUSTNESS_LOSSES: Tuple[float, ...] = (0.0, 0.05, 0.2)
ROBUSTNESS_LOSSES_SMOKE: Tuple[float, ...] = (0.0, 0.05)


def _robustness_fault(loss: float, smoke: bool) -> FaultSpec:
    label = "clean" if loss == 0 else f"{loss:.0%} loss"
    return FaultSpec(
        loss=loss,
        dup=0.01 if loss > 0 else 0.0,
        jitter=2.0 if loss > 0 else 0.0,
        flaps=1 if smoke else 2,
        crashes=1,
        retain_state=False,
        seed=3,
        label=label,
    )


def _robustness_spec(smoke: bool) -> ExperimentSpec:
    losses = ROBUSTNESS_LOSSES_SMOKE if smoke else ROBUSTNESS_LOSSES
    return ExperimentSpec(
        name="robustness",
        scenarios=(
            ScenarioSpec(kind="reference", seed=5, num_flows=12 if smoke else 24),
        ),
        # Every design point, plain and fully hardened (the ablation pair).
        protocols=ablation_protocols(
            ("ls-hbh", "orwg") if smoke else DESIGN_POINT_NAMES,
            ("+h", (("hardening", "all"),)),
        ),
        faults=tuple(_robustness_fault(loss, smoke) for loss in losses),
        evaluate=True,
    )


def _render_robustness(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    num_ads = records[0].scenario["num_ads"]
    fault = spec.faults[0]
    columns = ["protocol"]
    for f in spec.faults:
        columns += [f"{f.display} avail", f"{f.display} ok%", f"{f.display} ttr"]
    table = Table(
        *columns,
        title=(
            "E11: robustness under loss and churn "
            f"({num_ads} ADs; {fault.flaps} link flaps + {fault.crashes} AD "
            "crash/restart, state lost; avail = legal routes found after "
            "repair, ok% = probed data-plane reachability during churn, "
            "ttr = mean time-to-repair; '*' = event budget hit)"
        ),
    )
    n_faults = len(spec.faults)
    for pi, protocol in enumerate(spec.protocols):
        row = [protocol.display]
        for fi in range(n_faults):
            rec = records[pi * n_faults + fi]
            star = "" if rec.quiesced else "*"
            row.append(f"{rec.route_quality['availability']:.2f}{star}")
            row.append(f"{100 * rec.robustness['availability']:.0f}")
            row.append(f"{rec.robustness['mean_ttr']:.0f}")
        table.add(*row)
    return table.render()


# --------------------------------------------------------------------------
# E13 -- Control-plane overload under a churn storm

#: Churn-storm flap frequencies (cycles per time unit, per flapped link).
CHURN_RATES: Tuple[float, ...] = (0.1, 0.25)
CHURN_RATES_SMOKE: Tuple[float, ...] = (0.25,)
#: Bounded ingress-queue capacities of the sweep.
CHURN_QUEUES: Tuple[int, ...] = (4, 32)
CHURN_QUEUES_SMOKE: Tuple[int, ...] = (4,)

#: Event budget for E13 cells: deliberately tight (initial convergence
#: needs at most ~23k events on the reference internet), so a protocol
#: that cannot quench the storm *measurably* melts down (hits the
#: limit) instead of burning minutes proving the same thing at 5M
#: events.
CHURN_MAX_EVENTS = 60_000


def _churn_fault(hz: float, capacity: int, smoke: bool) -> FaultSpec:
    return FaultSpec(
        churn_hz=hz,
        churn_links=2 if smoke else 6,
        churn_duration=120.0 if smoke else 240.0,
        queue_capacity=capacity,
        seed=7,
        start_time=50.0,
        spacing=100.0,
        probe_interval=20.0,
        probe_flows=12 if smoke else 24,
        label=f"{hz:g}Hz/q{capacity}",
    )


def _churn_spec(smoke: bool) -> ExperimentSpec:
    rates = CHURN_RATES_SMOKE if smoke else CHURN_RATES
    queues = CHURN_QUEUES_SMOKE if smoke else CHURN_QUEUES
    return ExperimentSpec(
        name="robustness_churn",
        scenarios=(
            ScenarioSpec(kind="reference", seed=5, num_flows=12 if smoke else 24),
        ),
        # Every design point raw, hardened, and paced+damped (the triple).
        protocols=ablation_protocols(
            ("ls-hbh", "orwg") if smoke else DESIGN_POINT_NAMES,
            ("+h", (("hardening", "all"),)),
            ("+pd", (("hardening", "all"), ("pacing", "all"))),
        ),
        faults=tuple(
            _churn_fault(hz, capacity, smoke)
            for hz in rates
            for capacity in queues
        ),
        evaluate=True,
        max_events=CHURN_MAX_EVENTS,
    )


def _render_churn(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    num_ads = records[0].scenario["num_ads"]
    fault = spec.faults[0]
    table = Table(
        "protocol",
        "storm",
        "avail",
        "ok%",
        "ttr",
        "peakq",
        "drops",
        "sup",
        "paced",
        "duty",
        title=(
            "E13: control-plane overload under a churn storm "
            f"({num_ads} ADs; {fault.churn_links} lateral links flapping "
            "concurrently through a bounded ingress queue; avail = legal "
            "routes found after the storm, ok% = probed reachability during "
            "it, ttr = mean time-to-repair, peakq/drops = worst queue depth "
            "and overflow drops, sup = damped announcements, paced = "
            "deferred update batches, duty = mean ingress service duty "
            "cycle; '*' = event budget hit, i.e. the storm was never "
            "quenched)"
        ),
    )
    n_faults = len(spec.faults)
    for pi, protocol in enumerate(spec.protocols):
        for fi, fault in enumerate(spec.faults):
            rec = records[pi * n_faults + fi]
            star = "" if rec.quiesced else "*"
            overload = rec.overload or {}
            table.add(
                protocol.display,
                fault.display,
                f"{rec.route_quality['availability']:.2f}{star}",
                f"{100 * rec.robustness['availability']:.0f}",
                f"{rec.robustness['mean_ttr']:.0f}",
                overload.get("peak_depth", "-"),
                overload.get("dropped", "-"),
                overload.get("suppressed_announcements", 0)
                + overload.get("suppressions", 0),
                overload.get("paced_deferrals", 0),
                f"{overload.get('duty_cycle', 0.0):.2f}",
            )
    return table.render()


# --------------------------------------------------------------------------
# E12 -- Misbehaving-AD blast radius and containment

#: The factored lie grid: the role axis is swept for the canonical route
#: leak; every other lie is told by the backbone (the worst-placed liar).
#: A full roles x lies cross would quadruple the grid for rows that only
#: repeat the role effect the leak sweep already shows.
MISBEHAVIOR_LIE_SWEEP: Tuple[str, ...] = (
    "bogus-origin",
    "stale-replay",
    "metric-lie",
    "term-forgery",
)


def _misbehavior_points(smoke: bool) -> Tuple[MisbehaviorSpec, ...]:
    baseline = MisbehaviorSpec(label="baseline")
    leak_backbone = MisbehaviorSpec(lie="route-leak", liar_role="backbone")
    if smoke:
        return (baseline, leak_backbone)
    points = [baseline]
    for role in ("stub", "regional", "backbone"):
        points.append(MisbehaviorSpec(lie="route-leak", liar_role=role))
    for lie in MISBEHAVIOR_LIE_SWEEP:
        points.append(MisbehaviorSpec(lie=lie, liar_role="backbone"))
    return tuple(points)


def _misbehavior_spec(smoke: bool) -> ExperimentSpec:
    # Restrictiveness 0.5 gives the top-degree backbone a genuinely
    # restrictive registered policy, so a route leak has something to
    # leak: flows that legally detour (or are unroutable) divert through
    # the liar once it forges an open term.
    return ExperimentSpec(
        name="robustness_misbehavior",
        scenarios=(
            ScenarioSpec(
                kind="reference", seed=11, num_flows=24, restrictiveness=0.5
            ),
        ),
        # Every design point, plain and validating (the containment pair).
        protocols=ablation_protocols(
            ("ls-hbh", "orwg") if smoke else DESIGN_POINT_NAMES,
            ("+v", (("validation", "all"),)),
        ),
        misbehaviors=_misbehavior_points(smoke),
    )


def _render_misbehavior(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    num_ads = records[0].scenario["num_ads"]
    table = Table(
        "protocol",
        "lie",
        "liar",
        "told",
        "peak",
        "steady",
        "poisoned",
        "contain",
        "viol",
        "quar",
        "false-q",
        title=(
            "E12: single misbehaving AD -- blast radius and containment "
            f"({num_ads} ADs; told = lie expressible at this design point; "
            "peak/steady = probed flows hijacked or newly broken, at worst "
            "and at end; poisoned = source ADs left holding a route through "
            "the liar; contain = time from lie to a lasting zero blast; "
            "'-' = no validation state, 'never' = blast outlasted the run)"
        ),
    )
    n_mis = len(spec.misbehaviors)
    for pi, protocol in enumerate(spec.protocols):
        for mi, point in enumerate(spec.misbehaviors):
            rec = records[pi * n_mis + mi]
            block = rec.misbehavior
            if block is None:
                table.add(protocol.display, point.display, *["-"] * 9)
                continue
            counters = block["counters"]
            if not point.active:
                told, peak, steady, poisoned, contain = "-", "-", "-", "-", "-"
            else:
                told = "yes" if block["applied"] else "no"
                peak, steady = block["peak_blast"], block["steady_blast"]
                poisoned = block["ads_poisoned"]
                latency = block["containment_latency"]
                if not block["applied"]:
                    contain = "-"
                elif latency is None:
                    contain = "never"
                else:
                    contain = f"{latency:.0f}"
            table.add(
                protocol.display,
                point.display,
                "-" if block["liar"] is None else block["liar"],
                told,
                peak,
                steady,
                poisoned,
                contain,
                counters["violations"],
                counters["quarantines"],
                counters["false_quarantines"],
            )
    return table.render()


ENTRIES: Tuple[Experiment, ...] = (
    Experiment(
        name="robustness",
        eid="E11",
        description="Robustness under message loss and churn",
        build_spec=_robustness_spec,
        render=_render_robustness,
    ),
    Experiment(
        name="robustness_misbehavior",
        eid="E12",
        description="Misbehaving-AD blast radius and containment",
        build_spec=_misbehavior_spec,
        render=_render_misbehavior,
    ),
    Experiment(
        name="robustness_churn",
        eid="E13",
        description="Control-plane overload under a churn storm",
        build_spec=_churn_spec,
        render=_render_churn,
    ),
)
