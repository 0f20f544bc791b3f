"""The measured design space: Table 1 (E1), route availability (E3),
reconvergence (E4) and scaling (E7), each one grid of harness cells."""

from __future__ import annotations

import time
from typing import Dict, Sequence, Tuple

from repro.analysis.tables import Table
from repro.harness.experiments.common import DESIGN_POINT_NAMES, Experiment
from repro.harness.record import RunRecord
from repro.harness.spec import (
    ExperimentSpec,
    FailureSpec,
    ProtocolSpec,
    ScenarioSpec,
)

# --------------------------------------------------------------------------
# E1 -- Table 1, measured


def _table1_spec(smoke: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="table1_design_space",
        scenarios=(
            ScenarioSpec(kind="reference", seed=1, num_flows=12 if smoke else 40),
        ),
        protocols=tuple(ProtocolSpec(name) for name in DESIGN_POINT_NAMES),
        evaluate=True,
    )


def _render_table1(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    from repro.core.scorecard import render_scorecard, score_rows_from_records

    return render_scorecard(score_rows_from_records(records))


# --------------------------------------------------------------------------
# E7 -- Scaling with internet size

SCALING_SIZES: Tuple[int, ...] = (25, 50, 100, 200, 400)
SCALING_SIZES_SMOKE: Tuple[int, ...] = (25, 50)
SCALING_PROTOCOLS: Tuple[str, ...] = ("idrp", "ecma", "orwg")


def _scaling_spec(smoke: bool) -> ExperimentSpec:
    sizes = SCALING_SIZES_SMOKE if smoke else SCALING_SIZES
    return ExperimentSpec(
        name="scaling",
        scenarios=tuple(
            ScenarioSpec(
                kind="scaled",
                target_ads=size,
                seed=41,
                num_flows=40,
                restrictiveness=0.2,
            )
            for size in sizes
        ),
        protocols=tuple(ProtocolSpec(name) for name in SCALING_PROTOCOLS),
    )


def synthesis_stats(scenario) -> Dict[str, float]:
    """Per-route synthesis cost over a scenario's flow sample.

    The ``ms_per_route`` figure is wall-clock (masked by
    ``check_determinism.py``); ``states_per_route`` is deterministic.
    """
    from repro.core.synthesis import RouteSynthesizer

    syn = RouteSynthesizer(scenario.graph, scenario.policies)
    t0 = time.perf_counter()
    found = sum(syn.route(f) is not None for f in scenario.flows)
    elapsed = (time.perf_counter() - t0) / max(1, len(scenario.flows))
    return dict(
        found=found,
        states_per_route=syn.stats.states_expanded / max(1, syn.stats.dijkstra_runs),
        ms_per_route=elapsed * 1000,
    )


def _render_scaling(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    table = Table(
        "ADs",
        "links",
        "PTs",
        "idrp msgs",
        "idrp KB",
        "ecma msgs",
        "ecma KB",
        "orwg msgs",
        "orwg KB",
        "orwg max RIB",
        "synth states/route",
        "synth ms/route",
        title="E7: growth with internet size (shape-preserving topologies)",
    )
    n_protocols = len(spec.protocols)
    for si, scenario_spec in enumerate(spec.scenarios):
        group = {
            rec.cell["protocol"]: rec
            for rec in records[si * n_protocols : (si + 1) * n_protocols]
        }
        idrp, ecma, orwg = group["idrp"], group["ecma"], group["orwg"]
        syn = synthesis_stats(scenario_spec.build())
        table.add(
            idrp.scenario["num_ads"],
            idrp.scenario["num_links"],
            idrp.scenario["num_terms"],
            idrp.initial.messages,
            f"{idrp.initial.bytes / 1024:.0f}",
            ecma.initial.messages,
            f"{ecma.initial.bytes / 1024:.0f}",
            orwg.initial.messages,
            f"{orwg.initial.bytes / 1024:.0f}",
            orwg.state["max_rib"],
            f"{syn['states_per_route']:.0f}",
            f"{syn['ms_per_route']:.2f}",
        )
    return table.render()


# --------------------------------------------------------------------------
# E4 -- Reconvergence after failures

CONVERGENCE_CONTENDERS: Tuple[ProtocolSpec, ...] = (
    ProtocolSpec("naive-dv", label="naive-dv(inf=16)", options=(("infinity", 16),)),
    ProtocolSpec("naive-dv", label="naive-dv(inf=64)", options=(("infinity", 64),)),
    ProtocolSpec("ecma", label="ecma(1 qos)", options=(("qos_classes", ("default",)),)),
    ProtocolSpec("idrp"),
    ProtocolSpec("plain-ls"),
    ProtocolSpec("orwg"),
)


def _convergence_spec(smoke: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="convergence",
        scenarios=(ScenarioSpec(kind="reference", seed=17),),
        protocols=CONVERGENCE_CONTENDERS,
        failures=(
            FailureSpec(
                kind="random",
                count=2 if smoke else 5,
                repair=True,
                seed=17,
                label="reroute",
            ),
            FailureSpec(
                kind="stub_partition", count=2 if smoke else 4, label="partition"
            ),
        ),
    )


def episode_cost(record: RunRecord) -> Dict[str, float]:
    """Mean/max per-event reconvergence cost over a record's episodes."""
    msgs = [ep.messages for ep in record.failure_episodes]
    times = [ep.time for ep in record.failure_episodes]
    return dict(
        initial=record.initial.messages,
        mean_msgs=sum(msgs) / len(msgs),
        max_msgs=max(msgs),
        mean_time=sum(times) / len(times),
    )


def _render_convergence(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    num_ads = records[0].scenario["num_ads"]
    table = Table(
        "protocol",
        "initial msgs",
        "reroute msgs/event",
        "partition msgs/event",
        "partition max",
        "partition time",
        title=(
            "E4: reconvergence cost per topology event "
            f"({num_ads} ADs; reroute vs partition events)"
        ),
    )
    n_failures = len(spec.failures)
    for pi, protocol in enumerate(spec.protocols):
        r = episode_cost(records[pi * n_failures])
        p = episode_cost(records[pi * n_failures + 1])
        table.add(
            protocol.display,
            r["initial"],
            f"{r['mean_msgs']:.0f}",
            f"{p['mean_msgs']:.0f}",
            p["max_msgs"],
            f"{p['mean_time']:.0f}",
        )
    return table.render()


# --------------------------------------------------------------------------
# E3 -- Route availability vs policy restrictiveness

AVAILABILITY_PROTOCOLS: Tuple[str, ...] = (
    "naive-dv",
    "ecma",
    "bgp2",
    "idrp",
    "ls-hbh",
    "orwg",
)
AVAILABILITY_RESTRICTIVENESS: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6)
AVAILABILITY_RESTRICTIVENESS_SMOKE: Tuple[float, ...] = (0.0, 0.4)


def _availability_spec(smoke: bool) -> ExperimentSpec:
    sweep = (
        AVAILABILITY_RESTRICTIVENESS_SMOKE if smoke else AVAILABILITY_RESTRICTIVENESS
    )
    topology = (
        ("num_backbones", 2),
        ("regionals_per_backbone", 4),
        ("campuses_per_parent", 4),
        ("seed", 9),
    )
    return ExperimentSpec(
        name="availability",
        scenarios=tuple(
            ScenarioSpec(
                kind="custom",
                seed=9,
                topology=topology,
                restrictiveness=r,
                policy_seed=9,
                flows_seed=10,
                num_flows=16 if smoke else 40,
            )
            for r in sweep
        ),
        protocols=tuple(ProtocolSpec(name) for name in AVAILABILITY_PROTOCOLS),
        evaluate=True,
    )


def _render_availability(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    sweep = [s.restrictiveness for s in spec.scenarios]
    num_flows = spec.scenarios[0].num_flows
    avail = Table(
        "protocol",
        *[f"r={r:.1f}" for r in sweep],
        title="E3a: route availability (found legal / existing legal)",
    )
    illegal = Table(
        "protocol",
        *[f"r={r:.1f}" for r in sweep],
        title=f"E3b: illegal routes produced (of {num_flows} flows)",
    )
    n_protocols = len(spec.protocols)
    for pi, protocol in enumerate(spec.protocols):
        row_a, row_i = [], []
        for si in range(len(spec.scenarios)):
            quality = records[si * n_protocols + pi].route_quality
            row_a.append(f"{quality['availability']:.2f}")
            row_i.append(quality["n_illegal"])
        avail.add(protocol.display, *row_a)
        illegal.add(protocol.display, *row_i)
    return avail.render() + "\n\n" + illegal.render()


ENTRIES: Tuple[Experiment, ...] = (
    Experiment(
        name="table1_design_space",
        eid="E1",
        description="Table 1 measured across all 8 design points",
        build_spec=_table1_spec,
        render=_render_table1,
    ),
    Experiment(
        name="availability",
        eid="E3",
        description="Route availability vs policy restrictiveness",
        build_spec=_availability_spec,
        render=_render_availability,
    ),
    Experiment(
        name="convergence",
        eid="E4",
        description="Reconvergence after failures (count-to-infinity)",
        build_spec=_convergence_spec,
        render=_render_convergence,
    ),
    Experiment(
        name="scaling",
        eid="E7",
        description="Scaling with internet size",
        build_spec=_scaling_spec,
        render=_render_scaling,
    ),
)
