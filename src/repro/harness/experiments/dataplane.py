"""The data plane under disruption: tails through a fault storm (E14),
and the two programs measured on both substrates -- rolling restarts
with partitions (E15) and a mixed-version rolling upgrade (E16)."""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.analysis.tables import Table
from repro.harness.experiments.common import (
    DESIGN_POINT_NAMES,
    Experiment,
    ablation_protocols,
    with_fidelity_footer,
)
from repro.harness.record import RunRecord
from repro.harness.spec import (
    ExperimentSpec,
    FaultSpec,
    ProtocolSpec,
    ScenarioSpec,
    TrafficSpec,
)

# --------------------------------------------------------------------------
# E14 -- Data-plane tail latency under convergence

#: Full-scale workload: a million flows through every design point's
#: compiled FIB at every convergence epoch of the storm.
DATAPLANE_FLOWS = 1_000_000
DATAPLANE_FLOWS_SMOKE = 20_000
DATAPLANE_PAIRS = 4096
DATAPLANE_PAIRS_SMOKE = 256


def _dataplane_fault(smoke: bool) -> FaultSpec:
    """An E11-style churn storm: link flaps then an AD crash/restart,
    probed (and FIB-snapshotted) every ``probe_interval``."""
    return FaultSpec(
        flaps=1 if smoke else 2,
        crashes=1,
        retain_state=False,
        seed=3,
        probe_interval=100.0 if smoke else 50.0,
        probe_flows=8,
        label="storm",
    )


def _dataplane_spec(smoke: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="dataplane_tail",
        scenarios=(ScenarioSpec(kind="reference", seed=5, num_flows=12),),
        protocols=tuple(
            ProtocolSpec(name)
            for name in (("ls-hbh", "orwg") if smoke else DESIGN_POINT_NAMES)
        ),
        faults=(_dataplane_fault(smoke),),
        traffics=(
            TrafficSpec(
                flows=DATAPLANE_FLOWS_SMOKE if smoke else DATAPLANE_FLOWS,
                zipf_s=1.1,
                pairs=DATAPLANE_PAIRS_SMOKE if smoke else DATAPLANE_PAIRS,
                seed=14,
            ),
        ),
    )


def _render_dataplane(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    num_ads = records[0].scenario["num_ads"]
    workload = records[0].dataplane["workload"]
    fault = spec.faults[0]
    table = Table(
        "protocol",
        "epochs",
        "gap0",
        "gap-worst",
        "gap-final",
        "out-p99",
        "out-p999",
        "lat-p99",
        "lat-p999",
        "str-p99",
        "fib-KB",
        title=(
            "E14: data-plane tails under convergence "
            f"({num_ads} ADs; {workload['flows']} zipf flows in "
            f"{workload['classes']} classes, s={workload['zipf_s']:g}; "
            f"{fault.flaps} flaps + {fault.crashes} crash, FIB recompiled "
            "at every probe epoch; gap = fraction of flows undelivered at "
            "the converged start / worst epoch / settled end, out-p99/999 "
            "= storm-long outage fraction of the unluckiest 1%/0.1% of "
            "flows, lat/str = delivered-flow latency and stretch tails at "
            "the worst-gap epoch, fib-KB = compiled state; '*' = event "
            "budget hit)"
        ),
    )
    for pi, protocol in enumerate(spec.protocols):
        rec = records[pi]
        block = rec.dataplane
        series = block["series"]
        epochs = series["epochs"]
        worst = max(epochs, key=lambda e: e["reach_gap"])
        star = "" if rec.quiesced else "*"
        table.add(
            protocol.display,
            len(epochs),
            f"{epochs[0]['reach_gap']:.3f}",
            f"{series['worst_gap']:.3f}{star}",
            f"{epochs[-1]['reach_gap']:.3f}",
            f"{series['outage_p99']:.3f}",
            f"{series['outage_p999']:.3f}",
            f"{worst['latency_p99']:.1f}",
            f"{worst['latency_p999']:.1f}",
            f"{worst['stretch_p99']:.2f}",
            f"{block['fib']['bytes'] / 1024:.0f}",
        )
    return table.render()


# --------------------------------------------------------------------------
# E15 -- Rolling restarts + partition chaos, both substrates

#: The E15 design points: both LS-family hop-by-hop points plus one
#: DV-family point per forwarding mode, each measured plain and with
#: graceful restart fully enabled.
LIVE_CHAOS_PROTOCOLS: Tuple[str, ...] = (
    "ls-hbh",
    "ls-hbh-topo",
    "idrp",
    "pv-src",
)
LIVE_CHAOS_FLOWS = 200_000
LIVE_CHAOS_FLOWS_SMOKE = 20_000
LIVE_CHAOS_PAIRS = 1024
LIVE_CHAOS_PAIRS_SMOKE = 256


def _live_chaos_fault(smoke: bool) -> FaultSpec:
    return FaultSpec(
        restarts=1 if smoke else 3,
        partitions=1,
        seed=15,
        start_time=100.0,
        spacing=400.0,
    )


def _live_chaos_spec(smoke: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="live_chaos",
        scenarios=(
            ScenarioSpec(kind="reference", seed=5, num_flows=12 if smoke else 24),
        ),
        protocols=ablation_protocols(
            ("ls-hbh",) if smoke else LIVE_CHAOS_PROTOCOLS,
            ("+gr", (("graceful", "all"),)),
        ),
        faults=(_live_chaos_fault(smoke),),
        traffics=(
            TrafficSpec(
                flows=LIVE_CHAOS_FLOWS_SMOKE if smoke else LIVE_CHAOS_FLOWS,
                zipf_s=1.1,
                pairs=LIVE_CHAOS_PAIRS_SMOKE if smoke else LIVE_CHAOS_PAIRS,
                seed=15,
            ),
        ),
        substrates=("sim", "live"),
    )


def _render_live_chaos(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    num_ads = records[0].scenario["num_ads"]
    fault = spec.faults[0]
    workload = records[0].dataplane["workload"]
    table = Table(
        "protocol",
        "substrate",
        "gr",
        "avail",
        "gap-worst",
        "out-p99",
        "out-p999",
        "msgs",
        "holds",
        "resyncs",
        "digest",
        title=(
            "E15: rolling-restart + partition chaos, both substrates "
            f"({num_ads} ADs; {fault.restarts} rolling AD restart(s) + "
            f"{fault.partitions} partition window(s); "
            f"{workload['flows']} zipf flows, s={workload['zipf_s']:g}; "
            "avail = mean control-plane routability while each chaos "
            "event is in force, gap-worst = worst-epoch fraction of "
            "flows undelivered, out-p99/999 = chaos-long outage of the "
            "unluckiest 1%/0.1% of flows, msgs = reconvergence messages "
            "across all chaos events, holds/resyncs = graceful-restart "
            "helper activity, digest = post-chaos routes fingerprint "
            "-- equal digests mean identical forwarding state)"
        ),
    )
    for rec in records:
        chaos = rec.chaos
        series = rec.dataplane["series"]
        gsum = chaos["graceful_summary"]
        table.add(
            rec.cell["label"],
            rec.cell["substrate"],
            chaos["graceful"],
            f"{chaos['availability']:.2f}",
            f"{series['worst_gap']:.3f}",
            f"{series['outage_p99']:.3f}",
            f"{series['outage_p999']:.3f}",
            sum(g["messages"] for g in chaos["groups"]),
            gsum["holds"],
            gsum["resyncs"],
            chaos["routes_digest"][:12],
        )
    return with_fidelity_footer(table.render(), records, "chaos", "post-chaos")


# --------------------------------------------------------------------------
# E16 -- Mixed-version rolling upgrade, both substrates

#: The E16 design points: both LS-family hop-by-hop points plus the
#: IDRP-style path-vector point, every AD starting at wire v1 with
#: negotiation on (the population the rolling upgrade sweeps to the
#: current version).
MIXED_VERSION_PROTOCOLS: Tuple[str, ...] = (
    "ls-hbh",
    "ls-hbh-topo",
    "idrp",
)


def _mixed_version_protocols(smoke: bool) -> Tuple[ProtocolSpec, ...]:
    names = ("ls-hbh",) if smoke else MIXED_VERSION_PROTOCOLS
    return tuple(
        ProtocolSpec(name, options=(("wire", "v1+negotiate"),))
        for name in names
    )


def _mixed_version_fault(smoke: bool) -> FaultSpec:
    return FaultSpec(
        upgrade_waves=2 if smoke else 4,
        rollback=not smoke,
        seed=16,
    )


def _mixed_version_spec(smoke: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="mixed_version",
        scenarios=(
            ScenarioSpec(kind="reference", seed=5, num_flows=12 if smoke else 24),
        ),
        protocols=_mixed_version_protocols(smoke),
        faults=(_mixed_version_fault(smoke),),
        traffics=(
            TrafficSpec(
                flows=LIVE_CHAOS_FLOWS_SMOKE if smoke else LIVE_CHAOS_FLOWS,
                zipf_s=1.1,
                pairs=LIVE_CHAOS_PAIRS_SMOKE if smoke else LIVE_CHAOS_PAIRS,
                seed=16,
            ),
        ),
        substrates=("sim", "live"),
    )


def _render_version_skew(
    spec: ExperimentSpec, records: Sequence[RunRecord]
) -> str:
    from repro.simul.wire import WIRE_VERSION

    num_ads = records[0].scenario["num_ads"]
    fault = spec.faults[0]
    workload = records[0].dataplane["workload"]
    table = Table(
        "protocol",
        "substrate",
        "waves",
        "upg-msgs",
        "gap-worst",
        "out-p99",
        "pairs",
        "rejected",
        "stable",
        "digest",
        title=(
            "E16: mixed-version rolling upgrade, both substrates "
            f"({num_ads} ADs; wire v1 -> v{WIRE_VERSION} in "
            f"{fault.upgrade_waves} wave(s)"
            + (" + rollback leg" if fault.rollback else "")
            + f"; {workload['flows']} zipf flows, s={workload['zipf_s']:g}; "
            "upg-msgs = reconvergence messages across all waves, "
            "gap-worst = worst-epoch fraction of flows undelivered, "
            "out-p99 = sweep-long outage of the unluckiest 1% of flows, "
            "pairs = negotiated per-neighbour wire versions after the "
            "sweep, rejected = frames refused for unsupported versions, "
            "stable = routes digest matched the pre-upgrade baseline "
            "after every wave -- the upgrade was invisible to routing)"
        ),
    )
    for rec in records:
        v = rec.versioning
        series = rec.dataplane["series"]
        pairs = ",".join(
            f"{k}:{n}"
            for k, n in sorted(v["negotiation"]["pairs"].items())
        )
        table.add(
            rec.cell["label"],
            rec.cell["substrate"],
            len(v["waves"]),
            sum(w["messages"] for w in v["waves"]),
            f"{series['worst_gap']:.3f}",
            f"{series['outage_p99']:.3f}",
            pairs or "-",
            v["version_rejected"],
            "yes" if v["digest_stable"] else "NO",
            v["routes_digest"][:12],
        )
    return with_fidelity_footer(
        table.render(), records, "versioning", "post-upgrade"
    )


ENTRIES: Tuple[Experiment, ...] = (
    Experiment(
        name="dataplane_tail",
        eid="E14",
        description="Data-plane tail latency under convergence",
        build_spec=_dataplane_spec,
        render=_render_dataplane,
    ),
    Experiment(
        name="live_chaos",
        eid="E15",
        description="Rolling-restart + partition chaos, both substrates",
        build_spec=_live_chaos_spec,
        render=_render_live_chaos,
    ),
    Experiment(
        name="mixed_version",
        eid="E16",
        description="Mixed-version rolling upgrade, both substrates",
        build_spec=_mixed_version_spec,
        render=_render_version_skew,
        table="version_skew",
    ),
)
