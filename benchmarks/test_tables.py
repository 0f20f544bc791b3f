"""The table gate: every committed table, regenerated and shape-checked.

One test per entry of the experiment registry
(:data:`repro.harness.EXPERIMENTS`): it runs the entry at full size
through :func:`repro.harness.write_table`, which writes
``benchmarks/out/<table>.txt`` (cell telemetry under
``benchmarks/out/runs/``), then asserts the shape of the result -- the
paper's claim the table stands for.  A cell entry's check reads its
:class:`~repro.harness.record.RunRecord` list, a cell-less entry's the
values its table was built from.  ``benchmarks/check_determinism.py``
then diffs the written tables against a git ref.

Run (the live E15/E16 rows take most of the ~15 minutes)::

    PYTHONPATH=src python -m pytest benchmarks/test_tables.py -q
    python benchmarks/check_determinism.py --baseline-ref HEAD
"""

from __future__ import annotations

import os
import random

import pytest

from repro.adgraph.ad import LinkKind
from repro.adgraph.partial_order import order_from_constraints
from repro.core.scorecard import score_rows_from_records
from repro.harness import EXPERIMENTS, write_table
from repro.harness.experiments.analysis import FIG1_BASE, fig1_compose
from repro.harness.experiments.design_space import SCALING_SIZES, episode_cost
from repro.harness.experiments.mechanisms import (
    GRANULARITY_CLASSES,
    SETUP_ZIPF_SKEWS,
)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Worker processes per cell entry; the merge is deterministic, so the
#: tables do not depend on it.
JOBS = 2

CHECKS = {}


def check(name):
    """Register the shape check of registry entry ``name``."""

    def register(fn):
        CHECKS[name] = fn
        return fn

    return register


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_table(name):
    spec, measured, text = write_table(name, OUT_DIR, jobs=JOBS)
    print(f"\n{text}\n[written to {EXPERIMENTS[name].table_file}]")
    CHECKS[name](spec, measured)


def test_every_entry_has_a_check():
    assert set(CHECKS) == set(EXPERIMENTS)


# --------------------------------------------------------------------------
# E1 -- Table 1, measured (Table 1 and the Section 5 per-point analyses)


@check("table1_design_space")
def check_table1(spec, records):
    rows = score_rows_from_records(records)
    by_label = {r.point.label: r for r in rows}
    # Every run must have actually quiesced for the numbers to mean anything.
    assert all(r.quiesced for r in records)
    # The paper's conclusion must hold in the measurement.
    orwg = by_label["LS/Src/PT"]
    assert orwg.availability == 1.0
    assert orwg.illegal_routes == 0
    assert orwg.source_control
    # Topology-expressed policy leaks illegal routes (expressiveness gap).
    assert by_label["DV/HbH/Topo"].illegal_routes > 0
    # Path vector is conservative: legal but starved.
    assert by_label["DV/HbH/PT"].availability < 1.0


# --------------------------------------------------------------------------
# E2 -- Figure 1, regenerated


@check("fig1_topology")
def check_fig1(spec, measured):
    assert all(measured["connected"])


def test_fig1_exception_links_persist():
    """The paper's point: lateral/bypass links persist at all densities >0
    and the pure hierarchy is a tree."""
    pure = fig1_compose(0.0, 0.0, 0.0)
    # Pure hierarchy: one hierarchical link per non-backbone AD, plus the
    # full backbone mesh.
    nb = FIG1_BASE["num_backbones"]
    assert pure.num_links == (pure.num_ads - nb) + nb * (nb - 1) // 2
    augmented = fig1_compose(0.3, 0.1, 0.15)
    kinds = augmented.link_kind_counts()
    assert kinds[LinkKind.LATERAL] >= 1
    assert augmented.num_links > augmented.num_ads - 1


# --------------------------------------------------------------------------
# E3 -- Route availability vs. policy restrictiveness (Sections 5.1-5.4)


@check("availability")
def check_availability(spec, records):
    n_protocols = len(spec.protocols)
    results = {}
    for si, scenario in enumerate(spec.scenarios):
        for pi, protocol in enumerate(spec.protocols):
            record = records[si * n_protocols + pi]
            results[(protocol.display, scenario.restrictiveness)] = (
                record.route_quality
            )
    sweep = [s.restrictiveness for s in spec.scenarios]

    # Shape assertions (who wins, and where the gap opens).
    for r in sweep:
        assert results[("orwg", r)]["availability"] == 1.0
        assert results[("ls-hbh", r)]["availability"] == 1.0
        assert results[("orwg", r)]["n_illegal"] == 0
    hard = sweep[-1]
    assert results[("idrp", hard)]["availability"] < 1.0
    assert (
        results[("bgp2", hard)]["availability"]
        <= results[("idrp", hard)]["availability"]
    )
    assert results[("naive-dv", hard)]["n_illegal"] > 0


# --------------------------------------------------------------------------
# E4 -- Convergence after topology change (Sections 4.3 and 5.1.1)


@check("convergence")
def check_convergence(spec, records):
    n_failures = len(spec.failures)
    stats = {
        p.display: (
            episode_cost(records[pi * n_failures]),
            episode_cost(records[pi * n_failures + 1]),
        )
        for pi, p in enumerate(spec.protocols)
    }

    # Shape: count-to-infinity on partitions grows with the metric cap,
    # the partial ordering bounds it, path vector and LS stay cheap.
    naive16 = stats["naive-dv(inf=16)"][1]["mean_msgs"]
    naive64 = stats["naive-dv(inf=64)"][1]["mean_msgs"]
    ecma = stats["ecma(1 qos)"][1]["mean_msgs"]
    assert naive64 > naive16
    assert ecma < naive64
    assert stats["idrp"][1]["mean_msgs"] < naive64
    assert stats["plain-ls"][1]["mean_msgs"] < naive64
    # Every episode quiesced -- these are convergence costs, not cutoffs.
    assert all(r.quiesced for r in records)


# --------------------------------------------------------------------------
# E5 -- Source-specific policy granularity (Sections 5.2.1 and 5.3)


@check("granularity")
def check_granularity(spec, results):
    last = GRANULARITY_CLASSES[-1]
    assert results[last]["pts"] > results[1]["pts"] * 8
    assert results[last]["max_fan"] >= results[1]["max_fan"]
    assert all(r["orwg_transit"] == 0 for r in results.values())
    assert all(r["orwg_avail"] == 1.0 for r in results.values())
    assert results[last]["idrp_avail"] <= results[1]["idrp_avail"]


# --------------------------------------------------------------------------
# E6 -- Route setup amortisation (Section 5.4.1)


@check("setup_overhead")
def check_setup_overhead(spec, measured):
    # Shape: higher locality -> fewer setups, more reuse; long streams
    # amortise below per-packet source routing.
    results = measured["results"]
    assert results[SETUP_ZIPF_SKEWS[-1]]["setups"] <= results[0.0]["setups"]
    assert results[SETUP_ZIPF_SKEWS[-1]]["reuses"] >= results[0.0]["reuses"]
    assert measured["amortised"][50] < measured["per_packet"]
    assert measured["amortised"][1] > measured["per_packet"]


# --------------------------------------------------------------------------
# E7 -- Scaling with internet size (Section 2.2)


@check("scaling")
def check_scaling(spec, records):
    n_protocols = len(spec.protocols)
    by_size = {}
    for si in range(len(spec.scenarios)):
        group = {
            rec.cell["protocol"]: rec
            for rec in records[si * n_protocols : (si + 1) * n_protocols]
        }
        by_size[SCALING_SIZES[si]] = group

    # Shape: everything grows with size; flooding volume grows
    # super-linearly (every LSA crosses every link), and ORWG state is
    # the LSDB (linear in ADs).
    first, last = by_size[SCALING_SIZES[0]], by_size[SCALING_SIZES[-1]]
    growth = last["idrp"].scenario["num_ads"] / first["idrp"].scenario["num_ads"]
    for proto in ("idrp", "ecma", "orwg"):
        assert last[proto].initial.messages > first[proto].initial.messages
        assert last[proto].quiesced
    assert (
        last["orwg"].state["max_rib"]
        >= first["orwg"].state["max_rib"] * (growth / 2)
    )


# --------------------------------------------------------------------------
# E8 -- Partial-ordering satisfiability (Section 5.1.1)


@check("partial_order")
def check_partial_order(spec, measured):
    # Shape: satisfiability decays with constraint density; dense policy
    # sets are rarely expressible in one ordering.
    fractions = measured["fractions"]
    for n_ads in (20, 40, 80):
        assert fractions[(n_ads, 2.0)] <= fractions[(n_ads, 0.5)]
    assert fractions[(80, 2.0)] < 0.5


def test_ordering_construction_cost():
    """Cost of (re)computing the global ordering -- the ECMA authority's
    recurring job."""
    rng = random.Random(3)
    n_ads = 200
    constraints = []
    # Build a guaranteed-acyclic constraint set (respect id order).
    while len(constraints) < 400:
        a, b = rng.sample(range(n_ads), 2)
        constraints.append((min(a, b), max(a, b)))
    order = order_from_constraints(range(n_ads), constraints)
    for low, high in constraints:
        assert order.rank(low) < order.rank(high)


# --------------------------------------------------------------------------
# E9 -- The AD-level abstraction (Section 4.1)


@check("abstraction")
def check_abstraction(spec, measured):
    # Shape: stretch is small (a few percent mean), information saving
    # is large -- "benefits far outweigh the costs".
    for s, info_ad, info_router in measured["topologies"]:
        assert s.mean < 1.5
        assert s.minimum >= 1.0 - 1e-9
        assert info_router > 3 * info_ad


# --------------------------------------------------------------------------
# E10 -- Synthesis strategies (Section 6, research issue 1)


@check("synthesis_strategies")
def check_synthesis_strategies(spec, stats):
    pre = stats["precompute-all"][0]
    ond = stats["on-demand (LRU 64)"][0]
    hyb = stats["hybrid (top 60 + LRU 64)"][0]
    # Precompute-all: huge up-front bill, zero request-time work.
    assert pre.precompute_states > 50 * hyb.precompute_states / 60
    assert pre.mean_request_states == 0.0
    # On-demand: no up-front bill, pays at request time.
    assert ond.precompute_states == 0
    assert ond.mean_request_states > 0
    # Hybrid: small up-front bill, near-zero request-time work -- the
    # paper's recommended combination.
    assert hyb.precompute_states < pre.precompute_states
    assert hyb.mean_request_states <= ond.mean_request_states
    assert hyb.hit_ratio >= ond.hit_ratio


# --------------------------------------------------------------------------
# E11 -- Robustness under loss and churn


@check("robustness")
def check_robustness(spec, records):
    n_faults = len(spec.faults)
    losses = [fault.loss for fault in spec.faults]
    avail = {
        (p.display, fault.loss): records[pi * n_faults + fi]
        for pi, p in enumerate(spec.protocols)
        for fi, fault in enumerate(spec.faults)
    }

    def quality(label, loss):
        return avail[(label, loss)].route_quality["availability"]

    # Hardened runs all quiesce: retries and refresh bursts are bounded.
    for (label, _loss), rec in avail.items():
        if label.endswith("+h"):
            assert rec.quiesced, f"{label} did not quiesce"

    # The recommended LS+PT design points, hardened, ride out 5% loss
    # plus the churn timeline at full availability.
    assert 0.05 in losses
    assert quality("ls-hbh+h", 0.05) == 1.0
    assert quality("orwg+h", 0.05) == 1.0

    # Unhardened variants measurably degrade as the channel worsens.
    worst = max(losses)
    assert quality("ls-hbh", worst) < quality("ls-hbh+h", worst)
    assert quality("orwg", worst) < quality("orwg+h", worst)
    assert quality("ls-hbh", worst) < quality("ls-hbh", 0.0)

    # The probed timeline produced samples for every cell.
    assert all(r.robustness["samples"] > 0 for r in records)
    # Impaired cells actually exercised the channel.
    for (label, loss), rec in avail.items():
        if loss > 0:
            assert rec.channel["dropped"] > 0, (label, loss)


# --------------------------------------------------------------------------
# E12 -- Misbehaving-AD blast radius and containment


@check("robustness_misbehavior")
def check_misbehavior(spec, records):
    n_mis = len(spec.misbehaviors)
    cells = {
        (p.display, m.display): records[pi * n_mis + mi]
        for pi, p in enumerate(spec.protocols)
        for mi, m in enumerate(spec.misbehaviors)
    }

    def steady(label, lie):
        return cells[(label, lie)].misbehavior["steady_blast"]

    # A validating receiver contains the backbone route leak: strictly
    # smaller steady-state blast radius than the plain protocol, on the
    # recommended LS+PT design points.
    leak = "route-leak@backbone"
    for name in ("ls-hbh", "orwg"):
        assert steady(name, leak) > 0, f"{name}: leak produced no blast"
        assert steady(f"{name}+v", leak) < steady(name, leak)

    # The liars actually told the lie in those cells, and the validators
    # charged and quarantined the real liar.
    for name in ("ls-hbh", "orwg"):
        block = cells[(f"{name}+v", leak)].misbehavior
        assert block["applied"]
        assert block["counters"]["violations"] > 0
        assert block["counters"]["quarantines"] > 0
        assert block["counters"]["quarantined_ads"] == [block["liar"]]

    # Containment is surgical across the entire sweep: no validator ever
    # quarantines an honest AD -- including every lie-free baseline.
    for (label, lie), rec in cells.items():
        if rec.misbehavior is not None:
            assert rec.misbehavior["counters"]["false_quarantines"] == 0, (
                label,
                lie,
            )

    # Lie-free baselines of validating protocols see zero violations:
    # honest advertisements never trip a receiver-side check.
    for protocol in spec.protocols:
        rec = cells.get((protocol.display, "baseline"))
        if rec is not None and protocol.display.endswith("+v"):
            assert rec.misbehavior["counters"]["violations"] == 0, (
                protocol.display
            )

    # Expressibility is architectural: term-free LS design points cannot
    # leak a route; IDRP-family paths carry no sequence numbers to replay.
    for name in ("ls-hbh-topo", "ls-src-topo"):
        assert not cells[(name, leak)].misbehavior["applied"]
    assert not cells[("pv-src", "stale-replay@backbone")].misbehavior["applied"]


# --------------------------------------------------------------------------
# E13 -- Control-plane overload under a churn storm


@check("robustness_churn")
def check_churn(spec, records):
    n_faults = len(spec.faults)
    by_cell = {
        (p.display, f.display): records[pi * n_faults + fi]
        for pi, p in enumerate(spec.protocols)
        for fi, f in enumerate(spec.faults)
    }

    # Every cell ran through a bounded queue and was probed.
    for rec in records:
        assert rec.overload is not None
        assert rec.overload["capacity"] is not None
        assert rec.robustness["samples"] > 0

    # The paced+damped recommended design points quench the storm: they
    # quiesce within the tight event budget and hold full post-storm
    # availability at every storm point.
    for label in ("ls-hbh+pd", "orwg+pd"):
        for f in spec.faults:
            rec = by_cell[(label, f.display)]
            assert rec.quiesced, (label, f.display)
            assert rec.route_quality["availability"] >= 0.9, (label, f.display)

    # At least one raw variant melts down: the storm exhausts its event
    # budget (or strands it below half availability).
    melted = [
        rec
        for (label, _), rec in by_cell.items()
        if "+" not in label
        and (not rec.quiesced or rec.route_quality["availability"] < 0.5)
    ]
    assert melted, "no raw variant melted under the storm"

    # Damping + pacing visibly relieve the queues: for the recommended
    # design points, the paced variant drops fewer ingress messages and
    # suppresses/defers announcements the raw variant blasts out.
    for name in ("ls-hbh", "orwg"):
        for f in spec.faults:
            raw = by_cell[(name, f.display)].overload
            paced = by_cell[(f"{name}+pd", f.display)].overload
            assert paced["dropped"] < raw["dropped"], (name, f.display)
            assert paced["suppressed_announcements"] + paced["paced_deferrals"] > 0
            assert paced["duty_cycle"] < raw["duty_cycle"], (name, f.display)


# --------------------------------------------------------------------------
# E14 -- Data-plane tails under convergence


@check("dataplane_tail")
def check_dataplane(spec, records):
    assert len(records) == len(spec.protocols)
    for rec in records:
        dp = rec.dataplane
        assert dp is not None
        # Production scale: the full grid replays 10^6 flows per cell.
        assert dp["workload"]["flows"] >= 1_000_000
        # The storm was actually observed: initial + episode + probe
        # epochs + final all snapshotted a FIB and replayed the workload.
        epochs = dp["series"]["epochs"]
        assert len(epochs) >= 4
        assert epochs[0]["label"] == "initial"
        assert epochs[-1]["label"] == "final"
        # Tails are well-formed fractions/latencies.
        for key in ("outage_p50", "outage_p99", "outage_p999"):
            assert 0.0 <= dp["series"][key] <= 1.0
        assert dp["series"]["worst_gap"] >= epochs[0]["reach_gap"]
        # Compiled state is small: KB, not the 10^6-flow workload.
        assert 0 < dp["fib"]["bytes"] < 1_000_000

    # The storm hurts: at least one design point's worst epoch loses
    # more flows than its converged start.
    assert any(
        r.dataplane["series"]["worst_gap"]
        > r.dataplane["series"]["epochs"][0]["reach_gap"]
        for r in records
    )


# --------------------------------------------------------------------------
# E15 -- Rolling restarts and partitions, both substrates


@check("live_chaos")
def check_live_chaos(spec, records):
    assert len(records) == len(spec.protocols) * 2  # sim + live twins
    digests = {}
    for rec in records:
        chaos = rec.chaos
        assert chaos is not None
        # The program actually ran: every restart and partition produced
        # a measured chaos event group, and every group settled.
        assert chaos["restarts"] == spec.faults[0].restarts
        assert chaos["partitions"] == spec.faults[0].partitions
        assert len(chaos["groups"]) >= (
            2 * chaos["restarts"] + 2 * chaos["partitions"]
        )
        assert all(g["quiesced"] for g in chaos["groups"])
        assert 0.0 <= chaos["availability"] <= 1.0
        if rec.substrate == "live":
            # The closing maintenance sweep restarted every serve task
            # and the supervisor never exhausted a node's budget.
            assert chaos["serve_restarts"] == rec.scenario["num_ads"]
            assert chaos["supervisor"]["gave_up"] == []
        digests.setdefault(rec.cell["label"], {})[rec.substrate] = chaos[
            "routes_digest"
        ]

    # Fidelity anchor: deterministic tie-breaks make every row's
    # post-chaos routes identical across substrates -- the link-state
    # family's, and IDRP's and pv-src's too, whose candidate rank ends in
    # the full AD path, so their selection is a total order.
    for label, subs in digests.items():
        assert subs["sim"] == subs["live"], label

    # The headline claim: graceful restart measurably lowers the
    # zipf-weighted data-plane outage tail on the link-state family.
    by_label = {r.cell["label"]: r for r in records if r.substrate == "sim"}
    helped = 0
    for name in ("ls-hbh", "ls-hbh-topo"):
        plain = by_label.get(name)
        graced = by_label.get(f"{name}+gr")
        if plain is None or graced is None:
            continue
        assert (
            graced.dataplane["series"]["outage_p99"]
            <= plain.dataplane["series"]["outage_p99"]
        ), name
        if (
            graced.dataplane["series"]["outage_p99"]
            < plain.dataplane["series"]["outage_p99"]
        ):
            helped += 1
    assert helped >= 1


# --------------------------------------------------------------------------
# E16 -- Mixed-version rolling upgrade, both substrates


@check("mixed_version")
def check_version_skew(spec, records):
    assert len(records) == len(spec.protocols) * 2  # sim + live twins
    fault = spec.faults[0]
    expected_waves = fault.upgrade_waves + (2 if fault.rollback else 0)
    digests = {}
    for rec in records:
        v = rec.versioning
        assert v is not None
        # The sweep actually ran: v1 start, current-version target,
        # every wave measured, every wave settled.
        assert v["wire_start"] == 1
        assert v["wire_target"] > v["wire_start"]
        assert len(v["waves"]) == expected_waves
        assert sum(w["ads"] for w in v["waves"][: fault.upgrade_waves]) == (
            rec.scenario["num_ads"]
        )
        assert all(w["quiesced"] for w in v["waves"])
        # Nothing was ever version-blocked: a mixed v1/v2 population is
        # a supported regime, not a fault.
        assert v["negotiation"]["blocked_pairs"] == 0
        assert v["version_rejected"] == 0
        # The headline robustness claim: the whole upgrade (and the
        # rollback) was invisible to routing, wave by wave.
        assert v["digest_stable"], rec.cell["label"]
        if rec.substrate == "live":
            # Upgrade bounces are operator-initiated: the supervisor
            # never charged them and never gave up on a node.
            assert v["supervisor"]["restarts"] == 0
            assert v["supervisor"]["gave_up"] == []
        digests.setdefault(rec.cell["label"], {})[rec.substrate] = v[
            "routes_digest"
        ]

    # Fidelity anchor: every row's post-upgrade routes are identical
    # across substrates -- IDRP's too, whose candidate rank ends in the
    # full AD path, so its selection is a total order.
    for label, subs in digests.items():
        assert subs["sim"] == subs["live"], label


# --------------------------------------------------------------------------
# Ablations A1-A6


@check("ablation_a1_fast_path")
def check_a1(spec, measured):
    # Same answers (cost-equal optima), wildly different work.
    for fast, exact in measured["costs"]:
        if fast is None:
            assert exact is None
        else:
            assert exact is not None
            assert fast == pytest.approx(exact)
    assert measured["fast"].states_expanded < measured["exact"].states_expanded / 2


@check("ablation_a2_flooding")
def check_a2(spec, measured):
    assert measured["tree_msgs"] < measured["full_msgs"]
    assert measured["full_stale"] == 0
    assert measured["tree_stale"] > 0  # the robustness price


@check("ablation_a3_pg_cache")
def check_a3(spec, measured):
    assert measured["flows"] == 12
    results = measured["results"]
    unbounded = results[None]
    tiny = results[2]
    assert unbounded[2] == 0
    assert tiny[1] < unbounded[1]  # deliveries lost to eviction
    assert tiny[3] <= 2


@check("ablation_a4_idrp_multiroute")
def check_a4(spec, results):
    assert results[6]["avail"] >= results[1]["avail"]
    assert results[6]["rib"] > 3 * results[1]["rib"]  # the replication bill
    assert all(r["illegal"] == 0 for r in results.values())


@check("ablation_a5_hierarchical")
def check_a5(spec, results):
    for size, r in results.items():
        assert r["hier_found"] == r["flat_found"]  # fallback keeps completeness
    # At the largest size the corridor pruning must pay off.
    largest = results[200]
    assert largest["hier_states"] < largest["flat_states"]
    assert largest["hit_ratio"] > 0.5


@check("ablation_a6_trigger_delay")
def check_a6(spec, records):
    # Shape: batching harder saves messages and costs time.
    by_delay = {
        dict(p.options)["trigger_delay"]: rec
        for p, rec in zip(spec.protocols, records)
    }
    assert by_delay[20.0].initial.messages <= by_delay[0.1].initial.messages
    assert by_delay[20.0].initial.time > by_delay[0.1].initial.time
