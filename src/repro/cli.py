"""Command-line interface: ``python -m repro <command>``.

Small, scriptable entry points over the library:

* ``topology``  — generate a Figure-1 internet and describe it;
* ``scorecard`` — run all eight design points and print measured Table 1;
* ``route``     — converge ORWG on a scenario and resolve one flow;
* ``audit``     — connectivity audit of a policy scenario;
* ``impact``    — what-if analysis of an AD withdrawing transit;
* ``experiments`` — list the paper experiments, or ``experiments run``
  a named one through the harness (parallel fan-out, JSONL telemetry).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.adgraph.ad import ADKind, Level, LinkKind
from repro.adgraph.generator import TopologyConfig, generate_internet, scaled_config
from repro.analysis.tables import Table
from repro.policy.qos import QOS


def _build_scenario(args: argparse.Namespace):
    from repro.workloads import reference_scenario

    return reference_scenario(
        seed=args.seed, restrictiveness=args.restrictiveness
    )


def cmd_topology(args: argparse.Namespace) -> int:
    if args.target:
        config = scaled_config(args.target, seed=args.seed)
    else:
        config = TopologyConfig(
            num_backbones=args.backbones,
            regionals_per_backbone=args.regionals,
            campuses_per_parent=args.campuses,
            seed=args.seed,
        )
    graph = generate_internet(config)
    levels = graph.level_counts()
    kinds = graph.kind_counts()
    links = graph.link_kind_counts()
    table = Table("property", "value", title=f"Generated internet (seed {args.seed})")
    table.add("ADs", graph.num_ads)
    table.add("links", graph.num_links)
    table.add("backbone/regional/metro/campus",
              "/".join(str(levels[lvl]) for lvl in Level))
    table.add("stub/multihomed/transit/hybrid",
              "/".join(str(kinds[k]) for k in ADKind))
    table.add("hierarchical/lateral/bypass",
              "/".join(str(links[k]) for k in LinkKind))
    table.add("connected", "yes" if graph.is_connected() else "NO")
    print(table.render())
    return 0


def cmd_scorecard(args: argparse.Namespace) -> int:
    from repro.core.scorecard import build_scorecard, render_scorecard

    scenario = _build_scenario(args)
    rows = build_scorecard(
        scenario.graph, scenario.policies, scenario.flows[: args.flows]
    )
    print(render_scorecard(rows))
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    from repro.policy.flows import FlowSpec
    from repro.protocols import make_protocol

    scenario = _build_scenario(args)
    graph = scenario.graph
    for endpoint in (args.src, args.dst):
        if endpoint not in graph:
            print(f"error: AD {endpoint} not in topology "
                  f"(ids 0..{graph.num_ads - 1})", file=sys.stderr)
            return 2
    protocol = make_protocol("orwg", graph, scenario.policies)
    protocol.converge()
    flow = FlowSpec(args.src, args.dst, qos=QOS(args.qos), hour=args.hour)
    routes = protocol.k_routes(flow, k=args.k)
    if not routes:
        print(f"no legal route for {flow}")
        return 1
    table = Table("#", "route", "hops", "cost", "charges",
                  title=f"Policy routes for {flow}")
    for i, route in enumerate(routes):
        table.add(i + 1, "->".join(map(str, route.path)), route.hops,
                  f"{route.cost:.1f}", f"{route.charges:.1f}")
    print(table.render())
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.mgmt.audit import connectivity_audit

    scenario = _build_scenario(args)
    audit = connectivity_audit(
        scenario.graph, scenario.policies, scenario.flows
    )
    print(audit.summary())
    if args.verbose:
        for finding in audit.findings:
            print(f"  {finding}")
    return 0


def cmd_impact(args: argparse.Namespace) -> int:
    from repro.mgmt.impact import PolicyImpactAnalyzer

    scenario = _build_scenario(args)
    if args.owner not in scenario.graph:
        print(f"error: AD {args.owner} not in topology", file=sys.stderr)
        return 2
    analyzer = PolicyImpactAnalyzer(
        scenario.graph, scenario.policies, flows=scenario.flows
    )
    if args.rank:
        table = Table("AD", "flows stranded by withdrawal",
                      title="Most critical transit ADs")
        for ad_id, damage in analyzer.rank_critical_transits(top=args.rank):
            table.add(ad_id, damage)
        print(table.render())
        return 0
    print(analyzer.assess_withdrawal(args.owner).summary())
    return 0


def cmd_converge(args: argparse.Namespace) -> int:
    from repro.adgraph.failures import random_failure_plan
    from repro.protocols import make_protocol
    from repro.simul.runner import run_with_failures

    scenario = _build_scenario(args)
    contenders = ["naive-dv", "ecma", "idrp", "orwg"]
    table = Table(
        "protocol",
        "initial msgs",
        "initial KB",
        "events",
        "mean msgs/event",
        title=f"Convergence on {scenario.graph.num_ads} ADs "
        f"({args.failures} failure/repair events)",
    )
    plan = None
    if args.failures:
        plan = random_failure_plan(
            scenario.graph, count=args.failures, repair=True, seed=args.seed
        )
    for name in contenders:
        proto = make_protocol(name, scenario.graph.copy(), scenario.policies.copy())
        if plan is None:
            result = proto.converge()
            table.add(name, result.messages, f"{result.bytes / 1024:.0f}", 0, "-")
            continue
        initial, episodes = run_with_failures(proto.build(), plan)
        msgs = [e.result.messages for e in episodes]
        table.add(
            name,
            initial.messages,
            f"{initial.bytes / 1024:.0f}",
            len(episodes),
            f"{sum(msgs) / len(msgs):.0f}",
        )
    print(table.render())
    return 0


def cmd_live_run(args: argparse.Namespace) -> int:
    from repro.faults.plan import link_flap_plan
    from repro.live import run_live
    from repro.protocols import make_protocol
    from repro.workloads import reference_scenario, small_scenario

    builders = {"small": small_scenario, "reference": reference_scenario}
    scenario = builders[args.scenario](seed=args.seed)
    protocol = make_protocol(
        args.protocol,
        scenario.graph.copy(),
        scenario.policies.copy(),
        substrate="live",
    )
    plan = None
    if args.flaps:
        plan = link_flap_plan(scenario.graph, flaps=args.flaps, seed=args.seed)
    result = run_live(
        protocol,
        plan,
        time_scale=args.time_scale,
        timeout_s=args.timeout,
    )
    table = Table(
        "episode",
        "messages",
        "KB",
        "time",
        "quiesced",
        title=f"{args.protocol} live on {scenario.graph.num_ads} ADs "
        f"(UDP loopback, {args.time_scale}s/unit)",
    )

    def _row(label, r):
        table.add(
            label, r.messages, f"{r.bytes / 1024:.1f}", f"{r.time:.1f}",
            "yes" if r.quiesced else "NO",
        )

    _row("initial", result.initial)
    for episode in result.episodes:
        _row(episode.label, episode.result)
    print(table.render())
    print(f"wall time: {result.wall_seconds:.2f}s")
    return 0 if result.quiesced else 1


def cmd_live_fidelity(args: argparse.Namespace) -> int:
    from repro.live import fidelity_report, format_report

    report = fidelity_report(
        protocol=args.protocol,
        scenario=args.scenario,
        seed=args.seed,
        flaps=args.flaps,
        time_scale=args.time_scale,
        timeout_s=args.timeout,
    )
    print(format_report(report))
    return 0 if report.routes_identical and report.live_quiesced else 1


def cmd_live_chaos(args: argparse.Namespace) -> int:
    """Run one chaos program (rolling restarts + partitions) end to end."""
    from repro.harness.chaos import execute_chaos_cell
    from repro.harness.spec import (
        ExperimentSpec,
        FaultSpec,
        ProtocolSpec,
        ScenarioSpec,
        TrafficSpec,
    )

    if args.restarts <= 0 and args.partitions <= 0:
        print("error: need --restarts or --partitions > 0", file=sys.stderr)
        return 2
    options = (("graceful", args.gr),) if args.gr else ()
    label = f"{args.protocol}+gr" if args.gr else None
    spec = ExperimentSpec(
        name="live_chaos_cli",
        scenarios=(
            ScenarioSpec(kind=args.scenario, seed=args.seed, num_flows=12),
        ),
        protocols=(ProtocolSpec(args.protocol, label=label, options=options),),
        faults=(
            FaultSpec(
                restarts=args.restarts,
                partitions=args.partitions,
                seed=args.seed,
            ),
        ),
        traffics=(
            TrafficSpec(flows=args.flows, zipf_s=1.1, pairs=128, seed=args.seed),
        ),
        substrate="sim" if args.sim else "live",
    )
    (cell,) = spec.cells()
    record = execute_chaos_cell(
        cell, time_scale=args.time_scale, settle_timeout_s=args.timeout
    )
    chaos = record.chaos
    substrate = record.substrate
    table = Table(
        "chaos event",
        "t",
        "msgs",
        "settle",
        "routable during",
        "after",
        "quiesced",
        title=f"{cell.protocol.display} chaos on {record.scenario['num_ads']} "
        f"ADs ({substrate}; {args.restarts} restart(s), "
        f"{args.partitions} partition(s))",
    )
    for group in chaos["groups"]:
        table.add(
            group["label"],
            f"{group['time']:g}",
            group["messages"],
            f"{group['settle_time']:.0f}",
            group["routable_during"],
            group["routable_after"],
            "yes" if group["quiesced"] else "NO",
        )
    print(table.render())
    print(
        f"availability: {chaos['availability']:.2f} "
        f"(baseline {chaos['baseline_routable']} routable flows)"
    )
    gsum = chaos["graceful_summary"]
    print(
        f"graceful restart: {chaos['graceful']} (holds={gsum['holds']} "
        f"expirations={gsum['expirations']} resyncs={gsum['resyncs']})"
    )
    if record.dataplane is not None:
        series = record.dataplane["series"]
        print(
            f"flow outage: p99={series['outage_p99']:.3f} "
            f"p999={series['outage_p999']:.3f} "
            f"worst-gap={series['worst_gap']:.3f}"
        )
    print(f"routes digest: {chaos['routes_digest']}")
    if chaos["supervisor"] is not None:
        sup = chaos["supervisor"]
        print(
            f"supervisor: {chaos['serve_restarts']} rolling serve "
            f"restarts, {sup['restarts']} crash recoveries, "
            f"gave_up={sup['gave_up']}"
        )
    return 0 if all(g["quiesced"] for g in chaos["groups"]) else 1


def cmd_report(args: argparse.Namespace) -> int:
    """Run every experiment bench and collate the tables into one report."""
    import os
    import subprocess

    repo_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    bench_dir = os.path.join(repo_root, "benchmarks")
    out_dir = os.path.join(bench_dir, "out")
    if not os.path.isdir(bench_dir):
        print("error: benchmarks/ not found (installed without the repo?)",
              file=sys.stderr)
        return 2
    if not args.skip_run:
        print("running the full experiment suite (several minutes)...")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", bench_dir, "--benchmark-only", "-q"],
            cwd=repo_root,
        )
        if proc.returncode != 0:
            print("error: experiment suite failed", file=sys.stderr)
            return proc.returncode
    if not os.path.isdir(out_dir):
        print("error: no benchmarks/out/ artifacts found", file=sys.stderr)
        return 2
    sections = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".txt"):
            with open(os.path.join(out_dir, name)) as fh:
                sections.append(fh.read().rstrip())
    report = (
        "REPRODUCTION REPORT — Breslau & Estrin, SIGCOMM 1990\n"
        "(see EXPERIMENTS.md for the paper-claim vs measured discussion)\n\n"
        + "\n\n".join(sections)
        + "\n"
    )
    with open(args.output, "w") as fh:
        fh.write(report)
    print(f"report written to {args.output} "
          f"({len(sections)} experiment tables)")
    return 0


def cmd_experiments_run(args: argparse.Namespace) -> int:
    """Run harness-driven experiments: tables to stdout, runs to JSONL."""
    import os

    from repro.harness import EXPERIMENTS, OVERRIDES, run_experiment

    name = args.name.replace("-", "_")
    if name == "all":
        names = sorted(EXPERIMENTS, key=lambda n: EXPERIMENTS[n].eid)
    elif name in EXPERIMENTS:
        names = [name]
    else:
        print(
            f"error: unknown experiment {args.name!r}; harness-driven "
            f"experiments: all, {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    overrides = {row.name: getattr(args, row.name) for row in OVERRIDES}
    for name in names:
        spec, records, text = run_experiment(
            name,
            jobs=args.jobs,
            smoke=args.smoke,
            runs_dir=args.runs_dir,
            trace=args.trace,
            seed=args.exp_seed,
            **overrides,
        )
        print(text)
        jsonl = os.path.join(args.runs_dir, f"{spec.name}.jsonl")
        print(f"[{len(records)} runs -> {jsonl}]\n")
        if args.profile:
            print(_profile_table(spec.name, records))
            print()
        if args.trace:
            for record in records:
                if record.trace:
                    print(f"--- trace: cell {record.cell['index']} "
                          f"({record.cell['label']}) ---")
                    for line in record.trace:
                        print(line)
    return 0


def cmd_traffic_bench(args: argparse.Namespace) -> int:
    """Compiled-FIB batched replay vs the legacy per-packet forwarder."""
    from repro.traffic import bench

    protocols = tuple(args.protocols) if args.protocols else (
        bench.PROTOCOLS_SMOKE if args.smoke else bench.PROTOCOLS
    )
    flows = args.flows if args.flows is not None else (
        bench.FLOWS_SMOKE if args.smoke else bench.FLOWS
    )
    pairs = args.pairs if args.pairs is not None else (
        bench.PAIRS_SMOKE if args.smoke else bench.PAIRS
    )
    result = bench.run_bench(
        protocols=protocols,
        flows=flows,
        pairs=pairs,
        zipf_s=args.zipf_s if args.zipf_s is not None else bench.ZIPF_S,
        seed=args.seed if args.seed is not None else bench.WORKLOAD_SEED,
        scenario_seed=(
            args.scenario_seed
            if args.scenario_seed is not None
            else bench.SCENARIO_SEED
        ),
    )
    print(bench.render_table(result))
    broken = [r["protocol"] for r in result["protocols"] if not r["identical"]]
    if broken:
        print(
            f"error: compiled verdicts diverge from the legacy forwarder "
            f"for: {', '.join(broken)}",
            file=sys.stderr,
        )
        return 1
    return 0


#: Per-phase wall-clock columns, in pipeline order.  ``engine.run`` and
#: the ``proto.*`` phases accrue *inside* the enclosing pipeline phases,
#: so columns deliberately do not sum to a run's total.
_PROFILE_PHASES = (
    "scenario", "build", "converge", "failures", "faults", "evaluate",
    "engine.run", "proto.flood", "proto.spf",
)


def _profile_table(name: str, records) -> str:
    """Render each run's per-phase wall-clock (seconds) as a table."""
    present = [
        phase
        for phase in _PROFILE_PHASES
        if any(phase in r.timings for r in records)
    ]
    extras = sorted(
        {phase for r in records for phase in r.timings} - set(_PROFILE_PHASES)
    )
    columns = present + extras
    table = Table(
        "cell", "label", *columns,
        title=f"{name}: per-phase wall-clock (s)",
    )
    for record in records:
        table.add(
            record.cell["index"],
            record.cell["label"],
            *(f"{record.timings.get(p, 0.0):.3f}" for p in columns),
        )
    return table.render()


#: ``experiments list`` rows for the benches that do not run through the
#: harness; the harness-driven rows come from ``EXPERIMENTS``.
_STANDALONE_BENCHES = (
    ("E2", "Figure 1 topology composition", "bench_fig1_topology.py"),
    ("E5", "Source-specific policy granularity costs", "bench_granularity.py"),
    ("E6", "Route setup amortisation and header overhead",
     "bench_setup_overhead.py"),
    ("E8", "Partial-ordering satisfiability (ECMA)", "bench_partial_order.py"),
    ("E9", "AD-level abstraction: stretch vs information",
     "bench_abstraction.py"),
    ("E10", "Synthesis strategies: precompute/on-demand/hybrid",
     "bench_synthesis_strategies.py"),
    ("A1-A6", "Ablations: fast path, flooding scope, PG caches, multi-route "
     "IDRP, hierarchy, trigger delay", "bench_ablations.py"),
)
#: The two harness experiments whose bench is not ``bench_<name>.py``.
_BENCH_FILE = {
    "dataplane_tail": "bench_dataplane.py",
    "mixed_version": "bench_version_skew.py",
}


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.harness import EXPERIMENTS

    rows = list(_STANDALONE_BENCHES)
    for exp in EXPERIMENTS.values():
        bench = _BENCH_FILE.get(exp.name, f"bench_{exp.name}.py")
        rows.append((exp.eid, exp.description, bench))
    # E1..E16 in numeric order, then the ablations.
    rows.sort(key=lambda row: (row[0][0] != "E", int(row[0][1:].split("-")[0])))
    table = Table("id", "what", "bench", title="Paper experiments (see EXPERIMENTS.md)")
    for row in rows:
        table.add(*row)
    print(table.render())
    print("\nrun all:  pytest benchmarks/ --benchmark-only")
    print("harness:  python -m repro experiments run <name|all> "
          "[--jobs N] [--smoke] [--trace ad=K]")
    return 0


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    parser.add_argument(
        "--restrictiveness",
        type=float,
        default=0.3,
        help="policy restrictiveness in [0,1]",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.harness import OVERRIDES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Inter-AD policy routing design-space simulator "
        "(Breslau & Estrin, SIGCOMM 1990)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="generate and describe an internet")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backbones", type=int, default=2)
    p.add_argument("--regionals", type=int, default=3)
    p.add_argument("--campuses", type=int, default=3)
    p.add_argument("--target", type=int, default=0,
                   help="approximate AD count (overrides shape flags)")
    p.set_defaults(fn=cmd_topology)

    p = sub.add_parser("scorecard", help="measured Table 1")
    _add_scenario_args(p)
    p.add_argument("--flows", type=int, default=40)
    p.set_defaults(fn=cmd_scorecard)

    p = sub.add_parser("route", help="resolve one flow under ORWG")
    _add_scenario_args(p)
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--dst", type=int, required=True)
    p.add_argument("--qos", choices=[q.value for q in QOS], default="default")
    p.add_argument("--hour", type=int, default=12)
    p.add_argument("-k", type=int, default=3, help="alternatives to list")
    p.set_defaults(fn=cmd_route)

    p = sub.add_parser("audit", help="connectivity audit")
    _add_scenario_args(p)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("impact", help="what-if: AD withdraws transit")
    _add_scenario_args(p)
    p.add_argument("--owner", type=int, default=0)
    p.add_argument("--rank", type=int, default=0,
                   help="instead rank the N most critical transit ADs")
    p.set_defaults(fn=cmd_impact)

    p = sub.add_parser("report", help="run all experiments, collate a report")
    p.add_argument("--output", default="REPORT.txt")
    p.add_argument("--skip-run", action="store_true",
                   help="collate existing benchmarks/out artifacts only")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("converge", help="compare convergence costs")
    _add_scenario_args(p)
    p.add_argument("--failures", type=int, default=0,
                   help="failure/repair events to inject")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("live",
                       help="run protocols over the live asyncio/UDP substrate")
    lsub = p.add_subparsers(dest="live_command", required=True)

    def _add_live_args(lp):
        lp.add_argument("--protocol", default="plain-ls",
                        help="registry name (default: plain-ls)")
        lp.add_argument("--seed", type=int, default=0)
        lp.add_argument("--flaps", type=int, default=6,
                        help="link flaps to inject after convergence")
        lp.add_argument("--time-scale", type=float, default=0.005,
                        help="wall seconds per protocol time unit")
        lp.add_argument("--timeout", type=float, default=120.0,
                        help="per-episode settle timeout (wall seconds)")

    lp = lsub.add_parser("run", help="converge and flap one scenario live")
    lp.add_argument("scenario", choices=("small", "reference"),
                    help="scenario to run")
    _add_live_args(lp)
    lp.set_defaults(fn=cmd_live_run)

    lp = lsub.add_parser(
        "fidelity",
        help="run the same scenario on sim and live, compare final routes",
    )
    lp.add_argument("scenario", nargs="?", default="reference",
                    choices=("small", "reference"))
    _add_live_args(lp)
    lp.set_defaults(fn=cmd_live_fidelity)

    lp = lsub.add_parser(
        "chaos",
        help="run a supervised chaos program: rolling AD restarts and "
             "partition windows, with data-plane outage measurement (E15)",
    )
    lp.add_argument("scenario", choices=("ring", "small", "reference"),
                    help="topology to torment")
    lp.add_argument("--protocol", default="ls-hbh",
                    help="registry name (default: ls-hbh)")
    lp.add_argument("--seed", type=int, default=0)
    lp.add_argument("--restarts", type=int, default=1,
                    help="rolling AD crash/restart cycles (state retained)")
    lp.add_argument("--partitions", type=int, default=1,
                    help="bounded partition windows after the restarts")
    lp.add_argument("--gr", default=None, metavar="SCOPE",
                    help="enable graceful restart ('all' or a feature name)")
    lp.add_argument("--flows", type=int, default=20000,
                    help="zipf data-plane flows replayed per epoch")
    lp.add_argument("--sim", action="store_true",
                    help="run on the deterministic simulator instead of "
                         "the asyncio/UDP substrate")
    lp.add_argument("--time-scale", type=float, default=0.005,
                    help="wall seconds per protocol time unit (live only)")
    lp.add_argument("--timeout", type=float, default=60.0,
                    help="per-episode settle timeout in wall seconds "
                         "(live only)")
    lp.set_defaults(fn=cmd_live_chaos)

    p = sub.add_parser("experiments",
                       help="list paper experiments, or run them via the harness")
    p.set_defaults(fn=cmd_experiments)
    esub = p.add_subparsers(dest="experiments_command")
    ep = esub.add_parser("list", help="list paper experiments")
    ep.set_defaults(fn=cmd_experiments)
    ep = esub.add_parser(
        "run", help="run a named experiment through the harness"
    )
    ep.add_argument("name",
                    help="experiment name (see 'experiments list') or 'all'")
    ep.add_argument("--jobs", type=int, default=1,
                    help="worker processes for the cell fan-out")
    ep.add_argument("--smoke", action="store_true",
                    help="reduced grid; artifacts suffixed _smoke")
    ep.add_argument("--trace", default=None, metavar="FILTER",
                    help="per-run protocol trace: 'all' or 'ad=<id>'")
    ep.add_argument("--profile", action="store_true",
                    help="print each run's per-phase wall-clock table "
                         "(engine.run, proto.spf, proto.flood, ...)")
    ep.add_argument("--runs-dir", default="benchmarks/out/runs",
                    help="where <experiment>.jsonl telemetry is written")
    ep.add_argument("--seed", dest="exp_seed", type=int, default=None,
                    help="override the spec's seed axis with one seed")
    for row in OVERRIDES:
        if row.type is bool:  # tri-state: --x / --no-x / not given
            kind = {"action": argparse.BooleanOptionalAction}
        else:
            kind = {"type": row.convert, "metavar": row.metavar}
        ep.add_argument(row.flag, dest=row.name, default=None, help=row.help,
                        **kind)
    ep.set_defaults(fn=cmd_experiments_run)

    p = sub.add_parser(
        "traffic",
        help="data-plane workloads: compiled-FIB vs legacy throughput",
    )
    tsub = p.add_subparsers(dest="traffic_command", required=True)
    tp = tsub.add_parser(
        "bench",
        help="measure compiled-FIB batched replay against the legacy "
             "per-packet forwarder on the reference internet",
    )
    tp.add_argument("--protocol", action="append", default=None,
                    metavar="NAME", dest="protocols",
                    help="protocol point to measure (repeatable; default: "
                         "the representative ecma/idrp/ls-hbh/orwg spread)")
    tp.add_argument("--flows", type=int, default=None,
                    help="workload flow count (default: 1000000)")
    tp.add_argument("--pairs", type=int, default=None,
                    help="distinct (src, dst) flow classes (default: 4096)")
    tp.add_argument("--zipf-s", dest="zipf_s", type=float, default=None,
                    help="zipf skew of class popularity (default: 1.1)")
    tp.add_argument("--seed", type=int, default=None,
                    help="workload generation seed (default: 14)")
    tp.add_argument("--scenario-seed", type=int, default=None,
                    help="reference-internet seed (default: 5, as in E14)")
    tp.add_argument("--smoke", action="store_true",
                    help="small fast run: 50k flows, 256 pairs, two "
                         "protocols")
    tp.set_defaults(fn=cmd_traffic_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
