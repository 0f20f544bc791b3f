"""Command-line interface: ``python -m repro <command>``.

Small, scriptable entry points over the library:

* ``topology``  — generate a Figure-1 internet and describe it;
* ``scorecard`` — run all eight design points and print measured Table 1;
* ``route``     — converge ORWG on a scenario and resolve one flow;
* ``audit``     — connectivity audit of a policy scenario;
* ``impact``    — what-if analysis of an AD withdrawing transit;
* ``experiments`` — list the paper experiments, or ``experiments run``
  a named one from the registry (parallel fan-out, JSONL telemetry).
"""

from __future__ import annotations

import argparse
import math
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
    from repro.faults.plan import random_failure_plan
    from repro.protocols import make_protocol
    from repro.simul.runner import run_episodes

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
    plan = ()
    if args.failures:
        plan = random_failure_plan(
            scenario.graph, count=args.failures, repair=True, seed=args.seed
        )
    for name in contenders:
        proto = make_protocol(name, scenario.graph.copy(), scenario.policies.copy())
        initial, *episodes = run_episodes(proto, plan)
        msgs = [e.messages for e in episodes]
        table.add(
            name,
            initial.messages,
            f"{initial.bytes / 1024:.0f}",
            len(episodes),
            f"{sum(msgs) / len(msgs):.0f}" if msgs else "-",
        )
    print(table.render())
    return 0


def _refuse_bad_numbers(args: argparse.Namespace) -> bool:
    """Print ``error: ...`` and say so if a ``live`` command's numbers are bad.

    Checked before any socket is bound: a NaN or infinite time scale or
    timeout would otherwise run to a meaningless table, and a negative
    count would die in a traceback or silently do less.
    """
    problems = [
        f"--{flag.replace('_', '-')} must be a finite number > 0, got {getattr(args, flag)}"
        for flag in ("time_scale", "timeout")
        if not 0 < getattr(args, flag) < math.inf
    ] + [
        f"--{flag} must be >= 0, got {getattr(args, flag)}"
        for flag in ("flaps", "restarts", "partitions", "flows")
        if getattr(args, flag, 0) < 0
    ]
    if problems:
        print(f"error: {problems[0]}", file=sys.stderr)
    return bool(problems)


def _run_live_cli_cell(args: argparse.Namespace, substrate: str):
    """Run the cell ``live run`` / ``live fidelity`` name on ``substrate``:
    the scenario, then ``--flaps`` link flaps, each one repaired."""
    from repro.harness.chaos import run_cell
    from repro.harness.spec import Cell, FailureSpec, ProtocolSpec, ScenarioSpec

    cell = Cell(
        experiment=f"live_{args.live_command}_cli",
        index=0,
        scenario=ScenarioSpec(kind=args.scenario, seed=args.seed),
        protocol=ProtocolSpec(args.protocol),
        failure=FailureSpec(
            kind="random", count=args.flaps, seed=args.seed, spacing=400.0
        ),
        substrate=substrate,
    )
    return run_cell(cell, time_scale=args.time_scale, settle_timeout_s=args.timeout)


def cmd_live_run(args: argparse.Namespace) -> int:
    if _refuse_bad_numbers(args):
        return 2
    record, _ = _run_live_cli_cell(args, "live")
    table = Table(
        "episode",
        "messages",
        "KB",
        "time",
        "quiesced",
        title=f"{args.protocol} live on {record.scenario['num_ads']} ADs "
        f"(UDP loopback, {args.time_scale}s/unit)",
    )
    for ep in record.episodes:
        label = ep.kind
        if ep.link is not None:
            state = "up" if ep.kind == "repair" else "down"
            label = f"link {ep.link[0]}-{ep.link[1]} {state}"
        table.add(
            label, ep.messages, f"{ep.bytes / 1024:.1f}", f"{ep.time:.1f}",
            "yes" if ep.quiesced else "NO",
        )
    print(table.render())
    print(f"wall time: {record.timings['live.wall']:.2f}s")
    return 0 if record.quiesced else 1


def cmd_live_fidelity(args: argparse.Namespace) -> int:
    """Run the ``live run`` cell and its sim twin; compare routes digests."""
    if _refuse_bad_numbers(args):
        return 2
    from repro.harness.chaos import route_table, routes_digest

    (sim, sim_proto), (live, live_proto) = (
        _run_live_cli_cell(args, substrate) for substrate in ("sim", "live")
    )
    digests = routes_digest(sim_proto), routes_digest(live_proto)
    print(
        f"fidelity: {args.protocol} on {sim.scenario['name']} "
        f"({sim.scenario['num_ads']} ADs, {args.flaps} flaps)\n"
        f"  routes digest: sim={digests[0]} live={digests[1]}: "
        f"{'IDENTICAL' if digests[0] == digests[1] else 'DIFFERENT'}"
    )
    for name, record in (("sim ", sim), ("live", live)):
        times = [ep.time for ep in record.episodes]
        print(
            f"  {name} episodes: {len(times)}  "
            f"messages={sum(ep.messages for ep in record.episodes)}  "
            f"time min={min(times):.1f} mean={sum(times) / len(times):.1f} "
            f"max={max(times):.1f}  quiesced={record.quiesced}"
        )
    if digests[0] != digests[1]:
        mismatches = [
            f"  mismatch {src}->{dst}: sim={sim_route} live={live_route}"
            for (src, dst, sim_route), (_, _, live_route) in zip(
                route_table(sim_proto), route_table(live_proto)
            )
            if sim_route != live_route
        ]
        print("\n".join(mismatches[:10]))
        if len(mismatches) > 10:
            print(f"  ... and {len(mismatches) - 10} more")
    return 0 if digests[0] == digests[1] and live.quiesced else 1


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

    if _refuse_bad_numbers(args):
        return 2
    if args.restarts == 0 and args.partitions == 0:
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
    """Write every registry table under benchmarks/out/ (run in-process,
    two workers) and collate the tables into one report."""
    import os

    from repro.harness import EXPERIMENTS, write_table

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
        print(f"running all {len(EXPERIMENTS)} experiments (several minutes)...")
        for name in EXPERIMENTS:
            write_table(name, out_dir, jobs=2)
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
    """Run registry experiments: tables to stdout, cell runs to JSONL."""
    import os

    from repro.harness import (
        EXPERIMENTS,
        OVERRIDES,
        ExperimentArgumentError,
        experiment_spec,
        run_experiment,
    )

    name = args.name.replace("-", "_")
    overrides = {row.name: getattr(args, row.name) for row in OVERRIDES}
    if name == "all":
        # A cell-less table has no grid to reduce, reseed, trace or
        # override: with any of those options, "all" is the cell entries.
        grid = args.smoke or any(
            value is not None
            for value in (args.trace, args.exp_seed, *overrides.values())
        )
        names = [n for n, exp in EXPERIMENTS.items() if exp.has_cells or not grid]
    elif name in EXPERIMENTS:
        names = [name]
    else:
        print(
            f"error: unknown experiment {args.name!r}; "
            f"experiments: all, {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    options = dict(smoke=args.smoke, trace=args.trace, seed=args.exp_seed, **overrides)
    try:
        # Every entry's cells are checked before the first one runs.
        for name in names:
            experiment_spec(name, **options)
    except ExperimentArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in names:
        spec, records, text = run_experiment(
            name, jobs=args.jobs, runs_dir=args.runs_dir, **options
        )
        print(text)
        if spec is None:  # cell-less: no runs, no telemetry
            print()
            continue
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


#: Per-phase wall-clock columns, in pipeline order.  ``engine.run`` and
#: the ``proto.*`` phases accrue *inside* the enclosing pipeline phases,
#: so columns deliberately do not sum to a run's total.
_PROFILE_PHASES = (
    "scenario", "build", "converge", "failures", "faults", "evaluate",
    "engine.run", "proto.spf",
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


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.harness import EXPERIMENTS

    table = Table("id", "name", "what", title="Paper experiments (see EXPERIMENTS.md)")
    for exp in EXPERIMENTS.values():
        table.add(exp.eid, exp.name, exp.description)
    print(table.render())
    print("\nrun:    python -m repro experiments run <name|all> "
          "[--jobs N] [--smoke] [--trace ad=K]")
    renamed = ", ".join(
        f"{exp.name}: {exp.table_file}" for exp in EXPERIMENTS.values() if exp.table
    )
    print(f"tables: benchmarks/out/<name>.txt ({renamed})")
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
                         "(engine.run, proto.spf, ...)")
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

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
