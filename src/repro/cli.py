"""Command-line interface.

Examples::

    sos synthesize problem.json --cost-cap 13 --gantt
    sos synthesize example1 --trace solve.jsonl --progress
    sos sweep problem.json --style bus
    sos trace solve.jsonl --replay-stats
    sos paper --artifact table2
    sos info problem.json
    sos serve --port 8321 --cache-dir .sos-cache

Installed both as ``sos`` and as ``repro`` (the same program under the
package's name), so ``repro trace solve.jsonl`` works too.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.reporting import format_table
from repro.core.options import FormulationOptions, Objective
from repro.errors import ReproError
from repro.synthesis.synthesizer import Synthesizer
from repro.system.examples import example1_library, example2_library
from repro.system.interconnect import InterconnectStyle
from repro.system.library import TechnologyLibrary
from repro.taskgraph.examples import example1, example2
from repro.taskgraph.serialization import graph_from_dict


def load_problem(path: str) -> tuple:
    """Load a problem file: a JSON object with ``graph`` and ``library``.

    Format::

        {
          "graph": {... task-graph document ...},
          "library": {
            "types": [{"name": "p1", "cost": 4, "exec_times": {"S1": 1}}],
            "instances_per_type": 2,
            "link_cost": 1.0, "local_delay": 0.0, "remote_delay": 1.0
          }
        }

    The built-in instances ``example1`` / ``example2`` may be named instead
    of a path.
    """
    if path == "example1":
        return example1(), example1_library()
    if path == "example2":
        return example2(), example2_library()
    document = json.loads(Path(path).read_text())
    graph = graph_from_dict(document["graph"])
    library = TechnologyLibrary.from_dict(document["library"])
    return graph, library


def _style(name: str) -> InterconnectStyle:
    return {
        "p2p": InterconnectStyle.POINT_TO_POINT,
        "point_to_point": InterconnectStyle.POINT_TO_POINT,
        "bus": InterconnectStyle.BUS,
        "ring": InterconnectStyle.RING,
    }[name]


def _solver_options(args: argparse.Namespace, sink, workers: int = 1):
    """Build :class:`SolverOptions` from CLI flags (``None`` when default).

    ``sink`` is an open trace sink (or ``None``); it is referenced by the
    returned options, so the caller owns closing it after the solve.
    ``workers`` is the branch-and-bound worker count; the result is
    identical to the serial solve.
    """
    progress = getattr(args, "progress", False)
    cuts = getattr(args, "cuts", "auto")
    cut_rounds = getattr(args, "cut_rounds", 5)
    strong_branching = getattr(args, "strong_branching", 8)
    pricing = getattr(args, "pricing", "devex")
    non_default_cuts = cuts != "auto" or cut_rounds != 5 or strong_branching != 8
    if (workers <= 1 and sink is None and not progress
            and not non_default_cuts and pricing == "devex"):
        return None
    from repro.obs.progress import print_progress
    from repro.solvers.base import SolverOptions

    return SolverOptions(
        workers=workers,
        cuts=cuts,
        cut_rounds=cut_rounds,
        strong_branching=strong_branching,
        pricing=pricing,
        trace=sink,
        on_progress=print_progress if progress else None,
    )


def _open_trace_sink(args: argparse.Namespace):
    """A :class:`JsonlTraceSink` for ``--trace FILE``, or ``None``."""
    path = getattr(args, "trace", None)
    if not path:
        return None
    from repro.obs.sinks import JsonlTraceSink

    return JsonlTraceSink(path)


def cmd_synthesize(args: argparse.Namespace) -> int:
    """Synthesize one optimal design and print/save it."""
    graph, library = load_problem(args.problem)
    sink = _open_trace_sink(args)
    try:
        synth = Synthesizer(
            graph, library, style=_style(args.style), solver=args.solver,
            solver_options=_solver_options(args, sink, workers=args.workers),
            seed_incumbent=args.seed_incumbent,
        )
        design = synth.synthesize(
            cost_cap=args.cost_cap,
            deadline=args.deadline,
            objective=Objective.MIN_COST if args.min_cost else Objective.MIN_MAKESPAN,
        )
    finally:
        if sink is not None:
            sink.close()
    if args.trace:
        print(f"trace written to {args.trace}")
    print(design.describe())
    if args.telemetry and synth.last_stats is not None:
        print(f"\nsolver telemetry: {synth.last_stats.summary()}")
    if args.gantt:
        print()
        print(design.gantt())
    if args.output:
        Path(args.output).write_text(json.dumps(design.to_dict(), indent=2) + "\n")
        print(f"\ndesign written to {args.output}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Enumerate and print the full non-inferior design front."""
    graph, library = load_problem(args.problem)
    sink = _open_trace_sink(args)
    try:
        synth = Synthesizer(
            graph, library, style=_style(args.style), solver=args.solver,
            solver_options=_solver_options(args, sink, workers=args.workers),
            incremental=args.incremental,
        )
        front = synth.pareto_sweep(max_designs=args.max_designs)
    finally:
        if sink is not None:
            sink.close()
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.csv:
        from repro.analysis.reporting import write_csv

        write_csv(
            args.csv,
            ["design", "cost", "performance", "processors", "links", "solve_seconds"],
            [
                (
                    index + 1, design.cost, design.makespan,
                    " ".join(sorted(design.architecture.processor_names())),
                    len(design.architecture.links), round(design.solve_seconds, 4),
                )
                for index, design in enumerate(front)
            ],
        )
        print(f"front written to {args.csv}")
    print(
        format_table(
            ["design", "cost", "performance", "processors", "links", "solve (s)"],
            [
                (
                    index + 1,
                    design.cost,
                    design.makespan,
                    ", ".join(sorted(design.architecture.processor_names())),
                    len(design.architecture.links),
                    round(design.solve_seconds, 3),
                )
                for index, design in enumerate(front)
            ],
            title=f"Non-inferior designs for {graph.name} ({args.style})",
        )
    )
    if args.telemetry:
        print(f"\nsolver telemetry (whole sweep): {synth.total_stats.summary()}")
    return 0


def cmd_paper(args: argparse.Namespace) -> int:
    """Regenerate paper artifacts and report paper-vs-measured matches."""
    from repro.paper import experiments

    if args.report:
        from repro.paper.report import generate_report

        text = generate_report(solver=args.solver)
        Path(args.report).write_text(text)
        print(f"reproduction report written to {args.report}")
        return 0 if "WITH DEVIATIONS" not in text else 1

    runners = {
        "table2": experiments.run_table_ii,
        "table4": experiments.run_table_iv,
        "table5": experiments.run_table_v,
        "figure2": experiments.run_figure_2,
        "experiment1": experiments.run_experiment_1,
        "experiment2": experiments.run_experiment_2,
    }
    if args.artifact == "sizes":
        print(experiments.model_size_report())
        return 0
    if args.artifact == "all":
        names = list(runners)
    else:
        names = [args.artifact]
    exit_code = 0
    for name in names:
        result = runners[name](solver=args.solver)
        if result.rows:
            print(result.render())
        else:
            print(f"{result.name}: {'OK' if result.matches_paper else 'DEVIATIONS'}")
            for note in result.notes:
                print(f"  note: {note}")
        if result.designs and args.gantt:
            print(result.designs[0].gantt())
        print()
        if not result.matches_paper:
            exit_code = 1
    return exit_code


def cmd_validate(args: argparse.Namespace) -> int:
    """Re-check a saved design against the paper's correctness constraints."""
    from repro.schedule.schedule import Schedule
    from repro.schedule.validate import validate_schedule

    graph, library = load_problem(args.problem)
    document = json.loads(Path(args.design).read_text())
    schedule = Schedule.from_dict(document["schedule"])
    style = InterconnectStyle(document.get("style", "point_to_point"))
    problems = validate_schedule(graph, library, schedule, style=style)
    if problems:
        print(f"INVALID: {len(problems)} violation(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"VALID: makespan {schedule.makespan:g}, "
        f"{len(schedule.processors())} processors, "
        f"{len(schedule.remote_transfers())} remote transfers"
    )
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    """Run the heuristic co-synthesis baseline and compare with the MILP."""
    from repro.analysis.pareto import coverage
    from repro.baselines.heuristic_synthesis import heuristic_pareto
    from repro.baselines.refinement import refine_front

    graph, library = load_problem(args.problem)
    style = _style(args.style)
    front = heuristic_pareto(graph, library, style=style)
    if args.refine:
        front = refine_front(front)
    rows = [
        (design.cost, design.makespan, design.solver_name)
        for design in front
    ]
    print(format_table(
        ["cost", "performance", "method"], rows,
        title=f"Heuristic non-inferior designs for {graph.name}",
    ))
    if args.compare_exact:
        exact = Synthesizer(graph, library, style=style,
                            solver=args.solver).pareto_sweep()
        exact_points = [(d.cost, d.makespan) for d in exact]
        heuristic_points = [(d.cost, d.makespan) for d in front]
        print()
        print(format_table(
            ["cost", "performance"], exact_points,
            title="Exact MILP non-inferior designs",
        ))
        print(f"\nheuristic coverage of the exact front: "
              f"{coverage(exact_points, heuristic_points):.0%}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Schedule analytics of a saved design: critical path, utilization, trace."""
    from repro.schedule.stats import (
        communication_summary,
        critical_path,
        utilization_report,
    )
    from repro.sim.trace import format_trace
    from repro.synthesis.io import load_design

    graph, library = load_problem(args.problem)
    design = load_design(graph, library, args.design)
    print(f"makespan {design.makespan:g}, cost {design.cost:g}")
    print("critical path:",
          " -> ".join(critical_path(graph, library, design.schedule)))
    print()
    print(format_table(
        ["resource", "kind", "busy", "events", "utilization"],
        [
            (u.name, u.kind, u.busy, u.events, f"{u.utilization:.0%}")
            for u in utilization_report(design.schedule)
        ],
        title="resource utilization",
    ))
    summary = communication_summary(design.schedule)
    print()
    print(format_table(["metric", "value"], sorted(summary.items()),
                       title="communication"))
    if args.trace:
        print()
        print(format_trace(design.schedule))
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    """Emit Graphviz DOT for the task graph or a synthesized design."""
    from repro.taskgraph.dot import design_to_dot, graph_to_dot

    graph, library = load_problem(args.problem)
    if args.design:
        design = Synthesizer(graph, library, style=_style(args.style),
                             solver=args.solver).synthesize(cost_cap=args.cost_cap)
        text = design_to_dot(design)
    else:
        text = graph_to_dot(graph)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"DOT written to {args.output}")
    else:
        print(text)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarize a JSONL solve trace: timeline plus per-phase/worker profile."""
    from repro.obs import check_schema, read_trace, render_trace_summary, replay_stats

    events = read_trace(args.trace_file)
    problems = check_schema(events)
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    print(render_trace_summary(events))
    if args.replay_stats:
        stats = replay_stats(events)
        print()
        print(f"replayed stats: {stats.summary()}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the synthesis job service (JSON over HTTP, /v1 API)."""
    import signal

    from repro.service.cache import ResultCache

    # Make SIGINT/SIGTERM interrupt the serve loop even when the process
    # was started with SIGINT ignored (shells background `serve ... &`
    # children that way), so `kill -INT` always shuts down cleanly.
    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)

    sink = _open_trace_sink(args)
    cache = ResultCache(
        byte_budget=args.cache_bytes, directory=args.cache_dir, trace=sink
    )
    executor = "thread" if args.threaded or args.solve_processes < 1 else "process"
    common = dict(
        host=args.host, port=args.port, workers=args.job_workers,
        cache=cache, trace=sink, verbose=args.verbose,
        executor=executor, solve_processes=max(1, args.solve_processes),
        batching=not args.no_batching, max_queued=args.max_queued,
        rate_limit=args.rate_limit, rate_burst=args.rate_burst,
    )
    if args.threaded:
        from repro.service.http import create_server, serve

        server = create_server(**common)
    else:
        from repro.service.asgi import create_async_server

        server = create_async_server(**common)
        server.start()
    print(f"serving on {server.url} "
          f"({args.job_workers} job worker(s), {executor} executor"
          + (f", {max(1, args.solve_processes)} solve process(es)"
             if executor == "process" else "")
          + f", cache budget {args.cache_bytes} bytes"
          + (f", disk tier {args.cache_dir}" if args.cache_dir else "")
          + ")")
    sys.stdout.flush()
    try:
        if args.threaded:
            serve(server)
        else:
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                pass
            finally:
                server.close()
    finally:
        if sink is not None:
            sink.close()
    return 0


#: ``--axis NAME=...`` names accepted by ``sos dse run`` and the axis
#: constructors they map to (numeric axes parse floats; ``style`` takes
#: style names; ``types`` takes ``+``-joined processor-type groups).
_DSE_AXES = ("price", "speed", "remote", "link", "style", "types")


def _parse_axis(spec: str):
    """One ``--axis name=v1,v2,...`` option into a DSE :class:`Axis`."""
    from repro.dse import (
        interconnect_styles,
        link_costs,
        remote_delays,
        scale_prices,
        scale_speeds,
        subset_types,
    )

    name, sep, rest = spec.partition("=")
    values = [v for v in rest.split(",") if v]
    if not sep or not values:
        raise ReproError(
            f"bad --axis {spec!r}: expected NAME=v1,v2,... "
            f"with NAME one of {', '.join(_DSE_AXES)}"
        )
    if name == "style":
        return interconnect_styles(*values)
    if name == "types":
        return subset_types(*values)
    numeric = {
        "price": scale_prices,
        "speed": scale_speeds,
        "remote": remote_delays,
        "link": link_costs,
    }
    if name not in numeric:
        raise ReproError(
            f"unknown axis {name!r} (use one of {', '.join(_DSE_AXES)})"
        )
    try:
        numbers = [float(v) for v in values]
    except ValueError:
        raise ReproError(f"axis {name!r} takes numeric values, got {rest!r}") from None
    return numeric[name](*numbers)


def cmd_dse_run(args: argparse.Namespace) -> int:
    """Run a design-space study: one Pareto sweep per grid point."""
    from repro.dse import SpaceSpec, run_study
    from repro.dse.report import surface_overview

    graph, library = load_problem(args.problem)
    axes = [_parse_axis(spec) for spec in args.axis]
    spec = SpaceSpec(library, axes, style=_style(args.style))
    cache = None
    if args.cache_dir or args.cache_bytes:
        from repro.service.cache import ResultCache

        cache = ResultCache(
            byte_budget=args.cache_bytes or 64 * 1024 * 1024,
            directory=args.cache_dir,
        )

    def progress(point, status):
        if args.verbose:
            print(f"  [{status:>9}] {point.point_id}")

    result = run_study(
        graph, spec, solver=args.solver, max_designs=args.max_designs,
        cost_step=args.cost_step, workers=args.workers, cache=cache,
        manifest=args.manifest, seed_incumbent=args.seed_incumbent,
        on_point=progress,
    )
    print(result.summary())
    if args.output:
        Path(args.output).write_text(result.surface.to_json(indent=2) + "\n")
        print(f"surface written to {args.output}")
    else:
        print()
        print(surface_overview(result.surface))
    if args.expect_warm and result.warm_fraction < 1.0:
        print(
            f"error: expected a fully warm study but warm fraction was "
            f"{result.warm_fraction:.0%} ({result.solved} point(s) solved cold)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_dse_report(args: argparse.Namespace) -> int:
    """Render comparison tables from a saved frontier surface."""
    from repro.dse import FrontierSurface
    from repro.dse.report import frontier_comparison, surface_csv, surface_overview

    graph, _library = load_problem(args.problem)
    surface = FrontierSurface.from_json(Path(args.surface).read_text(), graph)
    print(surface_overview(surface))
    print()
    print(frontier_comparison(surface, deadlines=args.deadlines))
    if args.csv:
        Path(args.csv).write_text(surface_csv(surface))
        print(f"\noverview written to {args.csv}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """Describe a problem: pool, MILP size, bounds, per-family row counts."""
    graph, library = load_problem(args.problem)
    from repro.baselines.bounds import cost_lower_bound, makespan_lower_bound
    from repro.core.formulation import SosModelBuilder
    from repro.core.options import FormulationOptions

    built = SosModelBuilder(
        graph, library, FormulationOptions(style=_style(args.style))
    ).build()
    print(f"graph: {graph!r}")
    print(f"pool: {[inst.name for inst in built.pool]}")
    print(f"model: {built.size_report()} (horizon T_M = {built.horizon:g})")
    print(f"makespan lower bound: {makespan_lower_bound(graph, library):g}")
    print(f"cost lower bound: {cost_lower_bound(graph, library):g}")
    print("constraints per family:")
    for family, count in sorted(built.family_counts.items()):
        print(f"  {family}: {count}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Quick kernel benchmark: pivots/sec and wall on the standard models.

    Runs the same instances as ``benchmarks/bench_kernel.py`` (Example 1,
    market split) without the pytest-benchmark harness, so a developer can
    eyeball kernel throughput — or, with ``--profile FILE``, capture a
    cProfile artifact of the hot path for ``pstats``/``snakeviz``.
    """
    from repro.core.formulation import SosModelBuilder
    from repro.solvers.base import SolverOptions
    from repro.solvers.registry import get_solver

    def _market_split(rows: int, binaries: int, seed: int):
        import random as _random

        from repro.milp.model import Model, VarType

        rng = _random.Random(seed)
        model = Model(f"market_split_{rows}x{binaries}")
        x = [model.add_var(f"x{j}", vtype=VarType.BINARY)
             for j in range(binaries)]
        surplus = [model.add_var(f"sp{i}", lb=0) for i in range(rows)]
        deficit = [model.add_var(f"sm{i}", lb=0) for i in range(rows)]
        for i in range(rows):
            weights = [rng.randrange(100) for _ in range(binaries)]
            target = sum(weights) // 2
            model.add(
                sum(w * xj for w, xj in zip(weights, x))
                + surplus[i] - deficit[i] == target,
                name=f"row{i}",
            )
        model.minimize(sum(surplus) + sum(deficit))
        return model

    instances = [
        ("example1", lambda: SosModelBuilder(
            example1(), example1_library()).build().model),
        ("market_split_3x16", lambda: _market_split(3, 16, 0)),
    ]
    pricing = getattr(args, "pricing", "devex")

    def run() -> None:
        for name, build in instances:
            model = build()
            solver = get_solver("bozo", SolverOptions(pricing=pricing))
            start = time.monotonic()
            solution = solver.solve(model)
            wall = time.monotonic() - start
            stats = solution.stats
            rate = stats.lp_pivots / wall if wall > 0 else 0.0
            print(f"{name}: {wall:.3f}s wall, {stats.nodes} nodes, "
                  f"{stats.lp_pivots} pivots ({rate:,.0f} pivots/s), "
                  f"{stats.bound_flips} bound flips, "
                  f"{stats.refactorizations} refactorizations")

    profile_path = getattr(args, "profile", None)
    if profile_path:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        run()
        profiler.disable()
        profiler.dump_stats(profile_path)
        top = pstats.Stats(profiler)
        top.sort_stats("cumulative")
        print(f"\nprofile written to {profile_path} "
              f"(inspect with: python -m pstats {profile_path})")
    else:
        run()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``sos`` argument parser (exposed for tests and docs tooling)."""
    parser = argparse.ArgumentParser(
        prog="sos",
        description="SOS: MILP co-synthesis of heterogeneous multiprocessor systems "
        "(Prakash & Parker, ISCA 1992 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("problem", help="problem JSON path, or 'example1'/'example2'")
        p.add_argument("--style", choices=("p2p", "bus", "ring"), default="p2p")
        p.add_argument("--solver", default="auto", help="auto|highs|bozo")

    p_synth = sub.add_parser("synthesize", help="synthesize one optimal design")
    common(p_synth)
    p_synth.add_argument("--cost-cap", type=float, default=None)
    p_synth.add_argument("--deadline", type=float, default=None)
    p_synth.add_argument("--min-cost", action="store_true",
                         help="minimize cost (default: minimize completion time)")
    p_synth.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    p_synth.add_argument("--output", help="write the design JSON here")
    p_synth.add_argument("--telemetry", action="store_true",
                         help="print solver statistics (nodes, pivots, warm starts)")
    p_synth.add_argument("--workers", type=int, default=1,
                         help="parallel branch-and-bound workers (bozo solver); "
                         "the result is identical to the serial solve")
    p_synth.add_argument("--trace", metavar="FILE", default=None,
                         help="stream structured solve events to this JSONL file "
                         "(inspect it with 'sos trace FILE')")
    p_synth.add_argument("--seed-incumbent", action="store_true",
                         help="seed the solver with a list-scheduling "
                              "heuristic incumbent (same optimum, less tree)")
    p_synth.add_argument("--progress", action="store_true",
                         help="print rate-limited progress lines during the solve")
    p_synth.add_argument("--cuts", choices=("auto", "off"), default="auto",
                         help="root cutting planes (bozo solver): 'auto' runs "
                         "Gomory + cover separation rounds at the root, 'off' "
                         "disables them (default: auto)")
    p_synth.add_argument("--cut-rounds", type=int, default=5, dest="cut_rounds",
                         help="maximum root separation rounds with --cuts auto "
                         "(default: 5)")
    p_synth.add_argument("--strong-branching", type=int, default=8,
                         dest="strong_branching", metavar="K",
                         help="probe the K most fractional root candidates with "
                         "budgeted dual simplex before the first branch; 0 "
                         "disables (default: 8)")
    p_synth.add_argument("--pricing", choices=("devex", "dantzig"), default="devex",
                         help="revised-simplex pricing rule (bozo solver): "
                         "'devex' reference-framework weights (default, fast) "
                         "or 'dantzig' legacy block pricing")
    p_synth.set_defaults(func=cmd_synthesize)

    p_sweep = sub.add_parser("sweep", help="enumerate all non-inferior designs")
    common(p_sweep)
    p_sweep.add_argument("--max-designs", type=int, default=64)
    p_sweep.add_argument("--csv", help="also write the front to this CSV file")
    p_sweep.add_argument("--incremental", action="store_true",
                         help="build the MILP once and retighten it across the sweep")
    p_sweep.add_argument("--telemetry", action="store_true",
                         help="print solver statistics aggregated over the sweep")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel branch-and-bound workers per cost cap "
                         "(bozo solver); the front is identical to the serial sweep")
    p_sweep.add_argument("--trace", metavar="FILE", default=None,
                         help="stream structured sweep/solve events to this JSONL file")
    p_sweep.add_argument("--progress", action="store_true",
                         help="print rate-limited progress lines during each solve")
    p_sweep.add_argument("--cuts", choices=("auto", "off"), default="auto",
                         help="root cutting planes (bozo solver); see 'synthesize --cuts'")
    p_sweep.add_argument("--cut-rounds", type=int, default=5, dest="cut_rounds",
                         help="maximum root separation rounds with --cuts auto "
                         "(default: 5)")
    p_sweep.add_argument("--strong-branching", type=int, default=8,
                         dest="strong_branching", metavar="K",
                         help="root strong-branching candidate limit; 0 disables "
                         "(default: 8)")
    p_sweep.add_argument("--pricing", choices=("devex", "dantzig"), default="devex",
                         help="revised-simplex pricing rule (bozo solver); "
                         "see 'synthesize --pricing'")
    p_sweep.set_defaults(func=cmd_sweep)

    p_paper = sub.add_parser("paper", help="regenerate a paper table/figure")
    p_paper.add_argument(
        "--artifact",
        choices=("table2", "table4", "table5", "figure2", "experiment1",
                 "experiment2", "sizes", "all"),
        default="all",
    )
    p_paper.add_argument("--solver", default="auto")
    p_paper.add_argument("--gantt", action="store_true")
    p_paper.add_argument("--report",
                         help="regenerate everything into a markdown report file")
    p_paper.set_defaults(func=cmd_paper)

    p_info = sub.add_parser("info", help="describe a problem and its MILP")
    common(p_info)
    p_info.set_defaults(func=cmd_info)

    p_validate = sub.add_parser(
        "validate", help="re-check a saved design against the §3.3 constraints"
    )
    common(p_validate)
    p_validate.add_argument("design", help="design JSON produced by 'synthesize --output'")
    p_validate.set_defaults(func=cmd_validate)

    p_baseline = sub.add_parser(
        "baseline", help="heuristic co-synthesis (allocation enumeration + list scheduling)"
    )
    common(p_baseline)
    p_baseline.add_argument("--refine", action="store_true",
                            help="apply local-search refinement")
    p_baseline.add_argument("--compare-exact", action="store_true",
                            help="also run the exact MILP sweep and report coverage")
    p_baseline.set_defaults(func=cmd_baseline)

    p_stats = sub.add_parser(
        "stats", help="schedule analytics of a saved design (critical path, utilization)"
    )
    common(p_stats)
    p_stats.add_argument("design", help="design JSON produced by 'synthesize --output'")
    p_stats.add_argument("--trace", action="store_true",
                         help="also print the chronological event trace")
    p_stats.set_defaults(func=cmd_stats)

    p_dot = sub.add_parser("dot", help="emit Graphviz DOT (task graph or design)")
    common(p_dot)
    p_dot.add_argument("--design", action="store_true",
                       help="synthesize and render the system instead of the graph")
    p_dot.add_argument("--cost-cap", type=float, default=None)
    p_dot.add_argument("--output", help="write DOT here instead of stdout")
    p_dot.set_defaults(func=cmd_dot)

    p_bench = sub.add_parser(
        "bench", help="quick kernel benchmark (pivots/sec, wall) on the "
        "standard models"
    )
    p_bench.add_argument("--pricing", choices=("devex", "dantzig"),
                         default="devex",
                         help="revised-simplex pricing rule to benchmark")
    p_bench.add_argument("--profile", metavar="FILE", default=None,
                         help="capture the run under cProfile and dump the "
                         "stats artifact here (inspect with python -m pstats)")
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="run the synthesis job service (JSON over HTTP)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="TCP port (0 picks a free ephemeral port)")
    p_serve.add_argument("--job-workers", type=int, default=2,
                         help="concurrent synthesis jobs")
    p_serve.add_argument("--cache-bytes", type=int, default=64 * 1024 * 1024,
                         help="in-memory result-cache budget in bytes")
    p_serve.add_argument("--cache-dir", default=None,
                         help="optional on-disk cache directory "
                         "(survives restarts)")
    p_serve.add_argument("--threaded", action="store_true",
                         help="use the legacy thread-per-request HTTP server "
                              "instead of the asyncio front end")
    p_serve.add_argument("--solve-processes", type=int, default=2,
                         help="solve worker processes (0 = solve on the job "
                              "threads, the pre-/v1 behaviour)")
    p_serve.add_argument("--no-batching", action="store_true",
                         help="disable coalescing of compatible sweep requests")
    p_serve.add_argument("--max-queued", type=int, default=None,
                         help="bound the job queue; excess submissions get 429")
    p_serve.add_argument("--rate-limit", type=float, default=None,
                         help="sustained submissions/second (token bucket); "
                              "over-rate POSTs get 429 + Retry-After")
    p_serve.add_argument("--rate-burst", type=float, default=None,
                         help="token-bucket burst size (default: --rate-limit)")
    p_serve.add_argument("--trace", metavar="FILE", default=None,
                         help="stream cache/job/solve events to this JSONL file")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log HTTP requests to stderr")
    p_serve.set_defaults(func=cmd_serve)

    p_dse = sub.add_parser(
        "dse", help="design-space exploration over technology axes"
    )
    dse_sub = p_dse.add_subparsers(dest="dse_command", required=True)

    p_dse_run = dse_sub.add_parser(
        "run", help="sweep a technology grid (one Pareto front per point)"
    )
    common(p_dse_run)
    p_dse_run.add_argument(
        "--axis", action="append", required=True, metavar="NAME=V1,V2,...",
        help="technology axis (repeatable); NAME is one of "
        "price, speed, remote, link, style, types — e.g. "
        "--axis price=0.5,1,2 --axis style=p2p,bus; "
        "'types' values are '+'-joined type names (p1+p2)",
    )
    p_dse_run.add_argument("--max-designs", type=int, default=64,
                           help="per-point front-size bound (default: 64)")
    p_dse_run.add_argument("--cost-step", type=float, default=1e-4,
                           help="per-point sweep cap decrement (default: 1e-4)")
    p_dse_run.add_argument("--workers", type=int, default=1,
                           help="branch-and-bound workers per solve")
    p_dse_run.add_argument("--cache-dir", default=None,
                           help="on-disk result cache shared across studies "
                           "(and with 'sos serve')")
    p_dse_run.add_argument("--cache-bytes", type=int, default=0,
                           help="in-memory result-cache budget in bytes "
                           "(implied by --cache-dir)")
    p_dse_run.add_argument("--manifest", metavar="FILE", default=None,
                           help="JSONL study journal; an interrupted study "
                           "resumes from its completed points")
    p_dse_run.add_argument("--output", metavar="FILE", default=None,
                           help="write the frontier surface JSON here "
                           "(render it later with 'sos dse report')")
    p_dse_run.add_argument("--seed-incumbent", action="store_true",
                           help="seed each solve with the list-scheduling "
                           "incumbent")
    p_dse_run.add_argument("--expect-warm", action="store_true",
                           help="exit nonzero unless every point was answered "
                           "warm (cache hit or manifest replay) — CI guard")
    p_dse_run.add_argument("--verbose", action="store_true",
                           help="print one status line per grid point")
    p_dse_run.set_defaults(func=cmd_dse_run)

    p_dse_report = dse_sub.add_parser(
        "report", help="render comparison tables from a saved surface"
    )
    common(p_dse_report)
    p_dse_report.add_argument("surface",
                              help="surface JSON written by 'dse run --output'")
    p_dse_report.add_argument("--deadlines", type=float, nargs="+", default=None,
                              help="explicit deadline ladder for the "
                              "comparison matrix")
    p_dse_report.add_argument("--csv", metavar="FILE", default=None,
                              help="also write the overview as CSV here")
    p_dse_report.set_defaults(func=cmd_dse_report)

    p_trace = sub.add_parser(
        "trace", help="summarize a JSONL solve trace written by --trace"
    )
    p_trace.add_argument("trace_file", help="JSONL trace file written by --trace FILE")
    p_trace.add_argument("--replay-stats", action="store_true",
                         help="also rebuild SolveStats from the event stream")
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (returns the process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
