"""Command-line interface: ``repro`` / ``python -m repro`` / ``repro-mshc``.

Subcommands
-----------
* ``describe``   — print a workload preset's characteristics.
* ``run``        — run one algorithm (se, ga, sa, tabu, heft, minmin,
  maxmin, olb, random) on a preset and print the schedule summary.
* ``compare``    — head-to-head of the iterative engines under one
  wall-clock budget with an ASCII plot (``--algos se,ga,sa,tabu``;
  defaults to the paper's SE-vs-GA pairing).
* ``algorithms`` — list every registry algorithm with the parameter
  names its :class:`~repro.runner.spec.AlgorithmSpec` accepts.
* ``figure``     — regenerate one of the paper's figures (3a, 3b, 4a,
  4b, 5, 6, 7) as an ASCII chart.
* ``sweep``      — a parallel algorithms × workload-grid × seeds sweep
  through :mod:`repro.runner` (``--workers N``, resume via ``--cache``),
  with JSON/CSV artifacts and a league table; ``--network nic`` runs
  every algorithm against the NIC-contention backend, ``--platform``
  costs every cell against a priced machine catalog.
* ``pareto``     — trace the (makespan, cost) front of one preset on a
  priced platform: one SA/tabu run per scalarization weight, all
  sharing one Pareto tracker, plus the cheapest-within-1.2x pick.
* ``export``     — write artifacts to disk: the workload as JSON, its
  DAG as Graphviz DOT, and an SE schedule as JSON + SVG Gantt chart.
* ``perf``       — performance tracking: ``perf check`` gates a fresh
  ``BENCH_micro.json`` against the committed baseline (non-zero exit on
  regression — this is CI's perf job); ``perf show`` pretty-prints a
  BENCH file.

Examples::

    repro describe --preset fig5 --seed 7
    repro run --algo sa --preset small --seed 7 --iterations 200
    repro compare --preset fig6 --budget 10 --seed 1 --algos se,ga,tabu
    repro algorithms
    repro figure 3a --seed 11 --iterations 300
    repro sweep --algorithms se,ga,sa,tabu,random --tasks 40 \\
        --machines 8 --seeds 1,2,3 --workers 8 --out results
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.runner.registry import (
    ENGINES,
    algorithm_parameters,
    available_algorithms,
    heuristic,
)

if TYPE_CHECKING:
    from repro.model import Workload


def _paper_sample(seed: Optional[int]) -> Workload:
    from repro.model import paper_sample_workload

    return paper_sample_workload()


def _preset(factory: str) -> Callable[[Optional[int]], Workload]:
    """The :mod:`repro.workloads` *factory*, imported when first called."""

    def load(seed: Optional[int]) -> Workload:
        from repro import workloads

        return getattr(workloads, factory)(seed)

    return load


PRESETS: dict[str, Callable[[Optional[int]], Workload]] = {
    "paper-sample": _paper_sample,
    "small": _preset("small_workload"),
    "fig3": _preset("figure3_workload"),
    "fig4a": _preset("figure4a_workload"),
    "fig4b": _preset("figure4b_workload"),
    "fig5": _preset("figure5_workload"),
    "fig6": _preset("figure6_workload"),
    "fig7": _preset("figure7_workload"),
}


def _load_workload(preset: str, seed: Optional[int]) -> Workload:
    try:
        factory = PRESETS[preset]
    except KeyError:
        raise SystemExit(
            f"unknown preset {preset!r}; choose from {', '.join(PRESETS)}"
        )
    return factory(seed)


def _cmd_describe(args: argparse.Namespace) -> int:
    w = _load_workload(args.preset, args.seed)
    print(w.describe())
    return 0


def _check_platform(command: str, platform: str) -> None:
    """Turn an unknown ``--platform`` into a clean CLI error."""
    from repro.schedule.backend import resolve_platform

    try:
        resolve_platform(platform)
    except ValueError as exc:
        raise SystemExit(f"{command}: {exc}")


def _risk_algos() -> list[str]:
    """Registry algorithms that optimise a configurable objective — the
    only ones the risk flags (--objective/--scenarios/--distribution)
    apply to."""
    return [
        a for a in available_algorithms() if "objective" in algorithm_parameters(a)
    ]


def _risk_requested(args: argparse.Namespace) -> bool:
    """True when any risk flag departs from its deterministic default."""
    return (
        args.objective != "makespan"
        or args.scenarios != 0
        or args.distribution != "deterministic"
    )


def _risk_params(args: argparse.Namespace) -> dict:
    return {
        "objective": args.objective,
        "scenarios": args.scenarios,
        "distribution": args.distribution,
        "scenario_seed": args.scenario_seed,
    }


def _evaluation_fields(command: str, args: argparse.Namespace):
    """The evaluation settings the flags select, validated up front.

    The risk flags only make sense together — a scenario objective
    needs ``--scenarios``, and scenario sampling needs a scenario
    objective — so an invalid bundle (or platform) is a clean CLI error
    instead of a config-construction traceback.
    """
    from repro.optim.evaluation import EvaluationFields

    try:
        return EvaluationFields(
            network=args.network, platform=args.platform, **_risk_params(args)
        )
    except ValueError as exc:
        raise SystemExit(f"{command}: {exc}")


def _print_risk_profile(fields, w: Workload, best) -> None:
    """Report the winner's makespan distribution over the scenario set."""
    from repro.analysis.robust import RiskSummary

    svc = fields.evaluation_service(w)
    samples = svc.scenario_evaluator.samples_string(best)
    obj = svc.objective
    print(
        f"\n{obj.name} over {fields.scenarios} x {fields.distribution} "
        f"scenarios (seed {fields.scenario_seed}): {obj.reduce(samples):.2f}"
    )
    if obj.kind == "saa":
        verdict = "satisfied" if obj.feasible(samples) else "VIOLATED"
        print(f"chance constraint: {verdict}")
    print("risk profile of the winner:")
    print("\n".join(RiskSummary.from_samples(samples).format_lines("  ")))


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.schedule import Timeline, compute_metrics
    from repro.schedule.backend import make_simulator

    fields = _evaluation_fields("run", args)
    accepted = algorithm_parameters(args.algo)
    if _risk_requested(args) and "objective" not in accepted:
        raise SystemExit(
            f"run: --objective/--scenarios/--distribution apply to "
            f"{', '.join(_risk_algos())} only, not {args.algo!r} "
            "(deterministic heuristics have no objective to swap)"
        )
    w = _load_workload(args.preset, args.seed)
    entry = ENGINES.get(args.algo)
    if entry is None:  # a deterministic heuristic
        res = heuristic(args.algo)(
            w, network=args.network, platform=args.platform
        )
    else:
        flags = {"y_candidates": args.y, "selection_bias": args.bias}
        config = entry.build(
            seed=args.seed,
            **asdict(fields),
            **entry.limits(entry.scale * args.iterations, args.budget),
            **{k: v for k, v in flags.items() if k in accepted},
        )
        res = entry.run(w, config)
    if entry is None or entry.counts is None:
        print(f"{res.name} finished ({res.evaluations} evaluations)")
        best, schedule, makespan = res.string, res.schedule, res.makespan
    else:
        print(
            f"{entry.label} finished: {getattr(res, entry.counts)} "
            f"{entry.unit}, {res.evaluations} evaluations, "
            f"stopped by {res.stopped_by}"
        )
        best, schedule = res.best_string, res.best_schedule
        makespan = res.best_makespan
    # metrics (and billing) against the workload the run actually
    # scored: the platform's speed-scaled matrix, or w itself on uniform
    sim = make_simulator(w, args.network, platform=args.platform)
    if args.verbose:
        walker = sim.walker_tier
        if sim.walker_reason is not None:
            walker += f" ({sim.walker_reason})"
        print(f"scalar walker: {walker}")
        print("platform catalogs (--platform):")
        print(_platforms_listing())

    if fields.scenarios:  # validated: > 0 exactly for scenario objectives
        # engines report the winner's *nominal* makespan; the optimised
        # risk statistic follows in the profile block
        print(f"\nnominal makespan ({args.network}): {makespan:.2f}")
        _print_risk_profile(fields, w, best)
    else:
        print(f"\nmakespan ({args.network}): {makespan:.2f}")
    eff, cost_model = sim.workload, sim.cost_model
    if cost_model is not None:
        machines = best.machines
        print(
            f"cost ({args.platform}): "
            f"{cost_model.cost(machines):.4f} usd"
        )
    print()
    print(compute_metrics(eff, schedule).describe())
    if args.gantt:
        print("\n" + Timeline(schedule, w.num_machines).render_ascii())
    return 0


def _check_time_grid(command: str, args: argparse.Namespace) -> None:
    """Exit cleanly on a ``--budget`` / ``--points`` no grid can take."""
    from repro.analysis.compare import make_time_grid

    try:
        make_time_grid(args.budget, args.points)
    except ValueError as exc:
        raise SystemExit(f"{command}: {exc}")


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.ascii_plot import Series, line_plot
    from repro.analysis.compare import compare_named, comparison_names

    _check_time_grid("compare", args)
    try:
        algos = comparison_names(args.algos.split(","))
    except ValueError as exc:
        raise SystemExit(f"compare: {exc}")
    w = _load_workload(args.preset, args.seed)
    print(w.describe())
    names = " and ".join(a.upper() for a in algos)
    print(
        f"\nrunning {names} for {args.budget:.1f}s each "
        f"on {args.network!r} ..."
    )
    try:
        cmp = compare_named(
            w,
            algos,
            time_budget=args.budget,
            grid_points=args.points,
            seed=args.seed,
            network=args.network,
            platform=args.platform,
        )
    except ValueError as exc:
        raise SystemExit(f"compare: {exc}")
    series = [
        Series(s.name, s.time_grid, s.best_at) for s in cmp.series
    ]
    print(
        line_plot(
            series,
            title=f"best schedule length vs time — {w.name}",
            x_label="seconds",
            y_label="schedule length",
        )
    )
    for s in cmp.series:
        print(f"{s.name}: final best = {s.final_best:.1f} ({s.iterations} iters)")
    print("winner timeline:", " ".join(str(x) for x in cmp.winner_timeline()))
    return 0


def _cmd_race(args: argparse.Namespace) -> int:
    _check_platform("race", args.platform)
    from repro.analysis import anytime_table
    from repro.portfolio import RaceConfig, run_race

    w = _load_workload(args.preset, args.seed)
    # --deadline 0 disables the wall clock (pure iteration-capped race)
    deadline = args.deadline if args.deadline and args.deadline > 0 else None
    if args.sync_every is not None:
        deadline = None  # lockstep races are iteration-capped only
    try:
        cfg = RaceConfig(
            engines=args.engines,
            islands=args.islands,
            deadline=deadline,
            max_iterations=args.iterations,
            sync_every=args.sync_every,
            exchange_interval=args.exchange_interval,
            mode=args.mode,
            network=args.network,
            platform=args.platform,
            seed=args.seed,
        )
    except ValueError as exc:
        raise SystemExit(f"race: {exc}")
    budget = (
        f"{cfg.deadline:.1f}s deadline"
        if cfg.deadline is not None
        else f"{cfg.max_iterations} iterations"
    )
    print(
        f"racing {cfg.islands} islands ({','.join(cfg.engines)}) on "
        f"{args.preset!r} under a {budget} per island "
        f"[{'lockstep' if cfg.sync_every else cfg.mode} mode] ..."
    )
    res = run_race(w, cfg)
    if args.verbose:
        for o in res.islands:
            print(
                f"island {o.island} ({o.kind}, seed {o.seed}): "
                f"started +{o.start_offset:.2f}s"
            )
    print(anytime_table(res))
    if args.verbose:
        curve = res.combined_anytime()
        print("combined anytime curve (s -> best):")
        for t, cost in curve:
            print(f"  {t:8.3f}  {cost:.2f}")
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(res.to_dict(), indent=2))
        print(f"wrote {path}")
    return 0


def _algorithms_listing() -> str:
    """Every registry algorithm with its accepted parameter names."""
    lines = []
    for name in available_algorithms():
        params = algorithm_parameters(name)
        detail = ", ".join(params) if params else "(no parameters)"
        lines.append(f"  {name:8s} {detail}")
    return "\n".join(lines)


def _platforms_listing() -> str:
    """Every registered platform with its description."""
    from repro.schedule.backend import available_platforms, resolve_platform

    lines = []
    for name in available_platforms():
        spec = resolve_platform(name)
        detail = spec.description or f"{len(spec.instances)} instance types"
        lines.append(f"  {name:10s} {detail}")
    return "\n".join(lines)


def _networks_listing() -> str:
    """Every network model name."""
    from repro.schedule.backend import available_networks

    return "\n".join(f"  {name}" for name in available_networks())


def _objectives_listing() -> str:
    """Every objective grammar form with its scenario requirement."""
    from repro.optim.objective import OBJECTIVE_FORMS

    lines = []
    for form, needs_scenarios, desc in OBJECTIVE_FORMS:
        tag = "scenario" if needs_scenarios else "deterministic"
        lines.append(f"  {form:26s} [{tag}] {desc}")
    return "\n".join(lines)


def _distributions_listing() -> str:
    """Every duration-noise distribution form."""
    from repro.stochastic.distributions import DISTRIBUTION_FORMS

    return "\n".join(
        f"  {form:26s} {desc}" for form, desc in DISTRIBUTION_FORMS
    )


def _cmd_algorithms(args: argparse.Namespace) -> int:
    print("registry algorithms and their AlgorithmSpec parameters:")
    print(_algorithms_listing())
    print("\nnetwork models (--network):")
    print(_networks_listing())
    print("\nplatform catalogs (--platform):")
    print(_platforms_listing())
    print("\nobjectives (--objective; scenario forms need --scenarios):")
    print(_objectives_listing())
    print("\nduration distributions (--distribution):")
    print(_distributions_listing())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.analysis.ascii_plot import Series, line_plot
    from repro.analysis.compare import compare_named
    from repro.core import SEConfig, run_se

    fig = args.id
    seed = args.seed
    iters = args.iterations
    if fig in ("3a", "3b"):
        w = _load_workload("fig3", seed)
        res = run_se(w, SEConfig(seed=seed, max_iterations=iters))
        tr = res.trace
        if fig == "3a":
            series = [Series("selected subtasks", tr.iterations(), tr.selected_counts())]
            ylab = "number of selected subtasks"
        else:
            series = [Series("schedule length", tr.iterations(), tr.current_makespans())]
            ylab = "schedule length"
        print(line_plot(series, title=f"Figure {fig}", x_label="iteration", y_label=ylab))
    elif fig in ("4a", "4b"):
        w = _load_workload(f"fig{fig}", seed)
        series = []
        for y in (5, 9, 12):
            res = run_se(
                w, SEConfig(seed=seed, max_iterations=iters, y_candidates=y)
            )
            tr = res.trace
            series.append(Series(f"Y={y}", tr.iterations(), tr.best_makespans()))
        print(
            line_plot(
                series,
                title=f"Figure {fig} — effect of Y",
                x_label="iteration",
                y_label="schedule length",
            )
        )
    elif fig in ("5", "6", "7"):
        _check_time_grid("figure", args)
        w = _load_workload(f"fig{fig}", seed)
        cmp = compare_named(
            w, ["se", "ga"], time_budget=args.budget, grid_points=args.points,
            seed=seed,
        )
        series = [Series(s.name, s.time_grid, s.best_at) for s in cmp.series]
        print(
            line_plot(
                series,
                title=f"Figure {fig} — SE vs GA on {w.name}",
                x_label="seconds",
                y_label="best schedule length",
            )
        )
    else:
        raise SystemExit(f"unknown figure {fig!r}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.grid import grid_from_experiment
    from repro.runner import (
        AlgorithmSpec,
        ExperimentSpec,
        print_progress,
        run_experiment,
    )
    from repro.workloads import WorkloadSuite

    _evaluation_fields("sweep", args)
    algos = [a.strip().lower() for a in args.algos.split(",") if a.strip()]
    unknown = sorted(set(algos) - set(available_algorithms()))
    if unknown:
        raise SystemExit(
            f"unknown algorithms {unknown}; available (with their "
            f"AlgorithmSpec parameters):\n{_algorithms_listing()}"
        )
    if _risk_requested(args):
        bad = sorted(set(algos) - set(_risk_algos()))
        if bad:
            raise SystemExit(
                f"sweep: --objective/--scenarios/--distribution apply to "
                f"{', '.join(_risk_algos())} only; drop {bad} from "
                "--algorithms"
            )

    def algo_spec(kind: str) -> AlgorithmSpec:
        params = {"network": args.network, "platform": args.platform}
        # only annotate specs when risk flags were set: default params
        # keep historical cell fingerprints, so existing caches resume
        if _risk_requested(args):
            params.update(_risk_params(args))
        entry = ENGINES.get(kind)
        if entry is not None:
            # --budget lifts the iteration cap; heuristics take neither
            cap = None if args.budget is not None else entry.scale * args.iterations
            params.update(entry.limits(cap, args.budget))
        return AlgorithmSpec.make(kind, **params)

    suite = WorkloadSuite(
        num_tasks=args.tasks,
        num_machines=args.machines,
        connectivities=tuple(args.connectivities.split(",")),
        heterogeneities=tuple(args.heterogeneities.split(",")),
        ccrs=tuple(float(c) for c in args.ccrs.split(",")),
        replicates=args.replicates,
        seed=args.suite_seed,
    )
    seeds = tuple(int(s) for s in args.seeds.split(","))
    spec = ExperimentSpec(
        name=args.name,
        algorithms={a: algo_spec(a) for a in algos},
        workloads=[cell.spec for cell in suite],
        seeds=seeds,
        base_seed=args.base_seed,
    )
    print(
        f"sweep '{args.name}': {len(algos)} algorithms x {len(suite)} "
        f"workloads x {len(seeds)} seeds = {len(spec)} cells "
        f"({args.workers} workers)"
    )
    result = run_experiment(
        spec,
        workers=args.workers,
        cache_dir=args.cache,
        progress=print_progress if not args.quiet else None,
        keep_traces=args.traces,
    )

    grid = grid_from_experiment(result)
    print("\nleague (geometric-mean normalized makespan, lower = better):")
    for algo, score in grid.league_table():
        print(f"  {algo:10s} {score:.3f}")
    if args.platform != "uniform":
        print(f"\nmean schedule cost on {args.platform!r} (usd):")
        for algo in grid.algorithms:
            costs = [c.cost for c in grid.cells if c.algorithm == algo]
            print(f"  {algo:10s} {sum(costs) / len(costs):.4f}")
    pairs = [(a, b) for a in grid.algorithms for b in grid.algorithms if a < b]
    for a, b in pairs[:6]:
        rec = grid.win_loss(a, b)
        print(f"  {a} vs {b}: {rec.describe()} (win rate {rec.win_rate():.2f})")

    if args.out:
        from pathlib import Path

        out = Path(args.out)
        print()
        print(f"wrote {result.save_json(out / f'{args.name}.json')}")
        print(f"wrote {result.save_csv(out / f'{args.name}.csv')}")
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    """Trace the (makespan, cost) front of one preset on one platform.

    One SA/tabu run per scalarization weight, every run sharing one
    :class:`~repro.optim.tracking.ParetoTracker` through its
    :class:`~repro.optim.evaluation.EvaluationService` — every point any
    run scores is offered, so the front is finer than the per-weight
    winners alone.  Objectives are normalized by a HEFT reference point
    so a cost weight in [0, 1] reads as "fraction of the scalar devoted
    to cost".
    """
    from repro.analysis.pareto import cheapest_within, pareto_table
    from repro.baselines import heft
    from repro.optim import ParetoTracker

    _check_platform("pareto", args.platform)
    w = _load_workload(args.preset, args.seed)
    if args.platform == "uniform":
        raise SystemExit(
            "pareto: the uniform platform has no billing table (cost is "
            "identically 0) — pick a priced catalog, e.g. --platform spot"
        )
    try:
        weights = sorted(
            float(x) for x in args.weights.split(",") if x.strip()
        )
    except ValueError:
        raise SystemExit(f"pareto: bad --weights {args.weights!r}")
    if not weights or not all(0.0 <= wc <= 1.0 for wc in weights):
        raise SystemExit("pareto: --weights must be numbers in [0, 1]")

    ref = heft(w, network=args.network, platform=args.platform)
    print(
        f"HEFT reference on {args.platform!r}: makespan "
        f"{ref.makespan:.3f}, cost {ref.cost:.4f} usd"
    )
    span_scale = 1.0 / max(ref.makespan, 1e-12)
    cost_scale = 1.0 / max(ref.cost, 1e-12)

    tracker = ParetoTracker()
    tracker.offer(ref.makespan, ref.cost)
    ref_point = None  # the pure-makespan engine run's scored best
    for i, wc in enumerate(weights):
        objective = (
            "makespan"
            if wc == 0.0
            else f"weighted:{(1.0 - wc) * span_scale!r}:{wc * cost_scale!r}"
        )
        entry = ENGINES[args.algo]
        config = entry.build(
            seed=args.seed + i,
            network=args.network,
            platform=args.platform,
            objective=objective,
            **entry.limits(entry.scale * args.iterations, args.budget),
        )
        service = config.evaluation_service(w, pareto=tracker)
        res = entry.run(w, config, service=service)
        score = service.score_of(res.best_string)
        if wc == 0.0 and ref_point is None:
            ref_point = score
        print(
            f"  w_cost={wc:.2f}: makespan {score.makespan:.3f}, "
            f"cost {score.cost:.4f} usd ({res.evaluations} evaluations)"
        )

    front = tracker.front
    if ref_point is None:  # no pure-makespan run: anchor on the front
        ref_point = front[0]
    print(
        f"\npareto front — {len(front)} points "
        f"from {tracker.offers} scored offers:"
    )
    print(pareto_table(front, reference=ref_point))
    pick = cheapest_within(front, factor=args.factor)
    saving = (
        (1.0 - pick.cost / ref_point.cost) * 100.0
        if ref_point.cost > 0
        else 0.0
    )
    print(
        f"\ncheapest within {args.factor:g}x of best makespan: "
        f"makespan {pick.makespan:.3f} "
        f"({pick.makespan / front[0].makespan:.3f}x), "
        f"cost {pick.cost:.4f} usd "
        f"({saving:.1f}% cheaper than the reference schedule)"
    )
    return 0


def _cmd_perf_check(args: argparse.Namespace) -> int:
    from repro import perf

    try:
        comparison = perf.check_files(
            args.current, args.baseline, tolerance=args.tolerance
        )
    except FileNotFoundError as exc:
        raise SystemExit(f"perf check: missing BENCH file: {exc}")
    except ValueError as exc:
        raise SystemExit(f"perf check: {exc}")
    print(comparison.describe())
    return 0 if comparison.ok else 1


def _cmd_perf_show(args: argparse.Namespace) -> int:
    from repro import perf

    try:
        records = perf.load_records(args.file)
    except FileNotFoundError as exc:
        raise SystemExit(f"perf show: missing BENCH file: {exc}")
    except ValueError as exc:
        raise SystemExit(f"perf show: {exc}")
    for r in sorted(records, key=lambda r: r.key):
        print(
            f"{r.bench:28s} {r.metric:18s} {r.value:>12.4g} {r.unit:4s} "
            f"[commit {r.commit}, python {r.python}]"
        )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core import SEConfig, run_se
    from repro.io import save_dot, save_json, save_svg

    w = _load_workload(args.preset, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = w.name

    written = [
        save_json(w, out / f"{stem}.workload.json"),
        save_dot(w.graph, out / f"{stem}.dot", name=stem),
    ]
    if args.schedule:
        res = run_se(
            w, SEConfig(seed=args.seed, max_iterations=args.iterations)
        )
        written.append(
            save_json(res.best_schedule, out / f"{stem}.schedule.json")
        )
        written.append(
            save_svg(w, res.best_schedule, out / f"{stem}.gantt.svg")
        )
        written.append(save_json(res.trace, out / f"{stem}.trace.json"))
        print(f"SE best makespan: {res.best_makespan:.1f}")
    for p in written:
        print(f"wrote {p}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.online import flow_table, summary_lines
    from repro.online import (
        DynamicSimulator,
        ReoptConfig,
        load_trace,
        poisson_stream,
        rate_for_utilisation,
        save_trace,
    )
    from repro.workloads.presets import WorkloadSpec

    template = WorkloadSpec(
        num_tasks=args.tasks,
        num_machines=args.machines,
        connectivity=args.connectivity,
        heterogeneity=args.heterogeneity,
        ccr=args.ccr,
    )
    if args.trace_in:
        stream = load_trace(args.trace_in)
        print(f"replaying trace {args.trace_in} ({len(stream)} jobs)")
    else:
        rate = args.rate
        if rate is None:
            rate = rate_for_utilisation(template, args.util)
            print(
                f"lambda={rate:.6g} jobs/unit-time "
                f"(target utilisation {args.util:g})"
            )
        stream = poisson_stream(rate, args.jobs, template, seed=args.seed)
    if args.trace_out:
        save_trace(stream, args.trace_out)
        print(f"wrote trace {args.trace_out}")

    reopt = None
    if args.reopt != "off":
        reopt = ReoptConfig(
            interval=args.reopt_interval,
            engine=args.reopt,
            max_iterations=args.reopt_budget,
        )
    service = DynamicSimulator(
        stream,
        network=args.network,
        policy=args.policy,
        reopt=reopt,
        seed=args.seed,
    )
    result = service.run()

    if args.log_out:
        Path(args.log_out).write_text(result.event_log_json() + "\n")
        print(f"wrote event log {args.log_out}")
    if args.table:
        print(flow_table(result))
        print()
    for line in summary_lines(result):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mshc",
        description=(
            "Simulated Evolution for task matching and scheduling in "
            "heterogeneous systems (IPPS 2001 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_risk_flags(p: argparse.ArgumentParser) -> None:
        """The risk bundle shared by run and sweep."""
        p.add_argument(
            "--objective",
            default="makespan",
            help="scalar to optimise: makespan, weighted:<wm>:<wc>, or "
            "a scenario objective mean / quantile:<q> / cvar:<q> / "
            "saa:<T>:<eps> (see `repro algorithms`)",
        )
        p.add_argument(
            "--scenarios",
            type=int,
            default=0,
            help="Monte-Carlo scenarios backing a scenario objective "
            "(0 = deterministic)",
        )
        p.add_argument(
            "--distribution",
            default="deterministic",
            help="duration-noise model for scenario sampling, e.g. "
            "lognormal:0.25 (see `repro algorithms`)",
        )
        p.add_argument(
            "--scenario-seed",
            type=int,
            default=0,
            help="seed of the scenario sample (independent of --seed)",
        )

    def add_backend_flags(
        p: argparse.ArgumentParser,
        network_help: Optional[str],
        platform_help: str,
        platform: str = "uniform",
    ) -> None:
        """The --network / --platform pair of every engine command."""
        p.add_argument(
            "--network",
            default="contention-free",
            choices=["contention-free", "nic"],
            help=network_help,
        )
        p.add_argument("--platform", default=platform, help=platform_help)

    p = sub.add_parser("describe", help="print a workload preset summary")
    p.add_argument("--preset", default="small", choices=sorted(PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("run", help="run one algorithm on a preset")
    p.add_argument(
        "--algo",
        default="se",
        choices=[
            "se", "ga", "sa", "tabu", "heft", "minmin", "maxmin", "olb",
            "random",
        ],
    )
    p.add_argument("--preset", default="small", choices=sorted(PRESETS))
    p.add_argument("--seed", type=int, default=0)
    scaled = ", ".join(
        f"{kind} gets {e.scale} {e.unit} per unit"
        for kind, e in ENGINES.items()
        if e.scale != 1
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=200,
        help=f"iteration cap ({scaled})",
    )
    p.add_argument("--budget", type=float, default=None, help="seconds")
    p.add_argument("--y", type=int, default=None, help="SE Y parameter")
    p.add_argument("--bias", type=float, default=None, help="SE selection bias B")
    add_backend_flags(
        p,
        "simulator backend: paper model or NIC serialisation",
        "machine catalog the run is costed against "
        "(see `repro algorithms`; default changes nothing)",
    )
    add_risk_flags(p)
    p.add_argument("--gantt", action="store_true", help="print ASCII Gantt chart")
    p.add_argument(
        "--verbose",
        action="store_true",
        help="also print backend details (scalar walker tier, "
        "platform catalogs)",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "compare",
        help="iterative engines head-to-head under one wall-clock budget",
    )
    p.add_argument("--preset", default="small", choices=sorted(PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=float, default=10.0, help="seconds per algorithm")
    p.add_argument("--points", type=int, default=16)
    p.add_argument(
        "--algos",
        default="se,ga",
        help="comma list of engines to race (se, ga, sa, tabu)",
    )
    add_backend_flags(
        p,
        "simulator backend every engine optimises against",
        "machine catalog every engine races on",
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "race",
        help="anytime portfolio: race every engine in parallel, share "
        "the incumbent, best schedule at the deadline",
    )
    p.add_argument("--preset", default="small", choices=sorted(PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--deadline",
        type=float,
        default=2.0,
        help="wall-clock budget in seconds per island (0 disables; "
        "ignored under --sync-every)",
    )
    p.add_argument(
        "--engines",
        default="se,ga,sa,tabu",
        help="comma list of engine kinds to race (se, ga, sa, tabu)",
    )
    p.add_argument(
        "--islands",
        type=int,
        default=0,
        help="island count; 0 = one per engine, extra islands are "
        "seeded restarts, 1 disables the exchange (solo golden run)",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="per-island iteration cap in each engine's own unit "
        "(required with --sync-every)",
    )
    p.add_argument(
        "--sync-every",
        type=int,
        default=None,
        help="deterministic lockstep exchange every N own-iterations "
        "(threads; reproducible bit for bit at a fixed seed)",
    )
    p.add_argument(
        "--exchange-interval",
        type=int,
        default=None,
        help="incumbent poll stride for all islands (default: "
        "per-engine, see repro.portfolio.islands)",
    )
    p.add_argument(
        "--mode",
        default="process",
        choices=["process", "thread"],
        help="island execution: one process per island (default) or "
        "GIL-sharing threads",
    )
    add_backend_flags(
        p,
        "simulator backend every island optimises against",
        "machine catalog every island is costed against",
    )
    p.add_argument(
        "--output",
        default=None,
        help="write the race summary (islands, anytime curves) as JSON",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="also print each island's start offset and the combined "
        "anytime curve",
    )
    p.set_defaults(func=_cmd_race)

    p = sub.add_parser(
        "algorithms",
        help="list registry algorithms and their parameter names",
    )
    p.set_defaults(func=_cmd_algorithms)

    p = sub.add_parser(
        "sweep",
        help="parallel algorithms x workload-grid x seeds sweep",
    )
    p.add_argument("--name", default="sweep", help="experiment name")
    p.add_argument(
        "--algos",
        "--algorithms",
        dest="algos",
        default="se,ga,heft",
        help="comma list of registry algorithms (see `repro algorithms`)",
    )
    p.add_argument("--tasks", type=int, default=40)
    p.add_argument("--machines", type=int, default=8)
    p.add_argument("--connectivities", default="low,high")
    p.add_argument("--heterogeneities", default="low,high")
    p.add_argument("--ccrs", default="0.1,1.0")
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--suite-seed", type=int, default=0, help="workload-draw seed")
    p.add_argument("--seeds", default="0", help="comma list of replicate seeds")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=100, help="SE/GA cap")
    p.add_argument(
        "--budget", type=float, default=None,
        help=(
            "wall-clock seconds per se/ga/sa/tabu/random run (lifts "
            "iteration/sample caps; deterministic heuristics are "
            "unaffected)"
        ),
    )
    add_backend_flags(
        p,
        "simulator backend every algorithm optimises against",
        "machine catalog every algorithm is costed against "
        "(adds a cost column to the artifacts)",
    )
    add_risk_flags(p)
    p.add_argument("--workers", type=int, default=1, help="process count")
    p.add_argument("--cache", default=None, help="resume-cache directory")
    p.add_argument("--out", default=None, help="write JSON+CSV artifacts here")
    p.add_argument("--traces", action="store_true", help="keep convergence traces")
    p.add_argument("--quiet", action="store_true", help="no per-cell progress")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("export", help="write workload/schedule artifacts")
    p.add_argument("--preset", default="small", choices=sorted(PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="artifacts", help="output directory")
    p.add_argument(
        "--schedule",
        action="store_true",
        help="also run SE and export its schedule (JSON + SVG) and trace",
    )
    p.add_argument("--iterations", type=int, default=150)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "pareto",
        help="trace the (makespan, cost) front on a priced platform",
    )
    p.add_argument("--preset", default="small", choices=sorted(PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--algo",
        default="sa",
        choices=["sa", "tabu"],
        help="engine run once per weight (sa and tabu accept a shared "
        "evaluation service)",
    )
    add_backend_flags(
        p,
        None,
        "priced machine catalog (uniform is rejected: cost is 0)",
        platform="spot",
    )
    p.add_argument(
        "--weights",
        default="0,0.2,0.4,0.6,0.8",
        help="comma list of cost weights in [0, 1] (0 = pure makespan)",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=100,
        help="per-weight iteration cap (sa gets 50 proposals per unit)",
    )
    p.add_argument(
        "--budget", type=float, default=None, help="seconds per weight"
    )
    p.add_argument(
        "--factor",
        type=float,
        default=1.2,
        help="makespan slack factor for the cheapest-within pick",
    )
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("perf", help="performance tracking utilities")
    perf_sub = p.add_subparsers(dest="perf_command", required=True)
    pc = perf_sub.add_parser(
        "check",
        help="gate a fresh BENCH file against the committed baseline",
    )
    pc.add_argument(
        "--current",
        default="benchmarks/output/BENCH_micro.json",
        help="freshly generated BENCH JSON",
    )
    pc.add_argument(
        "--baseline",
        default="benchmarks/baseline/BENCH_micro.json",
        help="committed baseline BENCH JSON",
    )
    pc.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="relative tolerance before a change counts as a regression",
    )
    pc.set_defaults(func=_cmd_perf_check)
    ps = perf_sub.add_parser("show", help="pretty-print a BENCH JSON file")
    ps.add_argument(
        "file",
        nargs="?",
        default="benchmarks/output/BENCH_micro.json",
        help="BENCH JSON to print",
    )
    ps.set_defaults(func=_cmd_perf_show)

    p = sub.add_parser(
        "serve",
        help="run the online scheduling service over a job stream",
    )
    p.add_argument(
        "--rate",
        "--lambda",
        dest="rate",
        type=float,
        default=None,
        help="Poisson arrival rate (jobs per unit simulated time); "
        "defaults to the rate giving --util offered load",
    )
    p.add_argument(
        "--util",
        type=float,
        default=0.7,
        help="target offered load used when --rate is omitted",
    )
    p.add_argument("--jobs", type=int, default=50, help="jobs to generate")
    p.add_argument(
        "--policy",
        default="heft",
        choices=["heft", "min-min", "max-min", "olb"],
        help="frontier dispatch policy",
    )
    p.add_argument(
        "--network", default="contention-free", choices=["contention-free", "nic"]
    )
    p.add_argument("--tasks", type=int, default=20, help="tasks per job")
    p.add_argument("--machines", type=int, default=8)
    p.add_argument(
        "--connectivity", default="medium", choices=["low", "medium", "high"]
    )
    p.add_argument(
        "--heterogeneity", default="medium", choices=["low", "medium", "high"]
    )
    p.add_argument("--ccr", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--reopt",
        default="off",
        choices=["off", "sa", "tabu"],
        help="periodic re-optimisation engine",
    )
    p.add_argument(
        "--reopt-interval",
        type=float,
        default=50.0,
        help="simulated time between re-optimisation windows",
    )
    p.add_argument(
        "--reopt-budget",
        type=int,
        default=40,
        help="engine iterations per job per window",
    )
    p.add_argument(
        "--trace-in", default=None, help="replay a saved arrival trace"
    )
    p.add_argument(
        "--trace-out", default=None, help="save the generated arrival trace"
    )
    p.add_argument(
        "--log-out", default=None, help="write the event log as JSON"
    )
    p.add_argument(
        "--table", action="store_true", help="print the per-job flow table"
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("figure", help="regenerate a paper figure (ASCII)")
    p.add_argument("id", choices=["3a", "3b", "4a", "4b", "5", "6", "7"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=300)
    p.add_argument("--budget", type=float, default=10.0)
    p.add_argument("--points", type=int, default=16)
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
