"""ANYTIME / MICRO-PORTFOLIO — the portfolio race earns its machinery.

* ANYTIME — the headline claim: at **equal core-seconds**, the
  four-engine portfolio's best makespan is at least as good as every
  single engine run solo.  A race with ``islands`` islands under a
  per-island deadline ``DL`` consumes ``islands * DL`` core-seconds
  (each island's clock starts when the island starts, whatever the
  worker count), so each solo engine gets an ``islands * DL`` wall
  budget.  Recorded per engine as the geometric-mean ratio
  ``solo_best / portfolio_best`` across seeds (>= 1 means the
  portfolio won or tied).
* MICRO-PORTFOLIO — the exchange machinery must be ~free: a
  fixed-iteration tabu island with a live channel (publishing every
  improvement, polling every ``DEFAULT_INTERVALS['tabu']``-th
  iteration) vs the identical run with no channel at all, timed
  interleaved.  The measured overhead stays within ~5%; CI gates its
  inverse, ``bare_over_exchange`` (higher is better, like every ``x``
  record), against the committed baseline.

Assertion floors are deliberately loose — single-seed wall-clock runs
on a loaded CI box must not flake the job; the strict bar lives in
``repro perf check`` against ``benchmarks/baseline/BENCH_micro.json``.
"""

from repro.analysis import geometric_mean
from repro.portfolio import LocalChannel, RaceConfig, build_islands, run_island, run_race
from repro.runner.registry import resolve_algorithm
from repro.workloads import figure5_workload
from walkers import best_of_interleaved

DEADLINE = 0.5
ISLANDS = 4
SEEDS = (1, 2)
ENGINES = ("se", "ga", "sa", "tabu")


def paper_scale_workload():
    return figure5_workload(seed=1)


def solo_best(kind: str, workload, seed: int, budget: float) -> float:
    """One engine alone under *budget* wall-seconds (same entry the
    runner uses, so configs match the race's engine defaults)."""
    fn = resolve_algorithm(kind)
    params = {"time_limit": budget, "seed": seed}
    if kind == "ga":
        params["stall_generations"] = None
    elif kind == "sa":
        params.update(stall_iterations=None, record_every=100)
    else:
        params["stall_iterations"] = None
    return fn(workload, seed, params).makespan


def test_anytime_portfolio_vs_solo_engines(write_output, perf_log):
    """ANYTIME: the race matches every solo engine at equal core-seconds."""
    w = paper_scale_workload()
    budget = ISLANDS * DEADLINE

    portfolio_bests = {}
    for seed in SEEDS:
        res = run_race(
            w,
            RaceConfig(
                engines=ENGINES,
                islands=ISLANDS,
                deadline=DEADLINE,
                seed=seed,
            ),
        )
        portfolio_bests[seed] = res.best_makespan

    ratios = {}
    lines = [
        "ANYTIME — portfolio race vs each solo engine at equal "
        f"core-seconds\n\n{ISLANDS} islands x {DEADLINE}s deadline "
        f"(= {budget:.1f} core-seconds) on figure5_workload(seed=1)\n",
        f"{'engine':<8} " + " ".join(f"seed{s:<2}" for s in SEEDS) + "  geomean(solo/portfolio)",
    ]
    for kind in ENGINES:
        per_seed = []
        for seed in SEEDS:
            solo = solo_best(kind, w, seed, budget)
            per_seed.append(solo / portfolio_bests[seed])
        ratios[kind] = geometric_mean(per_seed)
        lines.append(
            f"{kind:<8} "
            + " ".join(f"{r:5.3f}" for r in per_seed)
            + f"  {ratios[kind]:.3f}"
        )
        perf_log(
            "ANYTIME", f"vs_{kind}_geomean", round(ratios[kind], 3), "x"
        )

    lines.append(
        "\nportfolio best per seed: "
        + ", ".join(f"s{s}={m:.1f}" for s, m in portfolio_bests.items())
    )
    write_output("anytime_portfolio", "\n".join(lines) + "\n")

    # loose floor: the portfolio must not lose badly to any engine; the
    # >= 1.0 bar is held by the perf gate, not a flakeable assert
    for kind, ratio in ratios.items():
        assert ratio >= 0.9, f"portfolio lost >10% to solo {kind}"


def test_micro_portfolio_exchange_overhead(write_output, perf_log):
    """MICRO-PORTFOLIO: a live channel costs ~nothing per iteration."""
    w = paper_scale_workload()
    iterations = 60

    (spec,) = build_islands(
        ("tabu",), 1, 5, None, iterations, "contention-free", "uniform"
    )
    out_bare = run_island(spec, w, None)
    out_exchange = run_island(spec, w, LocalChannel())

    # identical searches: the channel must not perturb the trajectory
    assert out_exchange.best_makespan == out_bare.best_makespan
    assert out_exchange.evaluations == out_bare.evaluations
    assert out_exchange.published >= 1  # the channel really was live

    t_bare, t_exchange = best_of_interleaved(
        lambda: run_island(spec, w, None),
        lambda: run_island(spec, w, LocalChannel()),
        budget=3.0,
    )
    overhead = t_exchange / t_bare
    perf_log(
        "MICRO-PORTFOLIO", "bare_over_exchange", round(1.0 / overhead, 3), "x"
    )
    write_output(
        "micro_portfolio_overhead",
        "MICRO-PORTFOLIO — incumbent-exchange overhead on a solo tabu "
        "island\n\n"
        f"{iterations} iterations on figure5_workload(seed=1), "
        f"poll interval {spec.interval}\n"
        f"bare     : {t_bare * 1e3:.1f} ms/run\n"
        f"exchange : {t_exchange * 1e3:.1f} ms/run "
        f"({out_exchange.published} published)\n"
        f"overhead : {overhead:.3f}x (claim: <= 1.05x; CI gates its "
        "inverse against the committed baseline)\n",
    )
    # loose floor for a loaded CI box; the 5% claim is perf-gated
    assert overhead <= 1.25
