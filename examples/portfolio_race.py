#!/usr/bin/env python
"""Portfolio race: the best schedule this machine can find in ~2 seconds.

Races SE, GA, SA and tabu concurrently on one workload, sharing each
new best-so-far schedule through the incumbent channel, and reports the
global winner with per-island and combined anytime curves.  The same
race is available from the command line::

    repro race --preset small --deadline 2 --engines se,ga,sa,tabu

Run:  python examples/portfolio_race.py
"""

from repro.analysis import anytime_auc, anytime_table
from repro.portfolio import RaceConfig, run_race
from repro.workloads import WorkloadSpec, build_workload


def main() -> None:
    workload = build_workload(
        WorkloadSpec(
            num_tasks=50,
            num_machines=10,
            connectivity="medium",
            heterogeneity="medium",
            ccr=0.5,
            seed=2024,
            name="race-demo",
        )
    )

    # 1. The anytime question: best schedule within a 1-second deadline
    #    per island.  Process mode gives each island its own core;
    #    islands=0 means one island per engine kind.
    config = RaceConfig(
        engines=("se", "ga", "sa", "tabu"),
        deadline=1.0,
        seed=7,
    )
    result = run_race(workload, config)

    print(
        f"raced {len(result.islands)} islands on {result.workload!r}: "
        f"best makespan {result.best_makespan:.1f} from island "
        f"{result.best_island} ({result.best_kind})\n"
    )
    print(anytime_table(result))

    # 2. The combined anytime curve: how fast quality arrived on the
    #    race-global clock (1.0 == final quality instantly).
    curve = result.combined_anytime()
    horizon = max(t for t, _ in curve) + 0.01
    print(
        f"\ncombined curve: {len(curve)} improvements, "
        f"normalized AUC {anytime_auc(curve, horizon):.3f}"
    )

    # 3. Deterministic replay: a lockstep race (sync_every) trades the
    #    wall clock for an iteration budget, making every incumbent
    #    exchange a pure function of seeds — run it twice, get the same
    #    schedule bit for bit.
    lockstep = RaceConfig(
        engines=("se", "tabu"),
        islands=2,
        deadline=None,
        max_iterations=30,
        sync_every=5,
        seed=7,
    )
    a = run_race(workload, lockstep)
    b = run_race(workload, lockstep)
    assert a.best_string == b.best_string
    print(
        f"\nlockstep replay: best {a.best_makespan:.1f} == "
        f"{b.best_makespan:.1f} (bit-identical across runs)"
    )


if __name__ == "__main__":
    main()
