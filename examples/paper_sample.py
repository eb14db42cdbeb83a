#!/usr/bin/env python
"""Walkthrough of the paper's running example (Figures 1-2, §2-§4).

Builds the 7-subtask / 2-machine HC model of Figure 1, shows the valid
encoding string of Figure 2, reproduces the O4 goodness computation of
§4.3, and lets SE improve on the hand-made schedule.

Run:  python examples/paper_sample.py
"""

from repro import SEConfig, run_se
from repro.core.goodness import GoodnessEvaluator, optimal_finish_times
from repro.model import FIGURE2_PAIRS, PAPER_O4, paper_sample_workload
from repro.schedule import ScheduleString, Simulator, Timeline, is_valid_for


def main() -> None:
    workload = paper_sample_workload()
    print("The HC model of Figure 1:")
    print(workload.describe())

    print("\nExecution-time matrix E (rows = machines, cols = subtasks):")
    print(workload.exec_times.values)
    print("\nTransfer-time matrix Tr (row = pair (m0,m1), cols = data items):")
    print(workload.transfer_times.values)

    # The encoding string of Figure 2: s0 m0 | s1 m1 | s2 m1 | s5 m1 | ...
    string = ScheduleString.from_pairs(FIGURE2_PAIRS, 2)
    print("\nFigure-2 encoding string:")
    print("  " + " | ".join(f"s{t} m{m}" for t, m in string.pairs()))
    print(f"  valid for the DAG: {is_valid_for(string, workload.graph)}")
    print(f"  m0 executes: {string.machine_sequence(0)}")
    print(f"  m1 executes: {string.machine_sequence(1)}")

    sim = Simulator(workload)
    schedule = sim.evaluate(string)
    print(f"\nSchedule length of the Figure-2 string: {schedule.makespan:.0f}")
    print(Timeline(schedule, 2).render_ascii())

    # §4.3: the optimistic finish times O_i (function F) and goodness.
    o = optimal_finish_times(workload)
    print("\nOptimistic finish times O_i (computed once, before SE starts):")
    for t in range(workload.num_tasks):
        print(f"  O{t} = {o[t]:7.1f}")
    print(f"\nO4 = {o[4]:.0f} — the paper quotes O4 = {PAPER_O4:.0f} (§4.3)")

    goodness = GoodnessEvaluator(sim).goodness(schedule.finish)
    print("\nGoodness g_i = O_i / C_i for the Figure-2 string:")
    for t in range(workload.num_tasks):
        print(
            f"  s{t}: C={schedule.finish[t]:7.1f}  g={goodness[t]:.3f}"
        )

    # Let SE improve on the hand-made solution.
    result = run_se(workload, SEConfig(seed=1, max_iterations=100))
    print(
        f"\nSE best after 100 iterations: {result.best_makespan:.0f} "
        f"(Figure-2 string: {schedule.makespan:.0f})"
    )
    print(Timeline(result.best_schedule, 2).render_ascii())


if __name__ == "__main__":
    main()
