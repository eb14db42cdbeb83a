"""Self-tests of the benchmark, at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  They check the benchmark, not
the program: step counts, the calibration loop's independence from
``repro``, that traced self times account for step wall time, that the
output checks catch a corrupted result, and that counts repeat.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402  (pins BLAS threads before NumPy loads)
from cases import CASES, check_episode, run_episode, StepClock  # noqa: E402

#: Tiny versions of the four workloads.
TINY = {
    "se-plain": dataclasses.replace(CASES["se-plain"], pool=2, iterations=3),
    "se-nic": dataclasses.replace(CASES["se-nic"], pool=1, iterations=2),
    "tabu-plain": dataclasses.replace(
        CASES["tabu-plain"], pool=2, iterations=12, target_iteration=6
    ),
    "serve-nic": dataclasses.replace(CASES["serve-nic"], pool=2, jobs=6),
}
SEED = 3
NO_PROBES = [{"import_s": 0.0, "build_ms": 0.0}]


def tiny_run(name: str, trace: bool = False) -> run.Run:
    r = run.Run(TINY[name], SEED, 0.0, trace)
    r.execute()
    r.check()
    return r


class StepCounts(unittest.TestCase):
    def test_engines_step_once_per_iteration(self):
        for name in ("se-plain", "se-nic", "tabu-plain"):
            with self.subTest(name):
                case = TINY[name]
                r = tiny_run(name)
                self.assertEqual(len(r.passes), 1)
                self.assertEqual(
                    len(r.passes[0]["steps"]), case.pool * case.iterations
                )
                self.assertEqual(r.failed, 0, r.errors + r.crashes)

    def test_serve_steps_once_per_rolled_back_job(self):
        r = tiny_run("serve-nic")
        events = [e for ep in r.passes[0]["episodes"] for e in ep.result.events]
        rolled = sum(e["rolled_back"] for e in events if e["type"] == "reopt")
        self.assertGreater(rolled, 0)
        self.assertEqual(len(r.passes[0]["steps"]), rolled)
        self.assertEqual(r.failed, 0, r.errors + r.crashes)


class Calibration(unittest.TestCase):
    def test_imports_no_repro_module(self):
        code = (
            "import sys, calibrate; "
            "calibrate.unit(); calibrate.numpy_unit(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
        )
        env = dict(os.environ, PYTHONPATH=str(HERE))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        )
        self.assertEqual(out.stdout.strip(), "[]")


class Tracing(unittest.TestCase):
    def test_self_times_account_for_step_wall_time(self):
        for name in TINY:
            with self.subTest(name):
                metrics = tiny_run(name, trace=True).per_layer(NO_PROBES)
                frac = metrics["trace.accounted_frac"]["value"]
                self.assertGreater(frac, 0.95)
                self.assertLess(frac, 1.05)

    def test_each_workload_loads_its_layer(self):
        plain = tiny_run("se-plain", trace=True).per_layer(NO_PROBES)
        self.assertEqual(plain["schedule.batch_rows"]["value"], 0)
        self.assertGreater(plain["schedule.delta_calls"]["value"], 0)
        tabu = tiny_run("tabu-plain", trace=True).per_layer(NO_PROBES)
        self.assertEqual(tabu["schedule.delta_calls"]["value"], 0)
        self.assertEqual(
            tabu["schedule.batch_rows"]["value"],
            TINY["tabu-plain"].pool * TINY["tabu-plain"].iterations * 24,
        )
        serve = tiny_run("serve-nic", trace=True).per_layer(NO_PROBES)
        self.assertGreater(serve["extensions.makespan_calls"]["value"], 0)
        self.assertEqual(serve["extensions.delta_calls"]["value"], 0)

    def test_counts_repeat_for_one_seed(self):
        a = tiny_run("se-nic", trace=True)
        b = tiny_run("se-nic", trace=True)
        self.assertEqual(a.passes[0]["work"], b.passes[0]["work"])


class OutputChecks(unittest.TestCase):
    def test_catches_a_corrupted_makespan(self):
        case = TINY["se-plain"]
        r = run.Run(case, SEED, 0.0, False)
        ep = run_episode(case, 0, r.inputs[0], SEED, StepClock())
        self.assertEqual(check_episode(case, r.inputs[0], ep), [])
        ep.result = dataclasses.replace(
            ep.result, best_makespan=ep.result.best_makespan * (1 + 1e-12)
        )
        self.assertEqual(len(check_episode(case, r.inputs[0], ep)), 1)

    def test_catches_a_repeated_task_in_the_event_log(self):
        case = TINY["serve-nic"]
        r = run.Run(case, SEED, 0.0, False)
        ep = run_episode(case, 0, r.inputs[0], SEED, StepClock())
        self.assertEqual(check_episode(case, r.inputs[0], ep), [])
        events = list(ep.result.events)
        events.append(next(e for e in events if e["type"] == "task_done"))
        ep.result = dataclasses.replace(ep.result, events=tuple(events))
        self.assertNotEqual(check_episode(case, r.inputs[0], ep), [])


if __name__ == "__main__":
    unittest.main()
