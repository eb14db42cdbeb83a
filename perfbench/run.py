#!/usr/bin/env python3
"""Benchmark of the repro scheduler: four closed-loop workloads.

    python3 perfbench/run.py --workload se-plain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Run from the root of a source checkout (``src/repro`` beside this
directory).  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it makes one traced and one untraced pass and reports
the per-layer metrics.  A JSON report goes to standard output, and its
last line is the summary ``{"correct", "attempted", "failed",
"metrics"}``.  See README.md beside this file.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pools pinned to one thread before NumPy loads.
BLAS_PIN = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"error: no repro source tree at {SRC}")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import repro.cli  # noqa: E402,F401  (the program as a user loads it)
from repro.schedule.vectorized import pack_cache_stats  # noqa: E402

import tracer as tracing  # noqa: E402
from cases import (  # noqa: E402
    CASES,
    NEIGHBORHOOD,
    STEP_SPANS,
    StepClock,
    build_inputs,
    build_service,
    check_episode,
    run_episode,
)

#: Fresh interpreters timed for ``setup_s``, after one discarded start.
SETUP_STARTS = 5
#: ``step_tail_ms`` is the highest percentile with at least
#: ``TAIL_BEYOND`` steps of one pass beyond it, capped at ``TAIL_CAP``: a
#: shared host stalls a few steps per run at random, and the steps around
#: a flip of its speed regime are normalised less exactly, so p95 and
#: above of 2400 steps would measure the host.  The percentile follows
#: from one pass, so it stays the same however many passes a run makes.
TAIL_BEYOND = 10
TAIL_CAP = 90.0

#: End-to-end metrics of the summary line, as BENCHMARK.json lists them.
#: Each time is normalised for host speed (see ``StepClock``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s_norm": "1/s",
    "step_p50_ms_norm": "ms",
    "step_tail_ms_norm": "ms",
    "objective": "time-units",
    "peak_rss_mb": "MB",
}

#: Also printed in the report, not in the summary: raw wall-clock times
#: swing with the host's speed regime, and the service has no single
#: best-so-far to reach, so its time to target is the time to drain a
#: stream, which varies with the stream.
REPORT_UNITS = {
    "setup_wall_s": "s",
    "steps_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "time_to_target_s": "s",
    "time_to_target_s_norm": "s",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "workloads.build_ms": "ms",
    "core.goodness_ms": "ms",
    "core.selection_ms": "ms",
    "core.allocation_self_ms": "ms",
    "core.selected_per_step": "count",
    "core.probes_per_step": "count",
    "schedule.delta_calls": "count",
    "schedule.delta_us": "us",
    "schedule.prepare_us": "us",
    "schedule.delta_cutoff_frac": "ratio",
    "schedule.batch_rows": "count",
    "schedule.batch_us_per_row": "us",
    "schedule.pack_hits": "count",
    "schedule.pack_misses": "count",
    "extensions.delta_calls": "count",
    "extensions.delta_us": "us",
    "extensions.delta_cutoff_frac": "ratio",
    "extensions.makespan_calls": "count",
    "extensions.makespan_us": "us",
    "optim.service_init_ms": "ms",
    "optim.batch_calls": "count",
    "optim.tabu_admissible_frac": "ratio",
    "online.dispatch_ms": "ms",
    "online.reopt_improved_frac": "ratio",
    "online.rolled_back_per_window": "count",
    "core.self_frac": "ratio",
    "schedule.self_frac": "ratio",
    "extensions.self_frac": "ratio",
    "optim.self_frac": "ratio",
    "online.self_frac": "ratio",
    "trace.accounted_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def setup_probes(name: str, seed: int) -> list[dict]:
    """Time fresh interpreters until their first step is ready, raw
    (``setup_wall_s``) and normalised for host speed (``setup_s``)."""
    probes = []
    for i in range(SETUP_STARTS + 1):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or not line:
                raise RuntimeError(f"set-up probe exited {proc.returncode}")
        if i:  # the first start pays a cold page cache
            probe = json.loads(line)
            wall = ready - probe["calibration_s"]
            probe.update(setup_wall_s=wall, setup_s=wall / probe["slowdown"])
            probes.append(probe)
    return probes


def tail_percentile(steps_per_pass: int) -> float:
    """The percentile ``step_tail_ms`` reports, at least the median."""
    n = max(steps_per_pass, 1)
    return max(min(100.0 * (n - TAIL_BEYOND) / n, TAIL_CAP), 50.0)


def tail(sorted_steps: list[float], percentile: float) -> float:
    """*percentile* of *sorted_steps*, by nearest rank."""
    n = len(sorted_steps)
    return sorted_steps[max(math.ceil(n * percentile / 100 - 1e-9), 1) - 1]


class Run:
    """One workload run: passes over the pool, then checks and metrics."""

    def __init__(self, case, seed: int, seconds: float, trace: bool):
        self.case = case
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.inputs = build_inputs(case, seed)
        self.tracer = tracing.Tracer() if trace else None
        self.clocks = {False: self._clock()}
        if trace:
            self.clocks[True] = self._clock(self.tracer)
        self.passes: list[dict] = []
        self.attempted = 0
        self.crashes: list[str] = []  # episodes that raised: failed steps
        self.errors: list[str] = []  # failed output or determinism checks

    def _clock(self, tracer=None) -> StepClock:
        case = self.case
        return StepClock(
            tracer, STEP_SPANS[case.kind], case.calibrate_every, case.calibrator
        )

    def _episode(self, member: int, clock):
        """One episode; a raising episode is recorded as a failed step."""
        done = len(clock.steps)
        try:
            return run_episode(
                self.case, member, self.inputs[member], self.seed, clock
            )
        except Exception:  # the run goes on; the crash fails the run
            self.crashes.append(traceback.format_exc(limit=3))
            self.attempted += 1
            if clock.tracer is not None:
                clock.tracer.reset_stack()
            return None
        finally:
            self.attempted += len(clock.steps) - done

    def run_pass(self, traced: bool) -> None:
        clock = self.clocks[traced]
        tracer = self.tracer if traced else None
        saved = tracing.install(tracer) if traced else None
        before = tracer.snapshot() if traced else None
        packs = pack_cache_stats()
        t0, began, first_step = perf_counter(), clock.busy(), len(clock.steps)
        try:
            episodes = [self._episode(m, clock) for m in range(len(self.inputs))]
        finally:
            if saved is not None:
                tracing.uninstall(saved)
        after = pack_cache_stats()
        record = {
            "traced": traced,
            "episodes": [ep for ep in episodes if ep is not None],
            "wall_s": perf_counter() - t0,
            "busy_s": clock.busy() - began,
            "first_step": first_step,
            "last_step": len(clock.steps),
            "steps": clock.steps[first_step:],
            "packs": {k: after[k] - packs[k] for k in ("hits", "misses")},
        }
        if traced:
            record["work"] = _work(before, tracer.snapshot())
        self.passes.append(record)

    def execute(self) -> None:
        """Warm up, run the timed passes, then re-run the last input.

        The untimed warm-up episode on input 0 pays lazy imports and
        first-call costs.  It and the closing re-run are compared with
        the timed pass, so every run checks its own determinism.  Passes
        are whole; another starts only while it is expected to end
        within ``seconds``.  A traced run makes one traced pass, then one
        untraced pass to measure the tracing overhead against.
        """
        self.extra = [self._episode(0, self._clock())]
        if self.trace:
            self.run_pass(True)
            self.run_pass(False)
        else:
            t0 = perf_counter()
            self.run_pass(False)
            while perf_counter() - t0 + self.passes[-1]["wall_s"] <= self.seconds:
                self.run_pass(False)
        last = len(self.inputs) - 1
        self.extra.append(self._episode(last, self._clock()))

    def check(self) -> None:
        """Output checks on every episode; one input, one output."""
        seen: dict[int, tuple] = {}
        episodes = [ep for p in self.passes for ep in p["episodes"]]
        for ep in episodes + [ep for ep in self.extra if ep is not None]:
            self.errors.extend(check_episode(self.case, self.inputs[ep.member], ep))
            if seen.setdefault(ep.member, ep.fingerprint) != ep.fingerprint:
                self.errors.append(f"input {ep.member}: output not repeatable")

    @property
    def failed(self) -> int:
        return len(self.crashes) + len(self.errors)

    # metrics ------------------------------------------------------------
    def end_to_end(self, probes: list[dict]) -> tuple[dict, dict]:
        """Untraced passes only.  ``*_norm`` metrics divide each step by
        the host slowdown measured around it (see ``StepClock``)."""
        clock = self.clocks[False]
        passes = [p for p in self.passes if not p["traced"]]
        raw, norm, ttt, ttt_norm = [], [], [], []
        busy = 0.0
        for p in passes:
            p_raw = clock.steps[p["first_step"]:p["last_step"]]
            p_norm = clock.normalised(p["first_step"], p["last_step"])
            raw += p_raw
            norm += p_norm
            busy += p["busy_s"]
            for ep in p["episodes"]:
                # an episode's time scales like its steps (like its pass's
                # steps when it has none to reach the target)
                a, b = ep.first_step, ep.first_step + ep.target_steps
                scale = (
                    sum(clock.normalised(a, b)) / sum(clock.steps[a:b])
                    if b > a
                    else sum(p_norm) / sum(p_raw)
                )
                ttt.append(ep.time_to_target_s)
                ttt_norm.append(ep.time_to_target_s * scale)
        busy_norm = busy * sum(norm) / sum(raw)
        raw.sort()
        norm.sort()
        q = tail_percentile(passes[0]["last_step"] - passes[0]["first_step"])
        first = passes[0]["episodes"]
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "setup_wall_s": statistics.median(p["setup_wall_s"] for p in probes),
            "steps_per_s": len(raw) / busy,
            "steps_per_s_norm": len(raw) / busy_norm,
            "step_p50_ms": statistics.median(raw) * 1e3,
            "step_p50_ms_norm": statistics.median(norm) * 1e3,
            "step_tail_ms": tail(raw, q) * 1e3,
            "step_tail_ms_norm": tail(norm, q) * 1e3,
            "time_to_target_s": statistics.median(ttt),
            "time_to_target_s_norm": statistics.median(ttt_norm),
            "objective": statistics.fmean(ep.objective for ep in first),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
        }
        extra = {
            "tail": {"percentile": q, "steps": len(raw)},
            "calibration": {
                "loop": self.case.calibrator,
                "reference_s": clock.reference_s,
                "median_s": statistics.median(clock.calibrations),
                "samples": len(clock.calibrations),
                "total_s": clock.calibration_s,
            },
            "objective_per_input": [ep.objective for ep in first],
            "setup_probes": probes,
        }
        extra["wall_clock"] = _with_units(values, REPORT_UNITS)
        return _with_units(values, END_TO_END_UNITS), extra

    def per_layer(self, probes: list[dict]) -> dict:
        first, untraced = self.passes  # one traced pass, one untraced
        work = first["work"]  # counts, which repeat exactly per seed
        stats = self.tracer.snapshot()["stats"]
        n_steps = len(first["steps"])
        wall = sum(first["steps"])
        kind = self.case.kind
        selected = [s for ep in first["episodes"] for s in ep.selected]

        def calls(name):
            return work.get(name, 0)

        def self_s(name):
            return stats.get(name, (0, 0.0, 0.0, 0.0))[2]

        def per_call(name, scale, total=False):
            st = stats.get(name)
            if not st or not st[0]:
                return 0.0
            return st[2 if not total else 1] / st[0] * scale

        def frac(num, den):
            return num / den if den else 0.0

        reopt = [
            e["rolled_back"]
            for ep in first["episodes"]
            if kind == "serve"
            for e in ep.result.events
            if e["type"] == "reopt"
        ]
        values = {
            "cli.import_s": statistics.median(p["import_s"] for p in probes),
            "workloads.build_ms": statistics.median(
                p["build_ms"] for p in probes
            ),
            "core.goodness_ms": self_s("core.goodness") / n_steps * 1e3,
            "core.selection_ms": self_s("core.selection") / n_steps * 1e3,
            "core.allocation_self_ms": self_s("core.allocation") / n_steps * 1e3,
            "core.selected_per_step": (
                statistics.fmean(selected) if kind == "se" else 0.0
            ),
            "core.probes_per_step": (
                frac(calls("schedule.delta") + calls("extensions.delta"), n_steps)
                if kind == "se"
                else 0.0
            ),
            "schedule.delta_calls": calls("schedule.delta"),
            "schedule.delta_us": per_call("schedule.delta", 1e6),
            "schedule.prepare_us": per_call("schedule.prepare", 1e6),
            "schedule.delta_cutoff_frac": frac(
                calls("schedule.delta_pruned"), calls("schedule.delta")
            ),
            "schedule.batch_rows": calls("schedule.batch_rows"),
            "schedule.batch_us_per_row": frac(
                self_s("schedule.batch") * 1e6, calls("schedule.batch_rows")
            ),
            "schedule.pack_hits": first["packs"]["hits"],
            "schedule.pack_misses": first["packs"]["misses"],
            "extensions.delta_calls": calls("extensions.delta"),
            "extensions.delta_us": per_call("extensions.delta", 1e6),
            "extensions.delta_cutoff_frac": frac(
                calls("extensions.delta_pruned"), calls("extensions.delta")
            ),
            "extensions.makespan_calls": calls("extensions.makespan"),
            "extensions.makespan_us": per_call("extensions.makespan", 1e6),
            "optim.service_init_ms": per_call(
                "optim.service_init", 1e3, total=True
            ),
            "optim.batch_calls": calls("optim.batch"),
            "optim.tabu_admissible_frac": (
                statistics.fmean(selected) / NEIGHBORHOOD
                if kind == "tabu"
                else 0.0
            ),
            "online.dispatch_ms": per_call("online.dispatch", 1e3, total=True),
            "online.reopt_improved_frac": frac(
                calls("online.reopt_improved"), calls("online.reopt_calls")
            ),
            "online.rolled_back_per_window": (
                statistics.fmean(reopt) if reopt else 0.0
            ),
        }
        in_step = {n: st[3] for n, st in stats.items()}
        for layer in ("core", "schedule", "extensions", "optim", "online"):
            values[f"{layer}.self_frac"] = frac(
                sum(v for n, v in in_step.items() if n.startswith(layer + ".")),
                wall,
            )
        values["trace.accounted_frac"] = frac(sum(in_step.values()), wall)
        # the same steps, traced then not, each normalised for host speed
        values["trace.overhead_frac"] = (
            sum(self.clocks[True].normalised())
            / sum(self.clocks[False].normalised(untraced["first_step"]))
            - 1
        )
        return _with_units(values, PER_LAYER_UNITS)

    def metadata(self) -> dict:
        meta = {
            "kernel_tier": build_service(self.case, self.inputs[0]).kernel_tier,
            "pack_cache": pack_cache_stats(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in BLAS_PIN},
        }
        if self.tracer is not None:
            meta["kernel_tiers_traced"] = sorted(self.tracer.kernel_tiers)
        return meta


def _work(before: dict, after: dict) -> dict:
    """The counts a pass added to the tracer: calls per span name and
    event counters.  They must repeat exactly for one seed."""
    work = {
        n: int(st[0] - before["stats"].get(n, (0,))[0])
        for n, st in after["stats"].items()
    }
    for n, v in after["counts"].items():
        work[n] = v - before["counts"].get(n, 0)
    return {n: v for n, v in work.items() if v}


def _with_units(values: dict, units: dict) -> dict:
    return {n: {"value": values[n], "unit": u} for n, u in units.items()}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    case = CASES[name]
    probes = setup_probes(name, seed)
    run = Run(case, seed, seconds, trace)
    run.execute()
    run.check()
    if trace:
        metrics = run.per_layer(probes)
        extra = {}
        OUT.mkdir(exist_ok=True)
        run.tracer.write(OUT / f"spans-{name}-seed{seed}.json.gz")
    else:
        metrics, extra = run.end_to_end(probes)
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": len(run.passes),
        "steps_per_pass": len(run.passes[0]["steps"]),
        "error_rate": run.failed / run.attempted,
        "errors": (run.crashes + run.errors)[:20],
        "meta": run.metadata(),
        **extra,
        "metrics": metrics,
    }
    print(json.dumps(report, indent=1))
    summary = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints one table of every
    metric of the summary and of the report's ``wall_clock`` part."""
    rows, ok = [], True
    for name in CASES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=True,
        )
        *lines, last = proc.stdout.strip().splitlines()
        report, summary = json.loads("\n".join(lines)), json.loads(last)
        ok = ok and summary["correct"]
        rows.append((name, "error_rate", report["error_rate"], "ratio"))
        metrics = {**report.get("wall_clock", {}), **summary["metrics"]}
        for metric, m in metrics.items():
            rows.append((name, metric, m["value"], m["unit"]))
    for row in rows:
        print(f"{row[0]:<11} {row[1]:<30} {row[2]:>14.6g} {row[3]}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*CASES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
