"""MICRO-JIT — microbenchmarks of the compiled (numba) kernel tier.

The batch kernels (:class:`~repro.schedule.vectorized.BatchSimulator`,
:class:`~repro.schedule.vectorized.ContentionBatchSimulator`) run the
:mod:`repro.schedule.jit` walks: the whole schedule walk compiled into
one parallel loop nest over the ``WorkloadPack`` tables.  These benches
measure, at paper scale (100 tasks, 20 machines):

* MICRO-JIT       — 128 schedules through the compiled contention-free
  kernel vs the Python-walker ``Simulator`` loop (target: >= 10x);
* MICRO-JIT-NIC   — the same under NIC contention (target: >= 10x);
* MICRO-JIT-SCALE — thread scaling of one compiled batch sweep:
  ``numba.set_num_threads(1)`` vs 4 threads, recorded as
  per-core parallel efficiency (target: >= 0.7);
* MICRO-JIT ``vs_compiled_loop_pop{16,64,256}`` (and ``nic_...``) —
  the jit kernel against the evaluation service's loop over the
  compiled C walker (the batch route without numba); above 1 the
  kernel wins.  Logged with no floor and no baseline: this is the
  measurement that decides whether numba stays.

Bit-identity against the scalar simulators is asserted before any
timing.  **Warm-compile timing only**: every
case calls :func:`repro.schedule.jit.warmup` first and then asserts
that a single post-warmup call lands within a small factor of the
best-of time — a compile inside the measured region would blow that
factor by orders of magnitude.  Assertion floors in-test are loose (a
loaded CI machine must not flake the suite); the bar is held by
``repro perf check`` against ``benchmarks/baseline/BENCH_micro_jit.json``
on the numba CI leg.

The whole module skips cleanly when numba is absent — the plain-Python
fallback bodies are correctness vehicles, not benchmark subjects.
"""

import time

import pytest

numba = pytest.importorskip("numba")

from repro.baselines.ga.chromosome import initial_population  # noqa: E402
from repro.extensions.contention import ContentionSimulator  # noqa: E402
from repro.optim.evaluation import EvaluationService  # noqa: E402
from repro.schedule.backend import kernel_tier  # noqa: E402
from repro.schedule.jit import warmup  # noqa: E402
from repro.schedule.operations import random_valid_string  # noqa: E402
from repro.schedule.simulator import Simulator  # noqa: E402
from repro.schedule.vectorized import (  # noqa: E402
    BatchSimulator,
    ContentionBatchSimulator,
)
from repro.schedule.walker import load  # noqa: E402
from repro.utils.rng import as_rng  # noqa: E402
from repro.workloads import figure5_workload  # noqa: E402
from walkers import best_of_interleaved  # noqa: E402

#: A single warm call may exceed the best-of observation by scheduler
#: noise, but never by a compile (3-4 orders of magnitude).
WARM_FACTOR = 50.0


def paper_scale_workload():
    return figure5_workload(seed=1)


def best_of(fn, budget: float = 1.0):
    """Minimum wall-clock time of *fn* over repeated runs in *budget* s."""
    fn()  # warm-up (faults in scratch; kernels are already compiled)
    best = float("inf")
    start = time.perf_counter()
    while time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _strings(w, size):
    return [
        random_valid_string(w.graph, w.num_machines, seed)
        for seed in range(size)
    ]


def _timed_single(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _jit_vs_scalar(write_output, perf_log, bench, slug, scalar, jit_kernel,
                   w, strings, floor):
    """Shared driver: bit-identity, warm-compile proof, timing, records."""
    size = len(strings)

    def scalar_loop():
        return [scalar.string_makespan(s) for s in strings]

    def jit_batch():
        return jit_kernel.string_makespans(strings)

    # bit-identity with the scalar walk before any timing
    assert jit_batch().tolist() == scalar_loop()

    # warm-compile proof: one un-averaged call right after warmup must
    # land near the best-of floor — a compile here would be ~1000x off
    t_first = _timed_single(jit_batch)
    t_scalar, t_jit = best_of(scalar_loop), best_of(jit_batch)
    assert t_first < WARM_FACTOR * t_jit, (
        f"{bench}: post-warmup call took {t_first * 1e3:.1f} ms vs best "
        f"{t_jit * 1e3:.3f} ms — compilation leaked into the measured "
        "region"
    )
    speedup = t_scalar / t_jit

    perf_log(bench, "speedup", round(speedup, 3), "x")
    perf_log(bench, "scalar_per_eval", round(t_scalar / size * 1e6, 2), "us")
    perf_log(bench, "jit_per_eval", round(t_jit / size * 1e6, 2), "us")
    write_output(
        slug,
        f"{bench} — compiled kernel vs scalar walk\n\n"
        f"batch of {size} schedules at paper scale ({w.num_tasks} tasks, "
        f"{w.num_machines} machines)\n"
        f"scalar : {t_scalar * 1e3:.2f} ms/batch "
        f"({t_scalar / size * 1e6:.1f} us/eval)\n"
        f"jit    : {t_jit * 1e3:.2f} ms/batch "
        f"({t_jit / size * 1e6:.1f} us/eval)\n"
        f"speedup: {speedup:.2f}x\n"
        f"claim (>= 10x at batch {size}): {speedup >= 10.0}\n"
        f"warm-compile check: first call {t_first * 1e3:.2f} ms "
        f"(< {WARM_FACTOR:.0f}x best)\n",
    )
    assert speedup >= floor  # loose floor; the perf gate holds the bar


def test_micro_jit_plain(write_output, perf_log):
    """MICRO-JIT: compiled contention-free walk vs the scalar loop."""
    w = paper_scale_workload()
    warmup(w)
    assert kernel_tier("contention-free") == "jit"  # auto-selection
    _jit_vs_scalar(
        write_output,
        perf_log,
        "MICRO-JIT",
        "micro_jit_plain",
        Simulator(w),
        BatchSimulator(w),
        w,
        _strings(w, 128),
        floor=3.0,
    )


def test_micro_jit_nic(write_output, perf_log):
    """MICRO-JIT-NIC: compiled NIC-contention walk vs the scalar loop."""
    w = paper_scale_workload()
    warmup(w)
    assert kernel_tier("nic") == "jit"
    _jit_vs_scalar(
        write_output,
        perf_log,
        "MICRO-JIT-NIC",
        "micro_jit_nic",
        ContentionSimulator(w),
        ContentionBatchSimulator(w),
        w,
        _strings(w, 128),
        floor=3.0,
    )


def test_micro_jit_thread_scaling(write_output, perf_log):
    """MICRO-JIT-SCALE: prange efficiency at 4 threads vs 1.

    Batch rows are independent, so the compiled sweep should scale
    near-linearly until memory bandwidth bites.  Efficiency is
    ``(t1 / tN) / N`` — 1.0 is perfect scaling.
    """
    w = paper_scale_workload()
    warmup(w)
    kernel = BatchSimulator(w)
    strings = _strings(w, 512)
    threads = min(4, numba.config.NUMBA_NUM_THREADS)
    if threads < 2:
        pytest.skip("thread scaling needs >= 2 numba threads")

    def sweep():
        return kernel.string_makespans(strings)

    saved = numba.get_num_threads()
    try:
        numba.set_num_threads(1)
        t1 = best_of(sweep)
        numba.set_num_threads(threads)
        tn = best_of(sweep)
    finally:
        numba.set_num_threads(saved)
    speedup = t1 / tn
    efficiency = speedup / threads

    perf_log("MICRO-JIT-SCALE", f"efficiency_{threads}t",
             round(efficiency, 3), "x")
    perf_log("MICRO-JIT-SCALE", f"speedup_{threads}t",
             round(speedup, 3), "x")
    write_output(
        "micro_jit_thread_scaling",
        "MICRO-JIT-SCALE — compiled batch sweep thread scaling\n\n"
        f"batch of {len(strings)} schedules at paper scale\n"
        f"1 thread : {t1 * 1e3:.2f} ms/sweep\n"
        f"{threads} threads: {tn * 1e3:.2f} ms/sweep\n"
        f"speedup  : {speedup:.2f}x -> efficiency {efficiency:.2f} "
        f"per core\n"
        f"claim (>= 0.7 per-core efficiency): {efficiency >= 0.7}\n",
    )
    assert efficiency >= 0.35  # loose floor; the perf gate holds the bar


@pytest.mark.walker("compiled")
@pytest.mark.parametrize("network", ["contention-free", "nic"])
def test_micro_jit_vs_compiled_loop(network, write_output, perf_log):
    """MICRO-JIT vs_compiled_loop_*: the jit kernel against the
    service's loop over the compiled C walker, on GA populations of 16,
    64 and 256."""
    if load()[0] is None:
        pytest.skip(f"compiled walker unavailable: {load()[1]}")
    w = paper_scale_workload()
    warmup(w)
    kernel = EvaluationService(w, network=network)
    loop = EvaluationService(w, network=network, prefer_batch=False)
    assert kernel.kernel_tier == "jit"
    assert (loop.kernel_tier, loop.walker_tier) == ("sequential", "compiled")
    prefix = "" if network == "contention-free" else "nic_"
    lines = [
        f"MICRO-JIT — {network}: jit kernel vs the compiled scalar loop "
        "(above 1: the kernel wins)\n"
    ]
    for size in (16, 64, 256):
        pop = initial_population(w.graph, w.num_machines, size, as_rng(size))
        orders = [c.scheduling for c in pop]
        machines = [c.matching for c in pop]
        assert kernel.batch_makespans(orders, machines) == loop.batch_makespans(
            orders, machines
        )
        t_kernel, t_loop = best_of_interleaved(
            lambda: kernel.batch_makespans(orders, machines),
            lambda: loop.batch_makespans(orders, machines),
            budget=1.0,
        )
        ratio = t_loop / t_kernel
        perf_log(
            "MICRO-JIT",
            f"{prefix}vs_compiled_loop_pop{size}",
            round(ratio, 3),
            "x",
        )
        lines.append(
            f"population {size:4d}: jit {t_kernel / size * 1e6:7.2f} us/row, "
            f"loop {t_loop / size * 1e6:7.2f} us/row -> {ratio:.2f}x"
        )
    write_output(
        f"micro_jit_{prefix}vs_compiled_loop", "\n".join(lines) + "\n"
    )
