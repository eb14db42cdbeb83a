"""MICRO-BATCH-RAND — the evaluation service's batch route, end to end.

Random search scores its samples in chunks through
:meth:`~repro.optim.evaluation.EvaluationService.batch_makespans`.
The service runs a batch as a loop over its scalar backend, on the
compiled C walker (:mod:`repro.schedule.walker`).  This bench times
``random_search`` with its chunked default route against
``batch_size=1`` on the Python walker, at paper scale (100 tasks, 20
machines), so the ratio carries everything the batch call shape adds
around the walks.  The walk itself, compiled against Python, is gated
once, by MICRO-COMPILED ``makespan_speedup``.

The case first asserts the two sides find the identical schedule, then
times them interleaved and records the ratio both as a human-readable
artifact and as a :mod:`repro.perf` record in
``benchmarks/output/BENCH_micro.json`` for the CI perf gate.  The
assertion floor is deliberately far below the expected ratio so a
loaded CI machine cannot flake the suite; the *gate* lives in ``repro
perf check`` against the committed baseline.
"""

import pytest

from repro.baselines.random_search import random_search
from repro.schedule.walker import load
from repro.workloads import figure5_workload
from walkers import best_of_interleaved, python_walker

#: The batch route runs on the compiled walker (opting out of the
#: Python-walker pin in ``conftest.py``), the denominator on the
#: Python one.
pytestmark = [
    pytest.mark.walker("compiled"),
    pytest.mark.skipif(
        load()[0] is None, reason=f"compiled walker unavailable: {load()[1]}"
    ),
]


def test_micro_batch_random_search(write_output, perf_log):
    """MICRO-BATCH-RAND: chunked batch scoring inside random_search."""
    w = figure5_workload(seed=1)
    samples = 512

    def batched():
        return random_search(w, samples=samples, seed=11)

    def scalar():
        with python_walker():
            return random_search(w, samples=samples, seed=11, batch_size=1)

    res_b, res_s = batched(), scalar()
    assert res_b.makespan == res_s.makespan  # bit-identical search
    assert res_b.string == res_s.string
    t_scalar, t_batch = best_of_interleaved(scalar, batched, budget=1.0)
    speedup = t_scalar / t_batch

    perf_log(
        "MICRO-BATCH-RAND", "speedup_end_to_end", round(speedup, 3), "x"
    )
    write_output(
        "micro_batch_random_search",
        "MICRO-BATCH-RAND — random search: batch_size=1 on the Python "
        "walker vs the chunked default route\n\n"
        f"{samples} samples at paper scale, end to end (drawing the\n"
        "random strings is identical in both modes, so Amdahl caps this\n"
        "ratio well below the raw walker speedup of MICRO-COMPILED)\n"
        f"scalar : {t_scalar * 1e3:.2f} ms/run\n"
        f"batched: {t_batch * 1e3:.2f} ms/run\n"
        f"speedup: {speedup:.2f}x\n",
    )
    assert speedup >= 1.05  # loose floor; measured value recorded above
