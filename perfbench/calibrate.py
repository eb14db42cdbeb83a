"""Machine-speed calibration loops for the benchmark.

Nothing here imports ``repro``, so no change to the program can make
these loops faster or slower.  Their time tracks only how fast this
interpreter runs on this machine right now (CPU frequency, a noisy
neighbour, a cold cache), which is what the ``*_norm`` metrics divide
out.

Two loops, because the host's slow regimes do not slow all code alike:

- :func:`unit` (standard library only) is shaped like the scalar hot
  path: a position-major walk over a fixed pseudo-random DAG, with list
  indexing, float ``max`` and adds, as in a scalar schedule simulation;
- :func:`numpy_unit` is shaped like a step of an engine that scores
  with the NumPy batch kernel: the same kind of walk over 24 schedules
  at once, as a few small-array ``take``/``max``/scatter calls per
  position, plus two scalar walks (about a fifth of its time) for the
  engine's own Python work.  NumPy calls slow about 2x in the slow
  regime, against about 1.7x for :func:`unit`; a tabu step, about 1.9x.

NumPy is imported only when :func:`numpy_unit` first runs, so a set-up
probe that times ``import repro.cli`` after :func:`unit` still pays for
the NumPy import itself.
"""

from __future__ import annotations

import time
from functools import lru_cache

#: Typical :func:`unit` time on the reference host, a 2-vCPU x86-64 VM
#: running CPython 3.11, whose speed swings between regimes about 1.7x
#: apart.  ``*_norm`` metrics report times as if every step had run at
#: this calibration speed.
REFERENCE_S = 0.0015
#: Typical :func:`numpy_unit` time on the reference host, in the same
#: regime as :data:`REFERENCE_S`.
NUMPY_REFERENCE_S = 0.0017

_TASKS = 400
_MACHINES = 16
_WALKS = 8


def _tables() -> tuple[list[list[int]], list[float], list[int]]:
    """A fixed DAG (<= 3 predecessors per task), durations and machines,
    drawn from a linear congruential generator with a fixed seed."""
    state = 12345

    def draw(n: int) -> int:
        nonlocal state
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        return state % n

    preds = [[draw(t) for _ in range(min(t, 3))] for t in range(_TASKS)]
    dur = [1.0 + draw(100) / 10.0 for _ in range(_TASKS)]
    machine = [draw(_MACHINES) for _ in range(_TASKS)]
    return preds, dur, machine


_PREDS, _DUR, _MACHINE = _tables()


def _walk() -> float:
    finish = [0.0] * _TASKS
    avail = [0.0] * _MACHINES
    span = 0.0
    for t in range(_TASKS):
        m = _MACHINE[t]
        ready = avail[m]
        for p in _PREDS[t]:
            arrive = finish[p] + (0.5 if _MACHINE[p] != m else 0.0)
            if arrive > ready:
                ready = arrive
        end = ready + _DUR[t]
        finish[t] = end
        avail[m] = end
        if end > span:
            span = end
    return span


def unit() -> float:
    """Run one fixed unit of work; returns its wall seconds."""
    t0 = time.perf_counter()
    for _ in range(_WALKS):
        _walk()
    return time.perf_counter() - t0


#: Schedules walked at once by :func:`numpy_unit`, and the length of
#: its walk: the first ``_NP_TASKS`` tasks of the DAG of :func:`_tables`.
_ROWS = 24
_NP_TASKS = 100


@lru_cache(maxsize=None)
def _numpy_tables() -> tuple:
    """Gather/scatter indices, transfer and execution times of
    :func:`numpy_unit`'s batch walk: the head of the DAG of
    :func:`_tables` laid out position-major, batch innermost, over
    ``_ROWS`` machine assignments."""
    import numpy as np

    k = _NP_TASKS
    rng = np.random.default_rng(12345)
    rows = np.arange(_ROWS)
    avail_idx = rng.integers(0, _MACHINES, (k, _ROWS)) + rows * _MACHINES
    fin_idx = np.arange(k)[:, None] + rows * (k + 1)
    # predecessors come first, so the head is a DAG; pad with task k,
    # whose finish is never written and stays zero
    preds = [p + [k] * (3 - len(p)) for p in _PREDS[:k]]
    lane_idx = np.array(preds)[:, :, None] + rows * (k + 1)
    lane_trv = rng.random((k, 3, _ROWS))
    exec_pm = 1.0 + rng.random((k, _ROWS))
    return tuple(
        np.ascontiguousarray(a, dtype=dt)
        for a, dt in (
            (avail_idx, np.intp),
            (fin_idx, np.intp),
            (lane_idx, np.intp),
            (lane_trv, float),
            (exec_pm, float),
        )
    )


def numpy_unit() -> float:
    """Run one fixed unit of small-array NumPy work and scalar work;
    returns its wall seconds."""
    import numpy as np

    avail_idx, fin_idx, lane_idx, lane_trv, exec_pm = _numpy_tables()
    t0 = time.perf_counter()
    finish = np.zeros(_ROWS * (_NP_TASKS + 1))
    avail = np.zeros(_ROWS * _MACHINES)
    ready = np.empty(_ROWS)
    arrive = np.empty(_ROWS)
    pf = np.empty((3, _ROWS))
    for p in range(_NP_TASKS):
        np.take(avail, avail_idx[p], out=ready)
        np.take(finish, lane_idx[p], out=pf)
        pf += lane_trv[p]
        pf.max(axis=0, out=arrive)
        np.maximum(ready, arrive, out=ready)
        ready += exec_pm[p]
        finish[fin_idx[p]] = ready
        avail[avail_idx[p]] = ready
    _walk()
    _walk()
    return time.perf_counter() - t0


#: Calibration loops by name, with their reference times.
LOOPS = {
    "python": (unit, REFERENCE_S),
    "numpy": (numpy_unit, NUMPY_REFERENCE_S),
}


if __name__ == "__main__":
    for name, (loop, _) in LOOPS.items():
        samples = sorted(loop() for _ in range(200))
        print(f"median {name} unit: {samples[len(samples) // 2] * 1e3:.4f} ms")
