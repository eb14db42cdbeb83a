"""Walker-tier helpers for the benches that time the compiled walker.

Such a bench opts out of the Python-walker pin in ``conftest.py`` and
builds its Python-walker denominators inside :func:`python_walker`;
:func:`best_of_interleaved` times both sides of a ratio in alternation.
"""

import os
import time
from contextlib import contextmanager

from repro.schedule.walker import ENV


@contextmanager
def python_walker():
    """Build (or run) scalar simulators on the Python walker inside."""
    saved = os.environ.get(ENV)
    os.environ[ENV] = "python"
    try:
        yield
    finally:
        if saved is None:
            del os.environ[ENV]
        else:
            os.environ[ENV] = saved


def best_of_interleaved(*fns, budget: float = 2.0) -> list[float]:
    """Minimum wall-clock time of each of *fns* over *budget* s.

    The calls interleave (one of each per round), so a change in host
    speed, which on a shared machine lasts seconds, hits every side of
    a ratio alike.
    """
    for fn in fns:
        fn()  # warm-up
    best = [float("inf")] * len(fns)
    start = time.perf_counter()
    while time.perf_counter() - start < budget:
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best
