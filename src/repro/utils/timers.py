"""Wall-clock helper for time-budgeted experiments.

The paper's SE-vs-GA figures (Figs. 5-7) plot the *best schedule length
found so far* against *real time*.  :class:`Stopwatch` times them; the
engines' stopping rule (iterations, wall clock, stall) is
:class:`repro.optim.stop.StopPolicy`.
"""

from __future__ import annotations

import time


class Stopwatch:
    """Simple monotonic stopwatch.

    >>> sw = Stopwatch()
    >>> sw.elapsed() >= 0
    True
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def restart(self) -> None:
        """Reset the origin to now."""
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction or last :meth:`restart`."""
        return time.perf_counter() - self._start
