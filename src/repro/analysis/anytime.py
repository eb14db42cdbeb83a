"""Anytime-curve analysis for portfolio races.

A race (:func:`repro.portfolio.run_race`) reports, per island, the
improvement events of its best-so-far curve — ``(elapsed_seconds,
best_makespan)`` pairs — plus each island's start offset on the
race-global clock.  This module turns those step functions into the
numbers the ANYTIME benchmark and ``repro race`` report:

* :func:`best_at` — the curve's value at any time;
* :func:`anytime_auc` — normalized area under the best-so-far curve
  over a horizon (lower is better: it rewards *reaching* good
  schedules early, not just ending on one);
* :func:`first_time_to` — time-to-target: when the curve first reaches
  a quality threshold;
* :func:`anytime_table` — the per-island + combined text table.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: One improvement event of a best-so-far step curve.
Event = Tuple[float, float]


def best_at(events: Sequence[Event], t: float) -> float:
    """Value of the best-so-far step curve at time *t*.

    ``inf`` before the first event (no solution exists yet).  Events
    must be time-sorted with strictly decreasing costs (what
    :meth:`RaceResult.combined_anytime` and island ``anytime`` lists
    hold).
    """
    best = math.inf
    for ts, cost in events:
        if ts > t:
            break
        best = cost
    return best


def first_time_to(events: Sequence[Event], target: float) -> Optional[float]:
    """Earliest time the curve reaches ``cost <= target`` (else None)."""
    for ts, cost in events:
        if cost <= target:
            return ts
    return None


def anytime_auc(
    events: Sequence[Event],
    horizon: float,
    baseline: Optional[float] = None,
) -> float:
    """Normalized area under the best-so-far curve over ``[0, horizon]``.

    The mean of ``best(t)`` across the horizon, with the stretch before
    the first event valued at *baseline* (default: the first event's
    cost, i.e. the curve starts flat).  Dividing by the final best
    makes the number scale-free: ``1.0`` is a curve that was at its
    final quality instantly; larger means quality arrived later.

    >>> events = [(0.0, 100.0), (1.0, 50.0)]
    >>> anytime_auc(events, 2.0)  # 100 for 1s, 50 for 1s -> mean 75 / 50
    1.5
    """
    if not events:
        raise ValueError("anytime_auc needs at least one improvement event")
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if baseline is None:
        baseline = events[0][1]
    area = 0.0
    prev_t, prev_cost = 0.0, float(baseline)
    for ts, cost in events:
        ts = min(ts, horizon)
        if ts > prev_t:
            area += (ts - prev_t) * prev_cost
        prev_t, prev_cost = ts, cost
        if ts >= horizon:
            break
    if prev_t < horizon:
        area += (horizon - prev_t) * prev_cost
    final = events[-1][1] if events[-1][0] <= horizon else best_at(events, horizon)
    return area / horizon / final


def anytime_table(race) -> str:
    """Fixed-width per-island + combined summary of a race.

    *race* is a :class:`repro.portfolio.RaceResult`; the combined row
    aggregates across islands on the race-global clock.
    """
    header = (
        f"{'island':>6}  {'engine':<6} {'best':>10}  {'iters':>8} "
        f"{'evals':>9}  {'pub':>4} {'recv':>4}  stopped"
    )
    lines = [header, "-" * len(header)]
    for o in race.islands:
        mark = " *" if o.island == race.best_island else ""
        lines.append(
            f"{o.island:>6}  {o.kind:<6} {o.best_makespan:>10.2f}  "
            f"{o.iterations:>8} {o.evaluations:>9}  {o.published:>4} "
            f"{o.received:>4}  {o.stopped_by}{mark}"
        )
    curve = race.combined_anytime()
    lines.append("-" * len(header))
    lines.append(
        f"{'race':>6}  {'':6} {race.best_makespan:>10.2f}  "
        f"{race.iterations:>8} {race.evaluations:>9}  "
        f"{sum(o.published for o in race.islands):>4} "
        f"{sum(o.received for o in race.islands):>4}  "
        f"{len(curve):>2} improvements in {race.wall_seconds:.2f}s"
    )
    return "\n".join(lines)
