"""Property tests: a move's changed region bounds what the move rewrites.

:func:`repro.schedule.neighborhood.changed_region` names the ``(first,
last)`` string positions a move rewrites.  SA and tabu pass them as
``evaluate_delta``'s ``first_changed`` and ``region_end``; the latter
lets the contention-free walker stop once it has rejoined the base run.
These properties pin that the region is sound for every move
``random_move`` draws, and that a delta anchored on it is exactly the
full makespan on both networks, from idle and from busy machines.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.contention import ContentionSimulator
from repro.schedule.neighborhood import (
    apply_move,
    changed_region,
    inverse_move,
    random_move,
)
from repro.schedule.simulator import Simulator
from tests.strategies import workload_strings

_busy = st.lists(st.floats(0.0, 100.0), min_size=6, max_size=6)


def _draw_move(string, graph, rng):
    return random_move(
        string,
        graph,
        rng,
        reassign_prob=float(rng.random()),
        avoid_noop=bool(rng.integers(2)),
    )


@given(workload_strings(max_machines=6), st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_positions_outside_the_region_keep_task_and_machine(data, seed):
    w, s = data
    rng = np.random.default_rng(seed)
    for _ in range(10):
        before = s.pairs()
        mv = _draw_move(s, w.graph, rng)
        first, last = changed_region(s, mv)
        assert 0 <= first <= last < s.num_tasks
        apply_move(s, mv)
        after = s.pairs()
        assert after[:first] == before[:first]
        assert after[last + 1 :] == before[last + 1 :]


@given(
    workload_strings(max_machines=6),
    st.integers(0, 2**32 - 1),
    _busy,
    _busy,
    st.booleans(),
)
@settings(max_examples=80)
def test_region_anchored_delta_is_the_full_makespan(
    data, seed, avail, nic, busy
):
    """Tabu's pattern: apply, score, undo against one snapshot; the
    region-anchored delta is bit-identical to a full walk, and a cutoff
    at that makespan prunes it while one just above does not."""
    w, s = data
    l = w.num_machines
    if busy:
        sims = [
            Simulator(w, initial_avail=avail[:l]),
            ContentionSimulator(
                w, initial_avail=avail[:l], initial_nic_free=nic[:l]
            ),
        ]
    else:
        sims = [Simulator(w), ContentionSimulator(w)]
    rng = np.random.default_rng(seed)
    for sim in sims:
        state = sim.prepare(s.order, s.machines)
        base = s.pairs()
        for _ in range(8):
            mv = _draw_move(s, w.graph, rng)
            first, last = changed_region(s, mv)
            undo = inverse_move(s, mv)
            apply_move(s, mv)
            full = sim.makespan(s.order, s.machines)
            args = (s.order, s.machines, first, state)
            assert sim.evaluate_delta(*args, region_end=last) == full
            assert sim.evaluate_delta(*args, full, last) == math.inf
            above = math.nextafter(full, math.inf)
            assert sim.evaluate_delta(*args, above, last) == full
            apply_move(s, undo)
            assert s.pairs() == base
