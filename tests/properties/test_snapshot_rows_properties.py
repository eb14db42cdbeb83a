"""The Python walker's snapshot rows against a fresh reference walk.

``prepare`` on the Python tier is one walk of the string; its
per-position tables (``avail_rows``, ``nic_rows``, ``span_prefix``) and
the NIC model's final ``arrival`` table are read off that walk's finish
and arrival times afterwards.  Each row ``p`` must equal the state of a
fresh walk over the first ``p`` positions: the reference walk of
:mod:`tests.properties.test_reference_walk_properties`, which shares no
code with either simulator.  Both networks are covered, from idle and
busy machines and NICs, on the uniform platform and on one with boot
delays.

A NIC delta whose reassigned consumer reads an item produced at
position 0 must restart its walk there (the restart floor is 0) and
still equal a full ``makespan``.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.schedule.backend import make_simulator, platform_state
from tests.properties.test_reference_walk_properties import reference_steps
from tests.routes import walker
from tests.strategies import workload_strings

_busy = st.none() | st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4)
_networks = st.sampled_from(["contention-free", "nic"])
#: "cloud" boots every machine 0.3 time units late and scales E by speed.
_platforms = st.sampled_from(["uniform", "cloud"])


@given(workload_strings(), _networks, _platforms, _busy, _busy)
@settings(max_examples=120)
def test_rows_are_prefix_walk_states(data, network, platform, avail, nic):
    w, s = data
    l = w.num_machines
    avail = None if avail is None else avail[:l]
    nic = None if nic is None or network != "nic" else nic[:l]
    with walker("python"):
        sim = make_simulator(w, network, avail, nic, platform)
    assert sim.walker_tier == "python"
    scaled, avail0, nic0 = platform_state(w, platform, network, avail, nic)
    avail0 = [0.0] * l if avail0 is None else avail0
    if network == "nic" and nic0 is None:
        nic0 = [0.0] * l
    state = sim.prepare(s.order, s.machines)

    steps = list(reference_steps(scaled, s.order, s.machines, avail0, nic0))
    assert len(steps) == len(state.avail_rows) == len(state.span_prefix)
    for p, (_start, finish, free, nic_free, _arrival) in enumerate(steps):
        assert state.avail_rows[p] == free, p
        assert state.span_prefix[p] == max([0.0, *finish.values()]), p
        if nic0 is not None:
            assert state.nic_rows[p] == nic_free, p
    if nic0 is not None:
        arrival = steps[-1][4]
        assert state.arrival == [
            arrival.get(i, 0.0) for i in range(w.num_data_items)
        ]


@given(workload_strings(min_tasks=2, min_machines=2), _platforms, _busy, _busy)
@settings(max_examples=120)
def test_nic_delta_restarts_at_a_position_zero_producer(
    data, platform, avail, nic
):
    """Move a consumer of the subtask at position 0 to another machine:
    the first changed position is the consumer's, but the producer's
    push at position 0 changes too, so the delta must walk from 0."""
    w, s = data
    l = w.num_machines
    head = s.order[0]
    consumers = [d.consumer for d in w.graph.data_items if d.producer == head]
    assume(consumers)
    consumer = consumers[-1]
    avail = None if avail is None else avail[:l]
    nic = None if nic is None else nic[:l]
    for tier in ("python", "compiled"):
        with walker(tier):
            sim = make_simulator(w, "nic", avail, nic, platform)
        state = sim.prepare(s.order, s.machines)
        machines = list(s.machines)
        machines[consumer] = (machines[consumer] + 1) % l
        first = s.position_of(consumer)
        assert first > 0
        full = sim.makespan(s.order, machines)
        assert sim.evaluate_delta(s.order, machines, first, state) == full
        assert sim.evaluate_delta(s.order, machines, first, state, full) == (
            float("inf")
        )
